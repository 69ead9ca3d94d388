#include "shard/exec.hpp"

#include <algorithm>
#include <limits>
#include <vector>

#include "core/spadd.hpp"
#include "core/spgemm.hpp"
#include "core/spmm.hpp"
#include "core/spmv.hpp"
#include "telemetry/profile.hpp"
#include "telemetry/span.hpp"
#include "util/common.hpp"

namespace mps::shard {

namespace {

/// Modeled time to move `bytes` through the receiving device's global
/// memory system — the same bandwidth model kernel cost charges use.
double transfer_ms(const vgpu::DeviceProperties& props, double bytes) {
  const double bytes_per_cycle =
      static_cast<double>(props.num_sms) * props.global_bytes_per_cycle_per_sm;
  return props.cycles_to_ms(bytes / bytes_per_cycle);
}

vgpu::Device& device_for(std::span<vgpu::Device* const> devices, int ordinal) {
  MPS_CHECK(ordinal >= 0 &&
            static_cast<std::size_t>(ordinal) < devices.size());
  MPS_CHECK(devices[static_cast<std::size_t>(ordinal)] != nullptr);
  return *devices[static_cast<std::size_t>(ordinal)];
}

[[noreturn]] void rethrow_as_shard_loss(const vgpu::DeviceLostError& e,
                                        int ordinal) {
  throw ShardLostError(std::string("shard on device ") +
                           std::to_string(ordinal) + ": " + e.what(),
                       ordinal);
}

/// Fold per-device busy times into the fleet-concurrent stats.
ExecStats finish(const std::vector<double>& busy, double halo_ms,
                 double sum_ms, int shards) {
  ExecStats st;
  st.modeled_ms = busy.empty() ? 0.0 : *std::max_element(busy.begin(), busy.end());
  st.halo_ms = halo_ms;
  st.sum_ms = sum_ms;
  st.shards = shards;
  return st;
}

/// Shared scatter/compute/gather skeleton for the SpMV-shaped entry
/// points.  `kernel(i, device, shard, sub_x, y_sub)` returns modeled ms.
template <typename Kernel>
ExecStats run_rowwise(const ShardedMatrix& sm,
                      std::span<vgpu::Device* const> devices,
                      std::span<const double> x, std::span<double> y,
                      index_t vec_stride, Kernel&& kernel) {
  MPS_CHECK(x.size() == static_cast<std::size_t>(sm.num_cols()) *
                            static_cast<std::size_t>(vec_stride));
  MPS_CHECK(y.size() == static_cast<std::size_t>(sm.num_rows()) *
                            static_cast<std::size_t>(vec_stride));
  std::vector<double> busy(devices.size(), 0.0);
  double halo_ms = 0.0;
  double sum_ms = 0.0;
  // Roofline attribution: per-shard samples feed the imbalance detector
  // after the loop.  Everything profiler-related is guarded on enabled()
  // so the disabled path stays one relaxed atomic load.
  const bool prof = telemetry::profiler().enabled();
  std::vector<telemetry::ShardSample> samples;
  std::vector<double> sub_x;
  for (std::size_t i = 0; i < sm.shards().size(); ++i) {
    const Shard& s = sm.shards()[i];
    const index_t rows = s.row_end - s.row_begin;
    if (rows == 0) continue;
    std::span<double> y_sub =
        y.subspan(static_cast<std::size_t>(s.row_begin) *
                      static_cast<std::size_t>(vec_stride),
                  static_cast<std::size_t>(rows) *
                      static_cast<std::size_t>(vec_stride));
    if (s.local.nnz() == 0) {
      // The merge kernel writes +0.0 for every empty row; skip the
      // launch and write them directly (bitwise the same).
      std::fill(y_sub.begin(), y_sub.end(), 0.0);
      continue;
    }
    vgpu::Device& dev = device_for(devices, s.device);
    // Halo exchange: gather exactly the x entries this shard touches.
    sub_x.resize(s.xmap.size() * static_cast<std::size_t>(vec_stride));
    for (std::size_t l = 0; l < s.xmap.size(); ++l) {
      for (index_t j = 0; j < vec_stride; ++j) {
        sub_x[l * static_cast<std::size_t>(vec_stride) +
              static_cast<std::size_t>(j)] =
            x[static_cast<std::size_t>(s.xmap[l]) *
                  static_cast<std::size_t>(vec_stride) +
              static_cast<std::size_t>(j)];
      }
    }
    const double h = transfer_ms(
        dev.props(), static_cast<double>(sub_x.size()) * sizeof(double));
    double kernel_ms = 0.0;
    try {
      telemetry::ScopedSpan span("shard.spmv");
      if (prof) {
        telemetry::ProfAttr attr = telemetry::current_prof_attr();
        attr.shard = static_cast<int>(i);
        attr.device = s.device;
        attr.phase = "shard.spmv";
        telemetry::ProfAttrScope scope(attr);
        kernel_ms = kernel(i, dev, s, std::span<const double>(sub_x), y_sub);
      } else {
        kernel_ms = kernel(i, dev, s, std::span<const double>(sub_x), y_sub);
      }
    } catch (const vgpu::DeviceLostError& e) {
      rethrow_as_shard_loss(e, s.device);
    }
    busy[static_cast<std::size_t>(s.device)] += h + kernel_ms;
    halo_ms += h;
    sum_ms += kernel_ms;
    if (prof) samples.push_back({i, s.device, h + kernel_ms});
  }
  if (prof && !samples.empty()) {
    telemetry::profiler().note_shard_batch(
        telemetry::current_prof_attr().tenant, samples);
  }
  // 2D-split dense rows: per-segment partials on each segment's device,
  // reduced in fixed segment order (deterministic, not bitwise).
  for (const DenseRow& dr : sm.dense_rows()) {
    double total = 0.0;
    for (index_t j = 0; j < vec_stride; ++j) {
      total = 0.0;
      for (const DenseRowSegment& seg : dr.segments) {
        double partial = 0.0;
        for (std::size_t k = 0; k < seg.col.size(); ++k) {
          partial += seg.val[k] *
                     x[static_cast<std::size_t>(seg.col[k]) *
                           static_cast<std::size_t>(vec_stride) +
                       static_cast<std::size_t>(j)];
        }
        total += partial;
        if (j == 0) {
          vgpu::Device& dev = device_for(devices, seg.device);
          // Streaming cost: col + val + gathered x per nonzero, all
          // vectors.
          const double bytes =
              static_cast<double>(seg.col.size()) *
              (sizeof(index_t) +
               static_cast<double>(vec_stride) * 2.0 * sizeof(double));
          const double ms = transfer_ms(dev.props(), bytes);
          busy[static_cast<std::size_t>(seg.device)] += ms;
          sum_ms += ms;
        }
      }
      y[static_cast<std::size_t>(dr.row) *
            static_cast<std::size_t>(vec_stride) +
        static_cast<std::size_t>(j)] = total;
    }
  }
  return finish(busy, halo_ms, sum_ms,
                static_cast<int>(sm.shards().size()));
}

/// Concatenate `sub`'s rows onto `c` (columns already global).
void append_rows(sparse::CsrD& c, const sparse::CsrD& sub) {
  const index_t base = c.nnz();
  for (index_t r = 0; r < sub.num_rows; ++r) {
    c.row_offsets.push_back(base +
                            sub.row_offsets[static_cast<std::size_t>(r) + 1]);
  }
  c.num_rows += sub.num_rows;
  c.col.insert(c.col.end(), sub.col.begin(), sub.col.end());
  c.val.insert(c.val.end(), sub.val.begin(), sub.val.end());
}

}  // namespace

ExecStats spmv(const ShardedMatrix& sm, std::span<vgpu::Device* const> devices,
               std::span<const double> x, std::span<double> y) {
  return run_rowwise(sm, devices, x, y, 1,
                     [](std::size_t, vgpu::Device& dev, const Shard& s,
                        std::span<const double> sub_x, std::span<double> y_sub) {
                       return core::merge::spmv(dev, s.local, sub_x, y_sub)
                           .modeled_ms();
                     });
}

ExecStats spmv_tuned(
    const ShardedMatrix& sm, std::span<vgpu::Device* const> devices,
    std::span<const std::shared_ptr<const autotune::TunedPlan>> tuned,
    std::span<const double> x, std::span<double> y) {
  MPS_CHECK(tuned.size() == sm.shards().size());
  return run_rowwise(
      sm, devices, x, y, 1,
      [&](std::size_t i, vgpu::Device& dev, const Shard& s,
          std::span<const double> sub_x, std::span<double> y_sub) {
        if (!tuned[i]) {
          return core::merge::spmv(dev, s.local, sub_x, y_sub).modeled_ms();
        }
        return tuned[i]->execute(dev, s.local, sub_x, y_sub).modeled_ms();
      });
}

ExecStats spmm(const ShardedMatrix& sm, std::span<vgpu::Device* const> devices,
               std::span<const double> x_block, index_t num_vectors,
               std::span<double> y_block) {
  MPS_CHECK(num_vectors > 0);
  return run_rowwise(sm, devices, x_block, y_block, num_vectors,
                     [num_vectors](std::size_t, vgpu::Device& dev,
                                   const Shard& s,
                                   std::span<const double> sub_x,
                                   std::span<double> y_sub) {
                       return core::merge::spmm(dev, s.local, sub_x,
                                                num_vectors, y_sub)
                           .modeled_ms;
                     });
}

ExecStats spadd(const sparse::CsrD& a, const sparse::CsrD& b,
                std::span<vgpu::Device* const> devices,
                std::span<const int> ordinals, std::span<const double> weights,
                sparse::CsrD& c) {
  MPS_CHECK(a.num_rows == b.num_rows && a.num_cols == b.num_cols);
  MPS_CHECK(!weights.empty() && weights.size() == ordinals.size());
  // Combined staircase: a row heavy in either input still balances.
  std::vector<index_t> combined(static_cast<std::size_t>(a.num_rows) + 1);
  for (std::size_t r = 0; r < combined.size(); ++r) {
    combined[r] = a.row_offsets[r] + b.row_offsets[r];
  }
  const auto blocks = partition_rows(combined, weights);

  sparse::CsrD out(0, a.num_cols);
  std::vector<double> busy(devices.size(), 0.0);
  double sum_ms = 0.0;
  const bool prof = telemetry::profiler().enabled();
  std::vector<telemetry::ShardSample> samples;
  for (std::size_t i = 0; i < blocks.size(); ++i) {
    const RowBlock& blk = blocks[i];
    if (blk.row_end == blk.row_begin) {
      continue;
    }
    vgpu::Device& dev = device_for(devices, ordinals[i]);
    const sparse::CsrD sub_a = sparse::row_slice(a, blk.row_begin, blk.row_end);
    const sparse::CsrD sub_b = sparse::row_slice(b, blk.row_begin, blk.row_end);
    sparse::CsrD sub_c;
    double ms = 0.0;
    try {
      telemetry::ScopedSpan span("shard.spadd");
      if (prof) {
        telemetry::ProfAttr attr = telemetry::current_prof_attr();
        attr.shard = static_cast<int>(i);
        attr.device = ordinals[i];
        attr.phase = "shard.spadd";
        telemetry::ProfAttrScope scope(attr);
        ms = core::merge::spadd_csr(dev, sub_a, sub_b, sub_c).modeled_ms;
      } else {
        ms = core::merge::spadd_csr(dev, sub_a, sub_b, sub_c).modeled_ms;
      }
    } catch (const vgpu::DeviceLostError& e) {
      rethrow_as_shard_loss(e, ordinals[i]);
    }
    append_rows(out, sub_c);
    busy[static_cast<std::size_t>(ordinals[i])] += ms;
    sum_ms += ms;
    if (prof) samples.push_back({i, ordinals[i], ms});
  }
  if (prof && !samples.empty()) {
    telemetry::profiler().note_shard_batch(
        telemetry::current_prof_attr().tenant, samples);
  }
  // Pad trailing empty blocks' rows (blocks cover all rows by
  // construction, so out.num_rows == a.num_rows already unless the
  // matrix itself has zero rows).
  while (out.num_rows < a.num_rows) {
    out.row_offsets.push_back(out.nnz());
    ++out.num_rows;
  }
  c = std::move(out);
  return finish(busy, 0.0, sum_ms, static_cast<int>(blocks.size()));
}

ExecStats spgemm(const sparse::CsrD& a, const sparse::CsrD& b,
                 std::span<vgpu::Device* const> devices,
                 std::span<const int> ordinals, std::span<const double> weights,
                 sparse::CsrD& c) {
  MPS_CHECK(a.num_cols == b.num_rows);
  MPS_CHECK(!weights.empty() && weights.size() == ordinals.size());
  // Intermediate-product staircase: P[r] = products emitted before row r.
  std::vector<long long> prods(static_cast<std::size_t>(a.num_rows) + 1, 0);
  for (index_t r = 0; r < a.num_rows; ++r) {
    long long row_prods = 0;
    for (index_t k = a.row_offsets[static_cast<std::size_t>(r)];
         k < a.row_offsets[static_cast<std::size_t>(r) + 1]; ++k) {
      row_prods += b.row_length(a.col[static_cast<std::size_t>(k)]);
    }
    prods[static_cast<std::size_t>(r) + 1] =
        prods[static_cast<std::size_t>(r)] + row_prods;
  }
  MPS_CHECK_MSG(prods.back() <= static_cast<long long>(
                                    std::numeric_limits<index_t>::max()),
                "sharded spgemm: product count exceeds index range");
  std::vector<index_t> pi(prods.size());
  for (std::size_t r = 0; r < prods.size(); ++r) {
    pi[r] = static_cast<index_t>(prods[r]);
  }
  const auto blocks = partition_rows(pi, weights);

  sparse::CsrD out(0, b.num_cols);
  std::vector<double> busy(devices.size(), 0.0);
  double halo_ms = 0.0;
  double sum_ms = 0.0;
  const bool prof = telemetry::profiler().enabled();
  std::vector<telemetry::ShardSample> samples;
  bool first_active = true;
  for (std::size_t i = 0; i < blocks.size(); ++i) {
    const RowBlock& blk = blocks[i];
    if (blk.row_end == blk.row_begin) {
      continue;
    }
    vgpu::Device& dev = device_for(devices, ordinals[i]);
    // Every shard past the first needs its own replica of B — the
    // dominant halo cost of sharded SpGEMM.
    double shard_halo = 0.0;
    if (!first_active) {
      const double h =
          transfer_ms(dev.props(), static_cast<double>(b.device_bytes()));
      busy[static_cast<std::size_t>(ordinals[i])] += h;
      halo_ms += h;
      shard_halo = h;
    }
    first_active = false;
    const sparse::CsrD sub_a = sparse::row_slice(a, blk.row_begin, blk.row_end);
    core::merge::SpgemmConfig cfg;
    cfg.product_origin = static_cast<std::uint64_t>(
        prods[static_cast<std::size_t>(blk.row_begin)]);
    sparse::CsrD sub_c;
    double ms = 0.0;
    try {
      telemetry::ScopedSpan span("shard.spgemm");
      if (prof) {
        telemetry::ProfAttr attr = telemetry::current_prof_attr();
        attr.shard = static_cast<int>(i);
        attr.device = ordinals[i];
        attr.phase = "shard.spgemm";
        telemetry::ProfAttrScope scope(attr);
        ms = core::merge::spgemm(dev, sub_a, b, sub_c, cfg).modeled_ms();
      } else {
        ms = core::merge::spgemm(dev, sub_a, b, sub_c, cfg).modeled_ms();
      }
    } catch (const vgpu::DeviceLostError& e) {
      rethrow_as_shard_loss(e, ordinals[i]);
    }
    append_rows(out, sub_c);
    busy[static_cast<std::size_t>(ordinals[i])] += ms;
    sum_ms += ms;
    if (prof) samples.push_back({i, ordinals[i], shard_halo + ms});
  }
  if (prof && !samples.empty()) {
    telemetry::profiler().note_shard_batch(
        telemetry::current_prof_attr().tenant, samples);
  }
  while (out.num_rows < a.num_rows) {
    out.row_offsets.push_back(out.nnz());
    ++out.num_rows;
  }
  c = std::move(out);
  ExecStats st = finish(busy, halo_ms, sum_ms, static_cast<int>(blocks.size()));
  return st;
}

}  // namespace mps::shard

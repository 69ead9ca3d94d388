#include "shard/exec.hpp"

#include <algorithm>
#include <limits>
#include <optional>
#include <vector>

#include "core/spadd.hpp"
#include "core/spgemm.hpp"
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

/// Per-device busy time plus the halo and kernel sums of one call.
struct Tally {
  std::vector<double> busy;  ///< indexed by fleet ordinal
  double halo_ms = 0.0;
  double sum_ms = 0.0;
};

/// Fold per-device busy times into the fleet-concurrent stats.
ExecStats finish(const Tally& t, int shards) {
  ExecStats st;
  st.modeled_ms =
      t.busy.empty() ? 0.0 : *std::max_element(t.busy.begin(), t.busy.end());
  st.halo_ms = t.halo_ms;
  st.sum_ms = t.sum_ms;
  st.shards = shards;
  return st;
}

/// The per-slice loop every entry point runs.  Slice i runs on fleet
/// slot `place(i)`, or is skipped when that is negative (a slice with no
/// launch; `place` may write its output directly).  `stage(i, dev)`
/// gathers or slices the inputs and returns the modeled halo charge;
/// `kernel(i, dev)` launches under the slice's span and profiler
/// attribution and returns its modeled ms.  A device loss inside the
/// kernel surfaces as ShardLostError naming the slot.
template <typename Place, typename Stage, typename Kernel>
Tally run_slices(std::span<vgpu::Device* const> devices, std::size_t count,
                 const char* phase, Place&& place, Stage&& stage,
                 Kernel&& kernel) {
  Tally t;
  t.busy.assign(devices.size(), 0.0);
  // Per-slice samples feed the profiler's imbalance detector after the
  // loop.  Everything profiler-related is guarded on enabled() so the
  // disabled path stays one relaxed atomic load.
  const bool prof = telemetry::profiler().enabled();
  std::vector<telemetry::ShardSample> samples;
  for (std::size_t i = 0; i < count; ++i) {
    const int ordinal = place(i);
    if (ordinal < 0) continue;
    vgpu::Device& dev = device_for(devices, ordinal);
    const double halo_ms = stage(i, dev);
    double kernel_ms = 0.0;
    try {
      telemetry::ScopedSpan span(phase);
      std::optional<telemetry::ProfAttrScope> scope;
      if (prof) {
        telemetry::ProfAttr attr = telemetry::current_prof_attr();
        attr.shard = static_cast<int>(i);
        attr.device = ordinal;
        attr.phase = phase;
        scope.emplace(attr);
      }
      kernel_ms = kernel(i, dev);
    } catch (const vgpu::DeviceLostError& e) {
      throw ShardLostError(std::string("shard on device ") +
                               std::to_string(ordinal) + ": " + e.what(),
                           ordinal);
    }
    t.busy[static_cast<std::size_t>(ordinal)] += halo_ms + kernel_ms;
    t.halo_ms += halo_ms;
    t.sum_ms += kernel_ms;
    if (prof) samples.push_back({i, ordinal, halo_ms + kernel_ms});
  }
  // A one-slice call (a one-slot matrix op) is not a sharded dispatch, so
  // it feeds neither the imbalance detector nor shard_batches.
  if (prof && count > 1 && !samples.empty()) {
    telemetry::profiler().note_shard_batch(
        telemetry::current_prof_attr().tenant, samples);
  }
  return t;
}

/// Scatter/compute/gather for the SpMV-shaped entry points: each shard
/// gathers its halo of x and writes its own rows of y.
/// `kernel(i, device, shard, sub_x, y_sub)` returns modeled ms.
template <typename Kernel>
ExecStats run_rowwise(const ShardedMatrix& sm,
                      std::span<vgpu::Device* const> devices,
                      std::span<const double> x, std::span<double> y,
                      index_t vec_stride, Kernel&& kernel) {
  const auto stride = static_cast<std::size_t>(vec_stride);
  MPS_CHECK(x.size() == static_cast<std::size_t>(sm.num_cols()) * stride);
  MPS_CHECK(y.size() == static_cast<std::size_t>(sm.num_rows()) * stride);
  const auto rows_of = [&](const Shard& s) {
    return y.subspan(static_cast<std::size_t>(s.row_begin) * stride,
                     static_cast<std::size_t>(s.row_end - s.row_begin) *
                         stride);
  };
  std::vector<double> sub_x;
  Tally t = run_slices(
      devices, sm.shards().size(), "shard.spmv",
      [&](std::size_t i) {
        const Shard& s = sm.shards()[i];
        if (s.row_end == s.row_begin) return -1;
        if (s.local.nnz() == 0) {
          // The merge kernel writes +0.0 for every empty row; skip the
          // launch and write them directly (bitwise the same).
          const std::span<double> y_sub = rows_of(s);
          std::fill(y_sub.begin(), y_sub.end(), 0.0);
          return -1;
        }
        return s.device;
      },
      [&](std::size_t i, vgpu::Device& dev) {
        // Halo exchange: gather exactly the x entries this shard touches.
        const Shard& s = sm.shards()[i];
        sub_x.resize(s.xmap.size() * stride);
        for (std::size_t l = 0; l < s.xmap.size(); ++l) {
          for (std::size_t j = 0; j < stride; ++j) {
            sub_x[l * stride + j] =
                x[static_cast<std::size_t>(s.xmap[l]) * stride + j];
          }
        }
        return transfer_ms(dev.props(),
                           static_cast<double>(sub_x.size()) * sizeof(double));
      },
      [&](std::size_t i, vgpu::Device& dev) {
        const Shard& s = sm.shards()[i];
        return kernel(i, dev, s, std::span<const double>(sub_x), rows_of(s));
      });
  // 2D-split dense rows: per-segment partials on each segment's device,
  // reduced in fixed segment order (deterministic, not bitwise).
  for (const DenseRow& dr : sm.dense_rows()) {
    double total = 0.0;
    for (std::size_t j = 0; j < stride; ++j) {
      total = 0.0;
      for (const DenseRowSegment& seg : dr.segments) {
        double partial = 0.0;
        for (std::size_t k = 0; k < seg.col.size(); ++k) {
          partial +=
              seg.val[k] * x[static_cast<std::size_t>(seg.col[k]) * stride + j];
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
          t.busy[static_cast<std::size_t>(seg.device)] += ms;
          t.sum_ms += ms;
        }
      }
      y[static_cast<std::size_t>(dr.row) * stride + j] = total;
    }
  }
  return finish(t, static_cast<int>(sm.shards().size()));
}

/// Scatter/compute/stitch for the matrix-output entry points: A's rows
/// are cut into one block per slot on `staircase` by `weights`, block i
/// runs on devices[ordinals[i]], and the per-block outputs concatenate
/// row-wise into C.  `halo(dev)` is the block's modeled input transfer;
/// `kernel(dev, block, sub_c)` fills the block's output rows and returns
/// its modeled ms.
template <typename Halo, typename Kernel>
ExecStats run_row_blocks(const sparse::CsrD& a, index_t out_cols,
                         std::span<const index_t> staircase,
                         std::span<vgpu::Device* const> devices,
                         std::span<const int> ordinals,
                         std::span<const double> weights, const char* phase,
                         Halo&& halo, Kernel&& kernel, sparse::CsrD& c) {
  MPS_CHECK(!weights.empty() && weights.size() == ordinals.size());
  const auto blocks = partition_rows(staircase, weights);
  sparse::CsrD out(0, out_cols);
  const Tally t = run_slices(
      devices, blocks.size(), phase,
      [&](std::size_t i) {
        return blocks[i].row_end == blocks[i].row_begin ? -1 : ordinals[i];
      },
      [&](std::size_t, vgpu::Device& dev) { return halo(dev); },
      [&](std::size_t i, vgpu::Device& dev) {
        if (blocks.size() == 1) return kernel(dev, blocks[i], out);
        sparse::CsrD sub_c;
        const double ms = kernel(dev, blocks[i], sub_c);
        sparse::append_rows(out, sub_c);
        return ms;
      });
  // Pad trailing empty blocks' rows (blocks cover all rows by
  // construction, so out.num_rows == a.num_rows already unless the
  // matrix itself has zero rows).
  while (out.num_rows < a.num_rows) {
    out.row_offsets.push_back(out.nnz());
    ++out.num_rows;
  }
  c = std::move(out);
  return finish(t, static_cast<int>(blocks.size()));
}

}  // namespace

ExecStats spmv(const ShardedMatrix& sm, std::span<vgpu::Device* const> devices,
               std::span<const double> x, std::span<double> y) {
  return spmm(sm, devices, x, 1, y);
}

ExecStats spmv_tuned(
    const ShardedMatrix& sm, std::span<vgpu::Device* const> devices,
    std::span<const std::shared_ptr<const autotune::TunedPlan>> tuned,
    std::span<const double> x, std::span<double> y, index_t num_vectors) {
  MPS_CHECK(num_vectors > 0);
  MPS_CHECK(tuned.size() == sm.shards().size());
  return run_rowwise(
      sm, devices, x, y, num_vectors,
      [&](std::size_t i, vgpu::Device& dev, const Shard& s,
          std::span<const double> sub_x, std::span<double> y_sub) {
        if (tuned[i]) {
          return tuned[i]
              ->execute(dev, s.local, sub_x, y_sub, num_vectors)
              .modeled_ms();
        }
        return core::merge::spmv(dev, s.local, sub_x, y_sub, {}, num_vectors)
            .modeled_ms();
      });
}

ExecStats spmm(const ShardedMatrix& sm, std::span<vgpu::Device* const> devices,
               std::span<const double> x_block, index_t num_vectors,
               std::span<double> y_block) {
  const std::vector<std::shared_ptr<const autotune::TunedPlan>> no_plans(
      sm.shards().size());
  return spmv_tuned(sm, devices, no_plans, x_block, y_block, num_vectors);
}

ExecStats spadd(const sparse::CsrD& a, const sparse::CsrD& b,
                std::span<vgpu::Device* const> devices,
                std::span<const int> ordinals, std::span<const double> weights,
                sparse::CsrD& c) {
  MPS_CHECK(a.num_rows == b.num_rows && a.num_cols == b.num_cols);
  // Combined staircase: a row heavy in either input still balances.
  std::vector<index_t> combined(static_cast<std::size_t>(a.num_rows) + 1);
  for (std::size_t r = 0; r < combined.size(); ++r) {
    combined[r] = a.row_offsets[r] + b.row_offsets[r];
  }
  return run_row_blocks(
      a, a.num_cols, combined, devices, ordinals, weights, "shard.spadd",
      [](vgpu::Device&) { return 0.0; },
      [&](vgpu::Device& dev, const RowBlock& blk, sparse::CsrD& sub_c) {
        return core::merge::spadd_row_block(dev, a, b, blk.row_begin,
                                            blk.row_end, sub_c)
            .modeled_ms;
      },
      c);
}

ExecStats spgemm(const sparse::CsrD& a, const sparse::CsrD& b,
                 std::span<vgpu::Device* const> devices,
                 std::span<const int> ordinals, std::span<const double> weights,
                 sparse::CsrD& c) {
  MPS_CHECK(a.num_cols == b.num_rows);
  // Cut on the intermediate-product staircase, the row-block prefix.
  const std::vector<std::uint64_t> prefix =
      core::merge::spgemm_row_prefix(a, b);
  MPS_CHECK_MSG(prefix.back() <= static_cast<std::uint64_t>(
                                     std::numeric_limits<index_t>::max()),
                "sharded spgemm: product count exceeds index range");
  const std::vector<index_t> staircase(prefix.begin(), prefix.end());
  bool first_active = true;
  return run_row_blocks(
      a, b.num_cols, staircase, devices, ordinals, weights, "shard.spgemm",
      [&](vgpu::Device& dev) {
        // Every block past the first needs its own replica of B — the
        // dominant halo cost of sharded SpGEMM.
        if (first_active) {
          first_active = false;
          return 0.0;
        }
        return transfer_ms(dev.props(), static_cast<double>(b.device_bytes()));
      },
      [&](vgpu::Device& dev, const RowBlock& blk, sparse::CsrD& sub_c) {
        return core::merge::spgemm_row_block(dev, a, b, prefix, blk.row_begin,
                                             blk.row_end, sub_c)
            .modeled_ms();
      },
      c);
}

}  // namespace mps::shard

#pragma once
// Independent rebuild of the merge reduce launch's modeled cost
// (`merge.spmv_reduce`, src/core/spmv_impl.hpp) for SpMV (k = 1) and
// SpMM (k > 1).  The inputs are nnz, the segment rows each tile covers,
// the vector count k, and whether the CTAs search their own fences
// (one-shot) or read a plan's (planned).  The formula is built from the
// per-CTA charges docs/cost_model.md lists, not from the kernel's code,
// and expect_fused_merge_cost pins both the planned and the one-shot
// launch to it at three tile geometries.
#include <gtest/gtest.h>

#include <algorithm>
#include <cstring>
#include <string>
#include <vector>

#include "baselines/seq.hpp"
#include "core/spmm.hpp"
#include "core/spmv.hpp"
#include "cost_formula.hpp"
#include "util/rng.hpp"
#include "vgpu/device.hpp"
#include "vgpu/timing.hpp"

namespace mps::testing {

inline const core::merge::SpmvConfig kTileConfigs[] = {
    {128, 7}, {64, 5}, {256, 9}};

/// Segment offsets the kernel walks: A's nonempty rows only (A's own
/// offsets when it has no empty rows).
inline std::vector<index_t> segment_offsets(const sparse::CsrD& a) {
  std::vector<index_t> off{0};
  for (index_t r = 0; r < a.num_rows; ++r) {
    if (a.row_length(r) > 0) {
      off.push_back(a.row_offsets[static_cast<std::size_t>(r) + 1]);
    }
  }
  return off;
}

/// Counters of `searches` binary searches over `n` segment offsets: each
/// search is log2 + 1 single-lane steps, one sector gather per step.
inline vgpu::CtaCounters search_counters(const vgpu::DeviceProperties& p,
                                         std::size_t n, std::size_t searches) {
  const std::size_t steps = static_cast<std::size_t>(log2_ceil(n)) + 1;
  vgpu::CtaCounters c;
  c.gather_bytes = searches * steps * p.gather_sector_bytes;
  c.warp_iters = searches * steps;
  return c;
}

/// Per-CTA cycles of the reduce grid, each CTA paying `arrival` extra
/// global bytes.  Per CTA of `count` nonzeros:
///   - the row-offset window, (rows covered + 2) offsets;
///   - one column index and value per nonzero, and its row of X: one
///     sector gather plus (k - 1) streamed values;
///   - 3·count·k shared and 2·count·k ALU lane-ops, two syncs;
///   - k values per row the tile ends, k values plus a row id per carry;
///   - one-shot only: two fence searches over the segment rows.
inline std::vector<double> reduce_grid_cycles(const vgpu::DeviceProperties& p,
                                              const sparse::CsrD& a,
                                              const core::merge::SpmvConfig& cfg,
                                              std::size_t k, std::size_t arrival,
                                              bool one_shot) {
  const std::vector<index_t> off = segment_offsets(a);
  const std::size_t rows = off.size() - 1;
  const std::size_t nnz = static_cast<std::size_t>(a.nnz());
  const std::size_t tile = static_cast<std::size_t>(cfg.tile());
  const std::size_t w = static_cast<std::size_t>(p.warp_size);
  const std::size_t v = sizeof(double);
  auto fence = [&](std::size_t pos) {
    return static_cast<std::size_t>(
        std::upper_bound(off.begin(), off.begin() + static_cast<long>(rows),
                         static_cast<index_t>(pos)) -
        off.begin() - 1);
  };
  std::vector<double> cycles;
  for (std::size_t lo = 0; lo < nnz; lo += tile) {
    const std::size_t hi = std::min(nnz, lo + tile);
    const std::size_t count = hi - lo;
    const std::size_t row_lo = fence(lo);
    const std::size_t row_hi = fence(hi);
    vgpu::CtaCounters c;
    c.global_bytes = (row_hi - row_lo + 2) * sizeof(index_t) +
                     count * (sizeof(index_t) + v) + count * (k - 1) * v +
                     arrival;
    for (std::size_t r = row_lo; r <= row_hi && r < rows; ++r) {
      const std::size_t seg_lo = std::max(lo, static_cast<std::size_t>(off[r]));
      const std::size_t seg_hi =
          std::min(hi, static_cast<std::size_t>(off[r + 1]));
      if (seg_lo >= seg_hi) continue;
      c.global_bytes += static_cast<std::size_t>(off[r + 1]) <= hi
                            ? k * v
                            : k * v + sizeof(index_t);
    }
    c.gather_bytes = count * p.gather_sector_bytes;
    c.shared_ops = (3 * count * k + w - 1) / w;
    c.warp_iters = (2 * count * k + w - 1) / w;
    c.syncs = 2;
    if (one_shot) c += search_counters(p, rows, 2);
    cycles.push_back(c.cycles(p));
  }
  return cycles;
}

/// Cycles of the one-CTA carry fold over `num_ctas` carry records of k
/// values each: num_ctas·(4 + k·8) bytes, num_ctas·k shared and ALU
/// lane-ops.
inline double fold_cycles(const vgpu::DeviceProperties& p, int num_ctas,
                          std::size_t k) {
  const std::size_t n = static_cast<std::size_t>(num_ctas);
  const std::size_t w = static_cast<std::size_t>(p.warp_size);
  vgpu::CtaCounters c;
  c.global_bytes = n * (sizeof(index_t) + k * sizeof(double));
  c.shared_ops = (n * k + w - 1) / w;
  c.warp_iters = (n * k + w - 1) / w;
  return c.cycles(p);
}

/// Column j of the row-major block `y` (rows x k) must be bitwise
/// seq::spmv of column j of `x`.
inline void expect_columns_match_seq(const sparse::CsrD& a,
                                     const std::vector<double>& x,
                                     const std::vector<double>& y,
                                     std::size_t k) {
  std::vector<double> xj(static_cast<std::size_t>(a.num_cols));
  std::vector<double> ref(static_cast<std::size_t>(a.num_rows));
  std::vector<double> col(ref.size());
  for (std::size_t j = 0; j < k; ++j) {
    for (std::size_t c = 0; c < xj.size(); ++c) xj[c] = x[c * k + j];
    baselines::seq::spmv(a, xj, ref);
    for (std::size_t r = 0; r < col.size(); ++r) col[r] = y[r * k + j];
    ASSERT_EQ(std::memcmp(col.data(), ref.data(), ref.size() * sizeof(double)),
              0)
        << "column " << j << " of " << k;
  }
}

/// Planned and one-shot runs of `a` over k vectors, at every tile
/// geometry: each is one `merge.spmv_reduce` launch (after the
/// compaction launch when one-shot and A has empty rows) whose cycles
/// equal the formula above, and every column is bitwise seq::spmv.
inline void expect_fused_merge_cost(const sparse::CsrD& a, index_t num_vectors) {
  const std::size_t k = static_cast<std::size_t>(num_vectors);
  util::Rng rng(71 + k);
  std::vector<double> x(static_cast<std::size_t>(a.num_cols) * k);
  for (auto& v : x) v = rng.uniform_double(-1, 1);
  const std::size_t out = static_cast<std::size_t>(a.num_rows) * k;
  for (const core::merge::SpmvConfig& cfg : kTileConfigs) {
    SCOPED_TRACE(std::to_string(cfg.block_threads) + "x" +
                 std::to_string(cfg.items_per_thread) + " k=" +
                 std::to_string(k));
    vgpu::Device dev;
    const vgpu::DeviceProperties& p = dev.props();
    const double floor = p.kernel_launch_cycles;
    const auto plan = core::merge::spmv_plan(dev, a, cfg);
    ASSERT_EQ(plan.used_compaction(), a.has_empty_rows());
    ASSERT_GT(plan.num_ctas(), 1);
    const double fold = fold_cycles(p, plan.num_ctas(), k);
    const double update_unfused = fold + floor;

    // The unfused two-launch figure: reduce grid + a separate update
    // launch.  Fusing trades the update's launch floor for one 4-byte
    // arrival per CTA on the tail counter.
    const double reduce_unfused =
        vgpu::schedule_cycles(p, reduce_grid_cycles(p, a, cfg, k, 0, false));
    const double with_arrivals = vgpu::schedule_cycles(
        p, reduce_grid_cycles(p, a, cfg, k, sizeof(std::uint32_t), false));
    const double arrivals = with_arrivals - reduce_unfused;
    EXPECT_GT(arrivals, 0.0);

    // Planned: exactly one launch, no fence searches.
    dev.clear_log();
    std::vector<double> y(out, -3.0);
    const auto exec = core::merge::spmv_execute(dev, a, x, y, plan, num_vectors);
    const auto launches = kernel_launches(dev);
    ASSERT_EQ(launches.size(), 1u);
    const vgpu::KernelStats kp = launches.front();
    EXPECT_EQ(kp.name, "merge.spmv_reduce");
    EXPECT_EQ(kp.tail_cycles, fold);
    EXPECT_EQ(kp.device_cycles, with_arrivals + fold);
    EXPECT_DOUBLE_EQ(kp.device_cycles,
                     reduce_unfused + update_unfused - floor + arrivals);
    EXPECT_EQ(exec.update_ms, kp.tail_ms);
    EXPECT_DOUBLE_EQ(exec.reduce_ms + exec.update_ms, kp.modeled_ms);
    EXPECT_DOUBLE_EQ(exec.reduce_ms + exec.update_ms,
                     p.cycles_to_ms(kp.device_cycles));
    expect_columns_match_seq(a, x, y, k);

    // One-shot: the same launch (after the compaction pass when A has
    // empty rows), each CTA paying its two fence searches.
    dev.clear_log();
    std::vector<double> y1(out, -3.0);
    const auto one = core::merge::spmv(dev, a, x, y1, cfg, num_vectors);
    const auto one_launches = kernel_launches(dev);
    ASSERT_EQ(one_launches.size(), a.has_empty_rows() ? 2u : 1u);
    if (a.has_empty_rows()) {
      EXPECT_EQ(one_launches.front().name, "merge.spmv_compact");
      EXPECT_EQ(one.compact_ms, one_launches.front().modeled_ms);
    } else {
      EXPECT_EQ(one.compact_ms, 0.0);
    }
    const vgpu::KernelStats k1 = one_launches.back();
    EXPECT_EQ(k1.name, "merge.spmv_reduce");
    EXPECT_EQ(k1.num_ctas, kp.num_ctas);
    vgpu::CtaCounters expect = kp.totals;
    expect += search_counters(p, segment_offsets(a).size() - 1,
                              2 * static_cast<std::size_t>(plan.num_ctas()));
    EXPECT_EQ(k1.totals.global_bytes, expect.global_bytes);
    EXPECT_EQ(k1.totals.gather_bytes, expect.gather_bytes);
    EXPECT_EQ(k1.totals.shared_ops, expect.shared_ops);
    EXPECT_EQ(k1.totals.warp_iters, expect.warp_iters);
    EXPECT_EQ(k1.totals.syncs, expect.syncs);
    EXPECT_EQ(k1.totals.flops, expect.flops);
    EXPECT_EQ(k1.tail_cycles, fold);
    EXPECT_EQ(k1.device_cycles,
              vgpu::schedule_cycles(p, reduce_grid_cycles(
                                           p, a, cfg, k,
                                           sizeof(std::uint32_t), true)) +
                  fold);
    EXPECT_EQ(one.partition_ms, 0.0);
    EXPECT_EQ(one.plan_ms, one.compact_ms);
    EXPECT_EQ(one.update_ms, k1.tail_ms);
    EXPECT_DOUBLE_EQ(one.reduce_ms + one.update_ms, k1.modeled_ms);
    EXPECT_LT(exec.kernel_ms(), one.kernel_ms());
    EXPECT_EQ(std::memcmp(y1.data(), y.data(), out * sizeof(double)), 0);

    // spmm is the one-shot run at the default tile, summarized.
    if (cfg.tile() == core::merge::SpmvConfig{}.tile()) {
      std::vector<double> y2(out, -3.0);
      const auto mm = core::merge::spmm(dev, a, x, num_vectors, y2);
      EXPECT_EQ(mm.modeled_ms, one.modeled_ms());
      EXPECT_EQ(mm.num_ctas, one.num_ctas);
      EXPECT_EQ(std::memcmp(y2.data(), y.data(), out * sizeof(double)), 0);
    }
  }
}

}  // namespace mps::testing

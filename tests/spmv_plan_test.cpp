// Differential tests for the SpMV plan/execute split: spmv_plan +
// spmv_execute must produce BIT-identical output to one-shot spmv on
// every structural regime the fuzz suite covers, in both precisions,
// with and without the forced empty-row compaction path.
#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <tuple>
#include <vector>

#include "baselines/seq.hpp"
#include "core/spmv.hpp"
#include "sparse/convert.hpp"
#include "test_matrices.hpp"
#include "vgpu/device.hpp"
#include "vgpu/timing.hpp"
#include "workloads/generators.hpp"

namespace mps {
namespace {

using core::merge::SpmvConfig;
using core::merge::SpmvPlan;
using core::merge::spmv;
using core::merge::spmv_execute;
using core::merge::spmv_plan;
using sparse::coo_to_csr;
using sparse::CsrD;

// The structural regimes of tests/fuzz_ops_test.cpp.
enum class Regime {
  kUniform,
  kBanded,
  kPowerLaw,
  kHypersparse,
  kNearDense,
  kRectWide,
  kRectTall,
};

std::string regime_name(Regime r) {
  switch (r) {
    case Regime::kUniform: return "uniform";
    case Regime::kBanded: return "banded";
    case Regime::kPowerLaw: return "powerlaw";
    case Regime::kHypersparse: return "hypersparse";
    case Regime::kNearDense: return "neardense";
    case Regime::kRectWide: return "rectwide";
    case Regime::kRectTall: return "recttall";
  }
  return "?";
}

CsrD make_matrix(Regime r, std::uint64_t seed) {
  util::Rng rng(seed);
  switch (r) {
    case Regime::kUniform:
      return coo_to_csr(testing::random_coo(rng, 400, 400, 4800));
    case Regime::kBanded:
      return workloads::fem_banded(500, 18.0, 4.0, seed);
    case Regime::kPowerLaw:
      return testing::random_powerlaw_csr(rng, 500, 500, 6.0);
    case Regime::kHypersparse:
      return coo_to_csr(testing::random_coo(rng, 2000, 2000, 300));
    case Regime::kNearDense:
      return coo_to_csr(testing::random_coo(rng, 60, 60, 2800));
    case Regime::kRectWide:
      return coo_to_csr(testing::random_coo(rng, 64, 3000, 2500));
    case Regime::kRectTall:
      return coo_to_csr(testing::random_coo(rng, 3000, 64, 2500));
  }
  return {};
}

sparse::CsrMatrix<float> to_float(const CsrD& a) {
  sparse::CsrMatrix<float> f(a.num_rows, a.num_cols);
  f.row_offsets = a.row_offsets;
  f.col = a.col;
  f.val.reserve(a.val.size());
  for (const double v : a.val) f.val.push_back(static_cast<float>(v));
  return f;
}

class SpmvPlanDifferentialTest
    : public ::testing::TestWithParam<std::tuple<Regime, bool>> {
 protected:
  vgpu::Device dev_;
};

TEST_P(SpmvPlanDifferentialTest, ExecuteBitIdenticalToOneShotFp64) {
  const auto [regime, force_compaction] = GetParam();
  SpmvConfig cfg;
  cfg.force_compaction = force_compaction;
  for (const std::uint64_t seed : {1, 2, 3}) {
    const auto a = make_matrix(regime, seed);
    util::Rng rng(seed * 7 + 1);
    std::vector<double> x(static_cast<std::size_t>(a.num_cols));
    for (auto& v : x) v = rng.uniform_double(-1, 1);
    std::vector<double> y_oneshot(static_cast<std::size_t>(a.num_rows));
    const auto oneshot = spmv(dev_, a, x, y_oneshot, cfg);

    const auto plan = spmv_plan(dev_, a, cfg);
    ASSERT_TRUE(plan.valid());
    EXPECT_EQ(plan.used_compaction(), oneshot.used_compaction);
    std::vector<double> y_exec(y_oneshot.size(), -1.0);
    const auto exec = spmv_execute(dev_, a, x, y_exec, plan);

    // Bit-identical: EXPECT_EQ on doubles, not NEAR.
    ASSERT_EQ(y_exec, y_oneshot) << regime_name(regime) << " seed " << seed;

    // And anchored to the sequential reference, so both paths being
    // wrong the same way is ruled out.
    std::vector<double> ref(y_oneshot.size());
    baselines::seq::spmv(a, x, ref);
    for (std::size_t i = 0; i < ref.size(); ++i)
      ASSERT_NEAR(y_exec[i], ref[i], 1e-10)
          << regime_name(regime) << " row " << i;

    EXPECT_TRUE(exec.setup_amortized);
    EXPECT_FALSE(oneshot.setup_amortized);
    EXPECT_EQ(exec.num_ctas, oneshot.num_ctas);
  }
}

TEST_P(SpmvPlanDifferentialTest, ExecuteBitIdenticalToOneShotFp32) {
  const auto [regime, force_compaction] = GetParam();
  SpmvConfig cfg;
  cfg.force_compaction = force_compaction;
  const auto a = to_float(make_matrix(regime, 11));
  util::Rng rng(23);
  std::vector<float> x(static_cast<std::size_t>(a.num_cols));
  for (auto& v : x) v = static_cast<float>(rng.uniform_double(-1, 1));
  std::vector<float> y_oneshot(static_cast<std::size_t>(a.num_rows));
  spmv(dev_, a, x, y_oneshot, cfg);

  const auto plan = spmv_plan(dev_, a, cfg);
  EXPECT_EQ(plan.value_bytes(), sizeof(float));
  std::vector<float> y_exec(y_oneshot.size(), -1.0f);
  spmv_execute(dev_, a, x, y_exec, plan);
  ASSERT_EQ(y_exec, y_oneshot) << regime_name(regime);
}

INSTANTIATE_TEST_SUITE_P(
    Grid, SpmvPlanDifferentialTest,
    ::testing::Combine(::testing::Values(Regime::kUniform, Regime::kBanded,
                                         Regime::kPowerLaw, Regime::kHypersparse,
                                         Regime::kNearDense, Regime::kRectWide,
                                         Regime::kRectTall),
                       ::testing::Bool()),
    [](const ::testing::TestParamInfo<std::tuple<Regime, bool>>& pinfo) {
      return regime_name(std::get<0>(pinfo.param)) +
             (std::get<1>(pinfo.param) ? "Compacted" : "Fast");
    });

TEST(SpmvPlan, ReusesAcrossValueChanges) {
  // The whole point of the plan: the pattern is fixed, the values are
  // not.  Re-executing after perturbing A's values must track the
  // sequential reference on the NEW values.
  vgpu::Device dev;
  util::Rng rng(301);
  auto a = coo_to_csr(testing::random_coo(rng, 300, 300, 3600));
  const auto plan = spmv_plan(dev, a);
  std::vector<double> x(static_cast<std::size_t>(a.num_cols));
  for (auto& v : x) v = rng.uniform_double(-1, 1);
  std::vector<double> y(static_cast<std::size_t>(a.num_rows));
  std::vector<double> ref(y.size());
  for (int iter = 0; iter < 3; ++iter) {
    for (auto& v : a.val) v = rng.uniform_double(-3, 3);
    spmv_execute(dev, a, x, y, plan);
    baselines::seq::spmv(a, x, ref);
    for (std::size_t i = 0; i < ref.size(); ++i)
      ASSERT_NEAR(y[i], ref[i], 1e-10) << "iter " << iter << " row " << i;
  }
}

TEST(SpmvPlan, ExecuteIsCheaperThanOneShotAndAmortizes) {
  vgpu::Device dev;
  util::Rng rng(307);
  const auto a = coo_to_csr(testing::random_coo(rng, 2000, 2000, 30000));
  std::vector<double> x(2000, 1.0), y(2000);
  const double oneshot_ms = spmv(dev, a, x, y).kernel_ms();
  const auto plan = spmv_plan(dev, a);
  const auto exec = spmv_execute(dev, a, x, y, plan);
  const double exec_ms = exec.kernel_ms();
  // One-shot searches its fences inside the reduce launch; a planned
  // execute reads them, so it is strictly cheaper per call.
  EXPECT_LT(exec_ms, oneshot_ms);
  EXPECT_DOUBLE_EQ(exec.partition_ms, 0.0);
  EXPECT_DOUBLE_EQ(exec.compact_ms, 0.0);
  // The plan pays for itself after n* = plan_ms / (one-shot - execute)
  // applications, and not before.
  const double break_even = plan.plan_ms() / (oneshot_ms - exec_ms);
  EXPECT_GT(break_even, 1.0);
  for (const double n : {std::ceil(break_even), 10 * std::ceil(break_even)}) {
    EXPECT_LT((plan.plan_ms() + n * exec_ms) / n, oneshot_ms) << "n=" << n;
  }
  EXPECT_GT(plan.plan_ms() + exec_ms, oneshot_ms);
}

TEST(SpmvPlan, StatsBreakdown) {
  vgpu::Device dev;
  util::Rng rng(311);
  const auto a = coo_to_csr(testing::random_coo(rng, 500, 500, 6000));
  ASSERT_FALSE(a.has_empty_rows());
  std::vector<double> x(500, 1.0), y(500);
  // One-shot: no partition launch and, without empty rows, no compaction;
  // the whole call is the fused reduce launch (plus guards, if on).
  const auto oneshot = spmv(dev, a, x, y);
  EXPECT_DOUBLE_EQ(oneshot.partition_ms, 0.0);
  EXPECT_DOUBLE_EQ(oneshot.compact_ms, 0.0);
  EXPECT_DOUBLE_EQ(oneshot.plan_ms, oneshot.compact_ms);
  EXPECT_FALSE(oneshot.setup_amortized);
  // integrity_ms is 0 unless the suite runs under MPS_INTEGRITY_CHECK=1.
  EXPECT_DOUBLE_EQ(oneshot.modeled_ms(),
                   oneshot.reduce_ms + oneshot.update_ms + oneshot.integrity_ms);

  const auto plan = spmv_plan(dev, a);
  EXPECT_DOUBLE_EQ(plan.plan_ms(), plan.partition_ms() + plan.compact_ms());
  EXPECT_GT(plan.partition_ms(), 0.0);
  const auto exec = spmv_execute(dev, a, x, y, plan);
  EXPECT_DOUBLE_EQ(exec.plan_ms, plan.plan_ms());
  EXPECT_DOUBLE_EQ(exec.modeled_ms(),
                   exec.reduce_ms + exec.update_ms + exec.integrity_ms);
  // Same carry tail; the one-shot reduce share also pays the search.
  EXPECT_EQ(exec.update_ms, oneshot.update_ms);
  EXPECT_LT(exec.reduce_ms, oneshot.reduce_ms);

  // Forced compaction: the compaction pass, then the fused launch.
  SpmvConfig forced;
  forced.force_compaction = true;
  dev.clear_log();
  std::vector<double> y_forced(500);
  const auto compacted = spmv(dev, a, x, y_forced, forced);
  EXPECT_EQ(y_forced, y);
  EXPECT_TRUE(compacted.used_compaction);
  EXPECT_GT(compacted.compact_ms, 0.0);
  EXPECT_DOUBLE_EQ(compacted.plan_ms, compacted.compact_ms);
  std::vector<std::string> names;
  for (const auto& k : dev.log()) {
    if (k.name.rfind("integrity.", 0) != 0) names.push_back(k.name);
  }
  EXPECT_EQ(names, (std::vector<std::string>{"merge.spmv_compact",
                                             "merge.spmv_reduce"}));
}

TEST(SpmvPlan, RejectsUnbuiltPlan) {
  vgpu::Device dev;
  const auto a = coo_to_csr(testing::paper_a());
  SpmvPlan plan;
  EXPECT_FALSE(plan.valid());
  std::vector<double> x(4, 1.0), y(4);
  EXPECT_THROW(spmv_execute(dev, a, x, y, plan), mps::PlanMismatchError);
}

TEST(SpmvPlan, RejectsPrecisionMismatch) {
  vgpu::Device dev;
  const auto a = coo_to_csr(testing::paper_a());
  const auto plan = spmv_plan(dev, a);  // fp64 plan...
  const auto af = to_float(a);
  std::vector<float> xf(4, 1.0f), yf(4);  // ...applied to fp32 data
  EXPECT_THROW(spmv_execute(dev, af, xf, yf, plan), mps::PlanMismatchError);
}

TEST(SpmvPlan, PlanHoldsDeviceMemoryUntilDestroyed) {
  vgpu::Device dev;
  util::Rng rng(313);
  const auto a = coo_to_csr(testing::random_coo(rng, 500, 500, 6000));
  const std::size_t before = dev.memory().in_use();
  {
    const auto plan = spmv_plan(dev, a);
    EXPECT_GT(plan.device_bytes(), 0u);
    EXPECT_EQ(dev.memory().in_use(), before + plan.device_bytes());
  }
  EXPECT_EQ(dev.memory().in_use(), before);
}

TEST(SpmvPlan, CompactionPathCarriesCompactedView) {
  // A matrix with empty rows takes the compaction path automatically and
  // the plan pins the compacted view (larger footprint than the fast path).
  vgpu::Device dev;
  sparse::CooD coo(100, 100);
  for (index_t r = 0; r < 100; r += 2) coo.push_back(r, r, 1.0 + r);
  const auto a = coo_to_csr(coo);
  ASSERT_TRUE(a.has_empty_rows());
  const auto plan = spmv_plan(dev, a);
  EXPECT_TRUE(plan.used_compaction());
  EXPECT_GT(plan.compact_ms(), 0.0);
  std::vector<double> x(100, 1.0), y(100), y_oneshot(100);
  spmv(dev, a, x, y_oneshot);
  spmv_execute(dev, a, x, y, plan);
  EXPECT_EQ(y, y_oneshot);
}

// ---------------------------------------------------------------------------
// Single-launch execute: the carry update is the reduce launch's tail.
// The fused cost is pinned to an independent rebuild of the two-launch
// (reduce grid, then a one-CTA update) figure from the kernels' charges.

/// Counters of `searches` binary searches over `n` segment offsets: each
/// search is log2 + 1 single-lane steps, one sector gather per step.
vgpu::CtaCounters search_counters(const vgpu::DeviceProperties& p,
                                  std::size_t n, std::size_t searches) {
  const std::size_t steps = static_cast<std::size_t>(log2_ceil(n)) + 1;
  vgpu::CtaCounters c;
  c.gather_bytes = searches * steps * p.gather_sector_bytes;
  c.warp_iters = searches * steps;
  return c;
}

/// Number of segment rows the kernel walks: A's nonempty rows.
std::size_t segment_rows(const CsrD& a) {
  std::size_t rows = 0;
  for (index_t r = 0; r < a.num_rows; ++r) rows += a.row_length(r) > 0;
  return rows;
}

/// Per-CTA cycles of the reduce grid (the charges in spmv_impl.hpp),
/// each CTA paying `arrival` extra global bytes and, for one-shot,
/// `searches` in-kernel fence searches.
std::vector<double> reduce_grid_cycles(const vgpu::DeviceProperties& p,
                                       const CsrD& a, const SpmvConfig& cfg,
                                       std::size_t arrival,
                                       std::size_t searches = 0) {
  // Segment offsets: nonempty rows only (identical to A's offsets when
  // there are no empty rows).
  std::vector<index_t> off{0};
  for (index_t r = 0; r < a.num_rows; ++r) {
    if (a.row_length(r) > 0) {
      off.push_back(a.row_offsets[static_cast<std::size_t>(r) + 1]);
    }
  }
  const std::size_t rows = off.size() - 1;
  const std::size_t nnz = static_cast<std::size_t>(a.nnz());
  const std::size_t tile = static_cast<std::size_t>(cfg.tile());
  const std::size_t w = static_cast<std::size_t>(p.warp_size);
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
                     count * (sizeof(index_t) + sizeof(double)) + arrival;
    for (std::size_t r = row_lo; r <= row_hi && r < rows; ++r) {
      const std::size_t seg_lo = std::max(lo, static_cast<std::size_t>(off[r]));
      const std::size_t seg_hi =
          std::min(hi, static_cast<std::size_t>(off[r + 1]));
      if (seg_lo >= seg_hi) continue;
      // A row ending in the tile stores y; an open row stores a carry.
      c.global_bytes += static_cast<std::size_t>(off[r + 1]) <= hi
                            ? sizeof(double)
                            : sizeof(double) + sizeof(index_t);
    }
    c.gather_bytes = count * p.gather_sector_bytes;
    c.shared_ops = (3 * count + w - 1) / w;
    c.warp_iters = (2 * count + w - 1) / w;
    c.syncs = 2;
    c += search_counters(p, rows, searches);
    cycles.push_back(c.cycles(p));
  }
  return cycles;
}

/// Cycles of the one-CTA carry fold over `num_ctas` carry records.
double update_cycles(const vgpu::DeviceProperties& p, int num_ctas) {
  const std::size_t n = static_cast<std::size_t>(num_ctas);
  const std::size_t w = static_cast<std::size_t>(p.warp_size);
  vgpu::CtaCounters c;
  c.global_bytes = n * (sizeof(index_t) + sizeof(double));
  c.shared_ops = (n + w - 1) / w;
  c.warp_iters = (n + w - 1) / w;
  return c.cycles(p);
}

const SpmvConfig kTileConfigs[] = {{128, 7}, {64, 5}, {256, 9}};

/// The device's launches minus integrity-guard scans, which run only
/// under MPS_INTEGRITY_CHECK.
std::vector<vgpu::KernelStats> kernel_launches(const vgpu::Device& dev) {
  std::vector<vgpu::KernelStats> out;
  for (const auto& k : dev.log()) {
    if (k.name.rfind("integrity.", 0) != 0) out.push_back(k);
  }
  return out;
}

void expect_fused_spmv_cost(const CsrD& a) {
  util::Rng rng(71);
  std::vector<double> x(static_cast<std::size_t>(a.num_cols));
  for (auto& v : x) v = rng.uniform_double(-1, 1);
  std::vector<double> ref(static_cast<std::size_t>(a.num_rows));
  baselines::seq::spmv(a, x, ref);
  for (const SpmvConfig& cfg : kTileConfigs) {
    SCOPED_TRACE(std::to_string(cfg.block_threads) + "x" +
                 std::to_string(cfg.items_per_thread));
    vgpu::Device dev;
    const vgpu::DeviceProperties& p = dev.props();
    const double floor = p.kernel_launch_cycles;
    const auto plan = spmv_plan(dev, a, cfg);
    ASSERT_EQ(plan.used_compaction(), a.has_empty_rows());
    ASSERT_GT(plan.num_ctas(), 1);

    // The unfused two-launch figure: reduce grid + a separate update launch.
    const double reduce_unfused =
        vgpu::schedule_cycles(p, reduce_grid_cycles(p, a, cfg, 0));
    const double update_unfused =
        update_cycles(p, plan.num_ctas()) + floor;
    const double with_arrivals = vgpu::schedule_cycles(
        p, reduce_grid_cycles(p, a, cfg, sizeof(std::uint32_t)));
    const double arrivals = with_arrivals - reduce_unfused;
    EXPECT_GT(arrivals, 0.0);

    // Planned execute: exactly one launch.
    dev.clear_log();
    std::vector<double> y(static_cast<std::size_t>(a.num_rows), -3.0);
    const auto exec = spmv_execute(dev, a, x, y, plan);
    const auto launches = kernel_launches(dev);
    ASSERT_EQ(launches.size(), 1u);
    const vgpu::KernelStats k = launches.front();
    EXPECT_EQ(k.name, "merge.spmv_reduce");
    EXPECT_EQ(k.tail_cycles, update_cycles(p, plan.num_ctas()));
    EXPECT_EQ(k.device_cycles,
              with_arrivals + update_cycles(p, plan.num_ctas()));
    EXPECT_DOUBLE_EQ(k.device_cycles,
                     reduce_unfused + update_unfused - floor + arrivals);
    EXPECT_EQ(exec.update_ms, k.tail_ms);
    EXPECT_DOUBLE_EQ(exec.reduce_ms + exec.update_ms, k.modeled_ms);
    EXPECT_DOUBLE_EQ(exec.reduce_ms + exec.update_ms,
                     p.cycles_to_ms(k.device_cycles));
    EXPECT_EQ(y, ref);

    // One-shot: the same fused launch (after the compaction pass when A
    // has empty rows), with each CTA paying its two fence searches.
    dev.clear_log();
    std::vector<double> y1(static_cast<std::size_t>(a.num_rows), -3.0);
    const auto one = spmv(dev, a, x, y1, cfg);
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
    EXPECT_EQ(k1.num_ctas, k.num_ctas);
    vgpu::CtaCounters expect = k.totals;
    expect += search_counters(p, segment_rows(a),
                              2 * static_cast<std::size_t>(plan.num_ctas()));
    EXPECT_EQ(k1.totals.global_bytes, expect.global_bytes);
    EXPECT_EQ(k1.totals.gather_bytes, expect.gather_bytes);
    EXPECT_EQ(k1.totals.shared_ops, expect.shared_ops);
    EXPECT_EQ(k1.totals.warp_iters, expect.warp_iters);
    EXPECT_EQ(k1.totals.syncs, expect.syncs);
    EXPECT_EQ(k1.totals.flops, expect.flops);
    EXPECT_EQ(k1.tail_cycles, k.tail_cycles);
    EXPECT_EQ(k1.device_cycles,
              vgpu::schedule_cycles(p, reduce_grid_cycles(
                                           p, a, cfg, sizeof(std::uint32_t), 2)) +
                  update_cycles(p, plan.num_ctas()));
    EXPECT_EQ(one.partition_ms, 0.0);
    EXPECT_EQ(one.plan_ms, one.compact_ms);
    EXPECT_EQ(one.update_ms, k1.tail_ms);
    EXPECT_DOUBLE_EQ(one.reduce_ms + one.update_ms, k1.modeled_ms);
    EXPECT_LT(exec.kernel_ms(), one.kernel_ms());
    EXPECT_EQ(y1, ref);
    EXPECT_EQ(y1, y);
  }
}

TEST(SpmvFusedTail, SpanningRowsCostOneLaunchAndStayBitwise) {
  const CsrD a = testing::spanning_rows_csr(/*empty_rows=*/false, 81);
  ASSERT_FALSE(a.has_empty_rows());
  expect_fused_spmv_cost(a);
}

TEST(SpmvFusedTail, EmptyRowsCompactionPathCostOneLaunchAndStayBitwise) {
  const CsrD a = testing::spanning_rows_csr(/*empty_rows=*/true, 82);
  ASSERT_TRUE(a.has_empty_rows());
  expect_fused_spmv_cost(a);
}

}  // namespace
}  // namespace mps

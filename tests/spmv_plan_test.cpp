// Differential tests for the SpMV plan/execute split: spmv_plan +
// spmv_execute must produce BIT-identical output to one-shot spmv on
// every structural regime the fuzz suite covers, in both precisions,
// with and without the forced empty-row compaction path.
#include <gtest/gtest.h>

#include <algorithm>
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
  const double oneshot_ms = spmv(dev, a, x, y).modeled_ms();
  const auto plan = spmv_plan(dev, a);
  const auto exec = spmv_execute(dev, a, x, y, plan);
  // The steady-state per-iteration cost excludes partition entirely.
  EXPECT_LT(exec.modeled_ms(), oneshot_ms);
  EXPECT_DOUBLE_EQ(exec.partition_ms, 0.0);
  EXPECT_DOUBLE_EQ(exec.compact_ms, 0.0);
  // plan + execute recovers the one-shot total.
  EXPECT_NEAR(plan.plan_ms() + exec.modeled_ms(), oneshot_ms,
              0.01 * oneshot_ms);
  // Acceptance shape: amortized per-iteration cost strictly below
  // one-shot from 10 iterations on.
  for (const double n : {10.0, 100.0, 1000.0}) {
    EXPECT_LT((plan.plan_ms() + n * exec.modeled_ms()) / n, oneshot_ms)
        << "n=" << n;
  }
}

TEST(SpmvPlan, StatsBreakdown) {
  vgpu::Device dev;
  util::Rng rng(311);
  const auto a = coo_to_csr(testing::random_coo(rng, 500, 500, 6000));
  std::vector<double> x(500, 1.0), y(500);
  const auto oneshot = spmv(dev, a, x, y);
  EXPECT_DOUBLE_EQ(oneshot.plan_ms, oneshot.partition_ms + oneshot.compact_ms);
  EXPECT_GT(oneshot.partition_ms, 0.0);

  const auto plan = spmv_plan(dev, a);
  EXPECT_DOUBLE_EQ(plan.plan_ms(), plan.partition_ms() + plan.compact_ms());
  EXPECT_DOUBLE_EQ(plan.plan_ms(), oneshot.plan_ms);
  const auto exec = spmv_execute(dev, a, x, y, plan);
  EXPECT_DOUBLE_EQ(exec.plan_ms, plan.plan_ms());
  // integrity_ms is 0 unless the suite runs under MPS_INTEGRITY_CHECK=1.
  EXPECT_DOUBLE_EQ(exec.modeled_ms(),
                   exec.reduce_ms + exec.update_ms + exec.integrity_ms);
  EXPECT_DOUBLE_EQ(exec.reduce_ms + exec.update_ms,
                   oneshot.reduce_ms + oneshot.update_ms);
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

/// Per-CTA cycles of the reduce grid (the charges in spmv_impl.hpp),
/// each CTA paying `arrival` extra global bytes.
std::vector<double> reduce_grid_cycles(const vgpu::DeviceProperties& p,
                                       const CsrD& a, const SpmvConfig& cfg,
                                       std::size_t arrival) {
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

    // One-shot: the plan-build launches, then the same fused launch.
    dev.clear_log();
    std::vector<double> y1(static_cast<std::size_t>(a.num_rows), -3.0);
    const auto one = spmv(dev, a, x, y1, cfg);
    const auto one_launches = kernel_launches(dev);
    ASSERT_EQ(one_launches.size(), a.has_empty_rows() ? 3u : 2u);
    double setup = 0.0;
    for (std::size_t i = 0; i + 1 < one_launches.size(); ++i) {
      EXPECT_NE(one_launches[i].name, "merge.spmv_reduce");
      setup += one_launches[i].device_cycles;
    }
    EXPECT_EQ(one_launches.back().device_cycles, k.device_cycles);
    const double one_ms =
        one.partition_ms + one.compact_ms + one.reduce_ms + one.update_ms;
    EXPECT_NEAR(one_ms,
                p.cycles_to_ms(setup + reduce_unfused + update_unfused -
                               floor + arrivals),
                1e-12 * one_ms);
    EXPECT_EQ(y1, ref);
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

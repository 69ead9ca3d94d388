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
#include "merge_cost.hpp"
#include "oracle.hpp"
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

using testing::Regime;
using testing::regime_name;
using testing::to_float;

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
    const auto a = testing::make_regime_matrix(regime, seed);
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
  const auto a = to_float(testing::make_regime_matrix(regime, 11));
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
    ::testing::Combine(::testing::ValuesIn(testing::kAllRegimes),
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
// The fused cost is pinned to the independent per-CTA formula of
// tests/merge_cost.hpp at k = 1 (SpmmFusedTail runs it at k > 1).

TEST(SpmvFusedTail, SpanningRowsCostOneLaunchAndStayBitwise) {
  const CsrD a = testing::spanning_rows_csr(/*empty_rows=*/false, 81);
  ASSERT_FALSE(a.has_empty_rows());
  testing::expect_fused_merge_cost(a, 1);
}

TEST(SpmvFusedTail, EmptyRowsCompactionPathCostOneLaunchAndStayBitwise) {
  const CsrD a = testing::spanning_rows_csr(/*empty_rows=*/true, 82);
  ASSERT_TRUE(a.has_empty_rows());
  testing::expect_fused_merge_cost(a, 1);
}

}  // namespace
}  // namespace mps

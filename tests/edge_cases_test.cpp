// Final coverage sweep: configuration corners and edge conditions not
// exercised by the main suites.
#include <gtest/gtest.h>

#include <sstream>

#include "baselines/seq.hpp"
#include "core/spgemm.hpp"
#include "core/spmv.hpp"
#include "primitives/set_ops.hpp"
#include "oracle.hpp"
#include "sparse/convert.hpp"
#include "sparse/io.hpp"
#include "test_matrices.hpp"
#include "vgpu/device.hpp"

namespace mps {
namespace {

using sparse::coo_to_csr;
using testing::random_coo;

TEST(EdgeCases, SetOpTileGeometrySweep) {
  // The set-op result must be invariant to CTA geometry.
  vgpu::Device dev;
  util::Rng rng(801);
  std::vector<std::uint32_t> a(5000), b(4000);
  for (auto& x : a) x = static_cast<std::uint32_t>(rng.uniform(300));
  for (auto& x : b) x = static_cast<std::uint32_t>(rng.uniform(300));
  std::sort(a.begin(), a.end());
  std::sort(b.begin(), b.end());
  std::vector<std::uint32_t> reference;
  for (const auto& cfg :
       {primitives::SetOpConfig{32, 1}, primitives::SetOpConfig{64, 3},
        primitives::SetOpConfig{128, 11}, primitives::SetOpConfig{256, 17}}) {
    auto res = primitives::device_set_op_keys<std::uint32_t>(
        dev, a, b, primitives::SetOp::kUnion, std::less<std::uint32_t>{}, cfg);
    if (reference.empty()) {
      reference = res.keys;
    } else {
      ASSERT_EQ(res.keys, reference)
          << cfg.block_threads << "x" << cfg.items_per_thread;
    }
  }
}

TEST(EdgeCases, SpmvSingleTileAndSingleNonzero) {
  vgpu::Device dev;
  sparse::CooD one(5, 5);
  one.push_back(3, 2, 4.5);
  const auto a = coo_to_csr(one);
  std::vector<double> x{1, 2, 3, 4, 5}, y(5, -1);
  const auto stats = core::merge::spmv(dev, a, x, y);
  EXPECT_EQ(stats.num_ctas, 1);
  EXPECT_EQ(y, (std::vector<double>{0, 0, 0, 13.5, 0}));
}

TEST(EdgeCases, SpmvTileLargerThanMatrix) {
  vgpu::Device dev;
  util::Rng rng(803);
  const auto a = coo_to_csr(random_coo(rng, 50, 50, 200));
  core::merge::SpmvConfig cfg;
  cfg.items_per_thread = 64;  // tile 8192 >> nnz
  std::vector<double> x(50, 1.0), y(50), ref(50);
  baselines::seq::spmv(a, x, ref);
  core::merge::spmv(dev, a, x, y, cfg);
  for (std::size_t i = 0; i < y.size(); ++i) ASSERT_NEAR(y[i], ref[i], 1e-12);
}

TEST(EdgeCases, SpgemmPlanWithForcedPairSort) {
  vgpu::Device dev;
  util::Rng rng(805);
  const auto a = coo_to_csr(random_coo(rng, 200, 200, 1600));
  core::merge::SpgemmConfig cfg;
  cfg.force_pair_sort = true;
  core::merge::SpgemmPlan plan;
  const auto stats = core::merge::spgemm_symbolic(dev, a, a, plan, cfg);
  EXPECT_TRUE(stats.used_pair_sort);
  sparse::CsrD c;
  core::merge::spgemm_numeric(dev, a, a, plan, c);
  EXPECT_TRUE(testing::bitwise_equal(c, baselines::seq::spgemm(a, a)));
}

TEST(EdgeCases, SpgemmTinyBlockGeometry) {
  // Degenerate CTA geometry (2 threads x 1 item) still correct.
  vgpu::Device dev;
  util::Rng rng(807);
  const auto a = coo_to_csr(random_coo(rng, 40, 40, 200));
  core::merge::SpgemmConfig cfg;
  cfg.block_threads = 2;
  cfg.items_per_thread = 1;
  sparse::CsrD c;
  core::merge::spgemm(dev, a, a, c, cfg);
  EXPECT_TRUE(testing::bitwise_equal(c, baselines::seq::spgemm(a, a)));
}

TEST(EdgeCases, SpmvPlanOnEmptyMatrix) {
  // Zero rows, zero nonzeros: the plan is valid and reusable, execute
  // just clears (the empty) y.
  vgpu::Device dev;
  const sparse::CsrD a(0, 5);
  const auto plan = core::merge::spmv_plan(dev, a);
  EXPECT_TRUE(plan.valid());
  EXPECT_EQ(plan.num_ctas(), 0);
  std::vector<double> x(5, 1.0), y;
  for (int i = 0; i < 3; ++i) core::merge::spmv_execute(dev, a, x, y, plan);
}

TEST(EdgeCases, SpmvPlanOnAllEmptyRows) {
  // nnz == 0 but rows > 0: every execute must fully overwrite y with 0.
  vgpu::Device dev;
  const sparse::CsrD a(7, 7);
  const auto plan = core::merge::spmv_plan(dev, a);
  EXPECT_TRUE(plan.valid());
  std::vector<double> x(7, 2.0), y(7, -1.0);
  for (int i = 0; i < 3; ++i) {
    std::fill(y.begin(), y.end(), -1.0);
    const auto stats = core::merge::spmv_execute(dev, a, x, y, plan);
    EXPECT_EQ(y, std::vector<double>(7, 0.0));
    EXPECT_TRUE(stats.setup_amortized);
  }
}

TEST(EdgeCases, SpmvPlanSingleRowAndSingleColumn) {
  vgpu::Device dev;
  util::Rng rng(809);
  // 1 x N row matrix: one long carry chain across every CTA.
  {
    sparse::CooD coo(1, 3000);
    for (index_t c = 0; c < 3000; c += 2) coo.push_back(0, c, rng.uniform_double(-1, 1));
    const auto a = coo_to_csr(coo);
    std::vector<double> x(3000, 1.0), y(1), y_oneshot(1), ref(1);
    baselines::seq::spmv(a, x, ref);
    core::merge::spmv(dev, a, x, y_oneshot);
    const auto plan = core::merge::spmv_plan(dev, a);
    core::merge::spmv_execute(dev, a, x, y, plan);
    EXPECT_EQ(y, y_oneshot);
    EXPECT_NEAR(y[0], ref[0], 1e-10);
  }
  // N x 1 column matrix: one nonzero (or none) per row.
  {
    sparse::CooD coo(3000, 1);
    for (index_t r = 0; r < 3000; r += 3) coo.push_back(r, 0, rng.uniform_double(-1, 1));
    const auto a = coo_to_csr(coo);
    ASSERT_TRUE(a.has_empty_rows());
    std::vector<double> x(1, 2.5), y(3000), y_oneshot(3000), ref(3000);
    baselines::seq::spmv(a, x, ref);
    core::merge::spmv(dev, a, x, y_oneshot);
    const auto plan = core::merge::spmv_plan(dev, a);
    EXPECT_TRUE(plan.used_compaction());
    core::merge::spmv_execute(dev, a, x, y, plan);
    EXPECT_EQ(y, y_oneshot);
    for (std::size_t i = 0; i < ref.size(); ++i) ASSERT_NEAR(y[i], ref[i], 1e-12);
  }
}

TEST(EdgeCases, SpmvPlanFingerprintRejectsMismatchedPattern) {
  vgpu::Device dev;
  util::Rng rng(811);
  const auto a = coo_to_csr(random_coo(rng, 100, 100, 700));
  const auto plan = core::merge::spmv_plan(dev, a);
  std::vector<double> x(100, 1.0), y(100);

  // Different dimensions.
  const auto wider = coo_to_csr(random_coo(rng, 100, 120, 700));
  std::vector<double> xw(120, 1.0);
  EXPECT_THROW(core::merge::spmv_execute(dev, wider, xw, y, plan),
               mps::PlanMismatchError);
  // Different nnz.
  const auto denser = coo_to_csr(random_coo(rng, 100, 100, 900));
  EXPECT_THROW(core::merge::spmv_execute(dev, denser, x, y, plan),
               mps::PlanMismatchError);
  // Same dims and nnz, different row structure: caught by the row-offset
  // checksum, reported as an error instead of producing garbage.
  auto shifted = a;
  index_t moved = -1;
  for (index_t r = 0; r + 1 < shifted.num_rows; ++r) {
    const auto o = static_cast<std::size_t>(r) + 1;
    if (shifted.row_offsets[o] > shifted.row_offsets[o - 1] &&
        shifted.row_offsets[o] < shifted.nnz()) {
      shifted.row_offsets[o] -= 1;  // move one nonzero to the next row
      moved = r;
      break;
    }
  }
  ASSERT_GE(moved, 0);
  EXPECT_THROW(core::merge::spmv_execute(dev, shifted, x, y, plan),
               mps::PlanMismatchError);
  // The original still executes fine after the rejected attempts.
  core::merge::spmv_execute(dev, a, x, y, plan);
}

TEST(EdgeCases, MatrixMarketPrecisionRoundTrip) {
  // write -> read preserves doubles exactly (precision 17).
  sparse::CooD a(2, 2);
  a.push_back(0, 0, 1.0 / 3.0);
  a.push_back(1, 1, 1e-300);
  std::stringstream ss;
  sparse::write_matrix_market(ss, a);
  const auto b = sparse::read_matrix_market(ss);
  EXPECT_EQ(b.val[0], 1.0 / 3.0);
  EXPECT_EQ(b.val[1], 1e-300);
}

TEST(EdgeCases, DeviceLogClearAndAccumulate) {
  vgpu::Device dev;
  dev.launch("a", 1, 32, [](vgpu::Cta&) {});
  dev.launch("b", 2, 32, [](vgpu::Cta&) {});
  EXPECT_EQ(dev.log().size(), 2u);
  dev.clear_log();
  EXPECT_TRUE(dev.log().empty());
  dev.launch("c", 1, 32, [](vgpu::Cta&) {});
  EXPECT_EQ(dev.log().back().name, "c");
}

TEST(EdgeCases, KernelStatsAccumulate) {
  vgpu::Device dev;
  auto s1 = dev.launch("x", 2, 64, [](vgpu::Cta& c) { c.charge_global(100); });
  const auto s2 = dev.launch("y", 3, 64, [](vgpu::Cta& c) { c.charge_sync(); });
  const double total = s1.modeled_ms + s2.modeled_ms;
  s1 += s2;
  EXPECT_EQ(s1.num_ctas, 5);
  EXPECT_DOUBLE_EQ(s1.modeled_ms, total);
  EXPECT_EQ(s1.totals.global_bytes, 200u);
  EXPECT_EQ(s1.totals.syncs, 3u);
}

TEST(EdgeCases, MergePathMorePartsThanElements) {
  const std::vector<int> a{1, 2};
  const std::vector<int> b{3};
  const auto parts = primitives::merge_path_partitions<int>(a, b, 10);
  ASSERT_EQ(parts.size(), 10u);
  std::size_t total = 0;
  for (const auto& r : parts) total += r.size();
  EXPECT_EQ(total, 3u);
}

TEST(EdgeCases, CsrValidityCatchesCorruption) {
  auto a = coo_to_csr(testing::paper_a());
  EXPECT_TRUE(a.is_valid());
  auto bad_offsets = a;
  bad_offsets.row_offsets[2] = 99;
  EXPECT_FALSE(bad_offsets.is_valid());
  auto bad_col = a;
  bad_col.col[0] = -1;
  EXPECT_FALSE(bad_col.is_valid());
  auto unsorted_row = a;
  std::swap(unsorted_row.col[1], unsorted_row.col[2]);
  std::swap(unsorted_row.val[1], unsorted_row.val[2]);
  EXPECT_FALSE(unsorted_row.is_valid());
}

}  // namespace
}  // namespace mps

// Tests for the SpGEMM symbolic/numeric split (pattern-reuse API).
#include <gtest/gtest.h>

#include <algorithm>

#include "baselines/seq.hpp"
#include "core/spgemm.hpp"
#include "oracle.hpp"
#include "sparse/convert.hpp"
#include "test_matrices.hpp"
#include "vgpu/device.hpp"

namespace mps {
namespace {

using core::merge::spgemm_numeric;
using core::merge::spgemm_symbolic;
using core::merge::SpgemmPlan;
using sparse::coo_to_csr;
using testing::random_coo;

TEST(SpgemmPlan, SymbolicThenNumericMatchesReference) {
  vgpu::Device dev;
  util::Rng rng(201);
  const auto a = coo_to_csr(random_coo(rng, 400, 350, 4000));
  const auto b = coo_to_csr(random_coo(rng, 350, 300, 3500));
  SpgemmPlan plan;
  const auto stats = spgemm_symbolic(dev, a, b, plan);
  EXPECT_TRUE(plan.valid());
  EXPECT_EQ(stats.num_products, baselines::seq::spgemm_num_products(a, b));
  sparse::CsrD c;
  spgemm_numeric(dev, a, b, plan, c);
  const auto ref = baselines::seq::spgemm(a, b);
  EXPECT_TRUE(testing::bitwise_equal(c, ref));
  EXPECT_EQ(plan.output_nnz(), ref.nnz());
}

TEST(SpgemmPlan, NumericReusesPlanForNewValues) {
  // Same pattern, new values: the symbolic work must not be repeated and
  // the numbers must still be the reference's bits.
  vgpu::Device dev;
  util::Rng rng(203);
  auto a = coo_to_csr(random_coo(rng, 300, 300, 3000));
  SpgemmPlan plan;
  spgemm_symbolic(dev, a, a, plan);

  for (int iter = 0; iter < 3; ++iter) {
    // Perturb values only.
    auto a2 = a;
    for (auto& v : a2.val) v = rng.uniform_double(-3, 3);
    sparse::CsrD c;
    const double ms = spgemm_numeric(dev, a2, a2, plan, c);
    EXPECT_GT(ms, 0.0);
    const auto ref = baselines::seq::spgemm(a2, a2);
    ASSERT_TRUE(testing::bitwise_equal(c, ref)) << "iter " << iter;
  }
}

TEST(SpgemmPlan, NumericIsCheaperThanFull) {
  vgpu::Device dev;
  util::Rng rng(207);
  const auto a = coo_to_csr(random_coo(rng, 1500, 1500, 25000));
  SpgemmPlan plan;
  const auto symbolic_stats = spgemm_symbolic(dev, a, a, plan);
  sparse::CsrD c;
  const double numeric_ms = spgemm_numeric(dev, a, a, plan, c);
  sparse::CsrD c2;
  const auto full = core::merge::spgemm(dev, a, a, c2);
  EXPECT_LT(numeric_ms, 0.7 * full.modeled_ms());
  EXPECT_NEAR(numeric_ms + symbolic_stats.phases.total_ms(), full.modeled_ms(),
              0.05 * full.modeled_ms());
}

TEST(SpgemmPlan, EmptyProductsYieldEmptyOutput) {
  vgpu::Device dev;
  sparse::CooD left(10, 10);
  left.push_back(0, 5, 1.0);  // column 5 of A...
  sparse::CooD right(10, 10);
  right.push_back(3, 3, 1.0);  // ...but B row 5 is empty
  SpgemmPlan plan;
  const auto a = coo_to_csr(left);
  const auto b = coo_to_csr(right);
  const auto stats = spgemm_symbolic(dev, a, b, plan);
  EXPECT_EQ(stats.num_products, 0);
  sparse::CsrD c;
  spgemm_numeric(dev, a, b, plan, c);
  EXPECT_EQ(c.nnz(), 0);
  EXPECT_TRUE(c.is_valid());
}

TEST(SpgemmPlan, RejectsUnbuiltPlan) {
  vgpu::Device dev;
  const auto a = coo_to_csr(testing::paper_a());
  SpgemmPlan plan;
  sparse::CsrD c;
  EXPECT_THROW(spgemm_numeric(dev, a, a, plan, c), mps::PlanMismatchError);
}

TEST(SpgemmPlan, RejectsMismatchedStructure) {
  vgpu::Device dev;
  util::Rng rng(211);
  const auto a = coo_to_csr(random_coo(rng, 100, 100, 700));
  const auto other = coo_to_csr(random_coo(rng, 100, 100, 900));
  SpgemmPlan plan;
  spgemm_symbolic(dev, a, a, plan);
  sparse::CsrD c;
  EXPECT_THROW(spgemm_numeric(dev, other, other, plan, c), mps::PlanMismatchError);
}

// B's columns move but every row keeps its length, so each nonzero of A
// still expands to its planned product count: the numeric row pass
// catches the drift at the first product outside its row's pattern.
TEST(SpgemmPlan, RejectsColumnDriftWithSameProductCounts) {
  vgpu::Device dev;
  util::Rng rng(212);
  const auto a = coo_to_csr(random_coo(rng, 100, 100, 700));
  SpgemmPlan plan;
  spgemm_symbolic(dev, a, a, plan);
  auto b = a;
  for (std::size_t r = 0; r < static_cast<std::size_t>(b.num_rows); ++r) {
    const auto lo = b.col.begin() + b.row_offsets[r];
    const auto hi = b.col.begin() + b.row_offsets[r + 1];
    for (auto it = lo; it != hi; ++it) *it = (*it + 1) % b.num_cols;
    std::sort(lo, hi);
  }
  sparse::CsrD c;
  EXPECT_THROW(spgemm_numeric(dev, a, b, plan, c), mps::PlanMismatchError);
  EXPECT_EQ(c.nnz(), 0) << "c must be untouched";
}

// The same nonzeros, so every count check passes, but C's shape moved:
// A gains empty rows, or B gains columns.
TEST(SpgemmPlan, RejectsShapeDriftWithSameNonzeros) {
  vgpu::Device dev;
  util::Rng rng(214);
  const auto a = coo_to_csr(random_coo(rng, 100, 100, 700));
  SpgemmPlan plan;
  spgemm_symbolic(dev, a, a, plan);
  auto padded = a;
  padded.num_rows += 20;
  padded.row_offsets.resize(padded.row_offsets.size() + 20,
                            padded.row_offsets.back());
  ASSERT_TRUE(padded.is_valid());
  sparse::CsrD c;
  EXPECT_THROW(spgemm_numeric(dev, padded, a, plan, c), mps::PlanMismatchError);
  auto wide = a;
  wide.num_cols += 20;
  ASSERT_TRUE(wide.is_valid());
  EXPECT_THROW(spgemm_numeric(dev, a, wide, plan, c), mps::PlanMismatchError);
  EXPECT_EQ(c.nnz(), 0) << "c must be untouched";
}

TEST(SpgemmPlan, PlanHoldsDeviceMemoryUntilDestroyed) {
  vgpu::Device dev;
  util::Rng rng(213);
  const auto a = coo_to_csr(random_coo(rng, 500, 500, 6000));
  const std::size_t before = dev.memory().in_use();
  {
    SpgemmPlan plan;
    spgemm_symbolic(dev, a, a, plan);
    EXPECT_GT(dev.memory().in_use(), before);
  }
  EXPECT_EQ(dev.memory().in_use(), before);
}

TEST(SpgemmPlan, PaperExampleThroughPlanApi) {
  vgpu::Device dev;
  const auto a = coo_to_csr(testing::paper_a());
  const auto b = coo_to_csr(testing::paper_b());
  SpgemmPlan plan;
  const auto stats = spgemm_symbolic(dev, a, b, plan);
  EXPECT_EQ(stats.num_products, 11);
  EXPECT_EQ(plan.output_nnz(), 8);
  sparse::CsrD c;
  spgemm_numeric(dev, a, b, plan, c);
  const std::vector<double> expect{10,  0,   0, 0,    //
                                   120, 430, 0, 340,  //
                                   0,   300, 0, 350,  //
                                   0,   120, 0, 180};
  EXPECT_EQ(testing::dense_of(c), expect);
}

}  // namespace
}  // namespace mps

// Balanced-path SpAdd: correctness and the work-proportional cost property.
#include <gtest/gtest.h>

#include <utility>

#include "baselines/seq.hpp"
#include "core/spadd.hpp"
#include "oracle.hpp"
#include "spadd_cost.hpp"
#include "sparse/compare.hpp"
#include "sparse/convert.hpp"
#include "test_matrices.hpp"
#include "vgpu/device.hpp"
#include "workloads/generators.hpp"

namespace mps {
namespace {

using core::merge::spadd;
using sparse::coo_to_csr;
using sparse::csr_to_coo;
using testing::expect_spadd_matches;
using testing::random_coo;

TEST(MergeSpadd, PaperExampleAPlusB) {
  vgpu::Device dev;
  expect_spadd_matches(dev, testing::paper_a(), testing::paper_b());
}

TEST(MergeSpadd, APlusAEqualsTwoA) {
  // The evaluation's workload (Fig 7 computes A + A).
  vgpu::Device dev;
  util::Rng rng(41);
  const auto a = random_coo(rng, 500, 500, 5000);
  sparse::CooD c;
  spadd(dev, a, a, c);
  ASSERT_EQ(c.nnz(), a.nnz());
  for (index_t i = 0; i < c.nnz(); ++i) {
    ASSERT_DOUBLE_EQ(c.val[static_cast<std::size_t>(i)],
                     2 * a.val[static_cast<std::size_t>(i)]);
  }
}

class MergeSpaddShapes : public ::testing::TestWithParam<std::tuple<int, int, int, int>> {};

TEST_P(MergeSpaddShapes, MatchesSeq) {
  const auto [rows, cols, nnz_a, nnz_b] = GetParam();
  vgpu::Device dev;
  util::Rng rng(static_cast<std::uint64_t>(rows * 3 + nnz_a + nnz_b));
  expect_spadd_matches(
      dev, random_coo(rng, static_cast<index_t>(rows), static_cast<index_t>(cols), nnz_a),
      random_coo(rng, static_cast<index_t>(rows), static_cast<index_t>(cols), nnz_b));
}

INSTANTIATE_TEST_SUITE_P(
    Sweep, MergeSpaddShapes,
    ::testing::Values(std::make_tuple(1, 1, 1, 1), std::make_tuple(10, 10, 0, 20),
                      std::make_tuple(10, 10, 20, 0),
                      std::make_tuple(100, 100, 700, 900),
                      std::make_tuple(4000, 4000, 30000, 30000),
                      std::make_tuple(7, 100000, 5000, 5000),
                      std::make_tuple(100000, 7, 5000, 5000)));

TEST(MergeSpadd, DisjointAndIdenticalPatterns) {
  vgpu::Device dev;
  // Disjoint: A on even columns, B on odd — no matched tuples anywhere.
  sparse::CooD a(100, 100), b(100, 100);
  for (index_t r = 0; r < 100; ++r) {
    a.push_back(r, (2 * r) % 100, 1.0);
    b.push_back(r, (2 * r + 1) % 100, 2.0);
  }
  a.canonicalize();
  b.canonicalize();
  sparse::CooD c;
  spadd(dev, a, b, c);
  EXPECT_EQ(c.nnz(), a.nnz() + b.nnz());
  expect_spadd_matches(dev, a, b);
  // Identical pattern: every tuple matched.
  expect_spadd_matches(dev, a, a);
}

TEST(MergeSpadd, CancellationKeepsExplicitZeros) {
  // A + (-A) produces explicit zero entries (standard sparse semantics:
  // the pattern is the union, numerics may be zero).
  vgpu::Device dev;
  util::Rng rng(43);
  const auto a = random_coo(rng, 50, 50, 300);
  auto neg = a;
  for (auto& v : neg.val) v = -v;
  sparse::CooD c;
  spadd(dev, a, neg, c);
  ASSERT_EQ(c.nnz(), a.nnz());
  for (double v : c.val) EXPECT_DOUBLE_EQ(v, 0.0);
}

TEST(MergeSpadd, RejectsNonCanonicalInput) {
  vgpu::Device dev;
  sparse::CooD bad(4, 4);
  bad.push_back(1, 1, 1.0);
  bad.push_back(0, 0, 1.0);  // unsorted
  sparse::CooD c;
  EXPECT_THROW(spadd(dev, bad, bad, c), mps::InvalidInputError);

  // CSR: columns out of order, and a duplicate column, in row 1.
  const auto good = coo_to_csr(testing::paper_a());
  for (const bool duplicate : {false, true}) {
    sparse::CsrD bad_csr = good;
    const auto k = static_cast<std::size_t>(bad_csr.row_offsets[1]);
    ASSERT_GE(bad_csr.row_length(1), 2);
    if (duplicate) {
      bad_csr.col[k + 1] = bad_csr.col[k];
    } else {
      std::swap(bad_csr.col[k], bad_csr.col[k + 1]);
    }
    sparse::CsrD c_csr;
    EXPECT_THROW(core::merge::spadd_csr(dev, bad_csr, good, c_csr),
                 mps::InvalidInputError);
    EXPECT_THROW(core::merge::spadd_csr(dev, good, bad_csr, c_csr),
                 mps::InvalidInputError);
    EXPECT_THROW(core::merge::spadd_row_block(dev, good, bad_csr, 0, 2, c_csr),
                 mps::InvalidInputError);
  }
  EXPECT_EQ(dev.memory().in_use(), 0u);
}

TEST(MergeSpadd, CostTracksTotalWorkNotStructure) {
  // ρ ~ 1 claim (Fig 8): modeled ms per tuple is structure-independent.
  vgpu::Device dev;
  util::Rng rng(47);
  const auto uniform = random_coo(rng, 3000, 3000, 60000);
  const auto skewed = csr_to_coo(testing::random_powerlaw_csr(rng, 3000, 3000, 15.0));
  sparse::CooD c;
  const double t_uniform = spadd(dev, uniform, uniform, c).modeled_ms /
                           static_cast<double>(2 * uniform.nnz());
  const double t_skewed = spadd(dev, skewed, skewed, c).modeled_ms /
                          static_cast<double>(2 * skewed.nnz());
  const double ratio = t_skewed / t_uniform;
  EXPECT_GT(ratio, 0.8);
  EXPECT_LT(ratio, 1.25);
}

// ---------------------------------------------------------------------------
// The charge: every launch equals tests/spadd_cost.hpp's formula, built
// from naively enumerated fences and tile union counts.

TEST(SpaddCost, EveryLaunchMatchesTheFormula) {
  for (const auto r : testing::kAllRegimes) {
    SCOPED_TRACE(testing::regime_name(r));
    const auto a = testing::make_regime_matrix(r, 1);
    const auto b = testing::make_regime_matrix(r, 1001);
    testing::expect_spadd_cost(a, b);
    testing::expect_spadd_cost(a, a);  // every tuple matched
  }
}

TEST(SpaddCost, RowBlockIsChargedAsItsRows) {
  for (const auto r : testing::kAllRegimes) {
    SCOPED_TRACE(testing::regime_name(r));
    const auto a = testing::make_regime_matrix(r, 2);
    const auto b = testing::make_regime_matrix(r, 1002);
    testing::expect_spadd_cost(a, b, a.num_rows / 3, 2 * a.num_rows / 3);
  }
}

// ---------------------------------------------------------------------------
// spadd_row_block: flat first, whole-row chunks on DeviceOomError.

vgpu::Device clean_device(std::size_t mem_bytes = 0) {
  auto props = vgpu::gtx_titan();
  if (mem_bytes > 0) props.global_mem_bytes = mem_bytes;
  vgpu::Device dev(props);
  dev.fault_injector().disarm();
  return dev;
}

sparse::CsrD flat_sum(const sparse::CsrD& a, const sparse::CsrD& b) {
  auto dev = clean_device();
  sparse::CsrD c;
  core::merge::spadd_csr(dev, a, b, c);
  return c;
}

sparse::CsrD random_csr(std::uint64_t seed, index_t rows, index_t cols,
                        index_t nnz) {
  util::Rng rng(seed);
  return coo_to_csr(random_coo(rng, rows, cols, nnz));
}

TEST(RowBlockSpadd, AmpleMemoryRunsOneFlatBlock) {
  const auto a = random_csr(71, 1000, 1000, 10000);
  const auto b = random_csr(73, 1000, 1000, 10000);
  auto dev = clean_device();
  sparse::CsrD flat, c;
  const auto flat_stats = core::merge::spadd_csr(dev, a, b, flat);
  const auto stats = core::merge::spadd_row_block(dev, a, b, 0, a.num_rows, c);
  EXPECT_EQ(stats.num_chunks, 1);
  EXPECT_EQ(stats.modeled_ms, flat_stats.modeled_ms);
  EXPECT_TRUE(testing::bitwise_equal(c, flat));
  EXPECT_TRUE(testing::bitwise_equal(c, baselines::seq::spadd(a, b)));
}

// An interior block equals those rows of flat, charged as spadd_csr on
// the row slices (what the sharded SpAdd ran before it took row ranges).
TEST(RowBlockSpadd, InteriorBlockEqualsThoseRowsOfFlat) {
  const auto a = random_csr(79, 400, 400, 6000);
  const auto b = random_csr(83, 400, 400, 6000);
  const index_t r0 = 37;
  const index_t r1 = 361;
  auto dev = clean_device();
  sparse::CsrD c, c_slices;
  const auto stats = core::merge::spadd_row_block(dev, a, b, r0, r1, c);
  const auto slice_stats = core::merge::spadd_csr(
      dev, sparse::row_slice(a, r0, r1), sparse::row_slice(b, r0, r1), c_slices);
  EXPECT_EQ(stats.modeled_ms, slice_stats.modeled_ms);
  EXPECT_TRUE(testing::bitwise_equal(c, c_slices));
  EXPECT_TRUE(testing::bitwise_equal(c, sparse::row_slice(flat_sum(a, b), r0, r1)));
  // An empty row range is an empty block.
  core::merge::spadd_row_block(dev, a, b, r0, r0, c);
  EXPECT_EQ(c.num_rows, 0);
  EXPECT_EQ(c.nnz(), 0);
}

TEST(RowBlockSpadd, StepsDownUnderMemoryPressure) {
  const auto a = random_csr(89, 600, 600, 12000);
  const auto b = random_csr(97, 600, 600, 12000);
  auto small = clean_device(256 * 1024);
  sparse::CsrD c;
  EXPECT_THROW(core::merge::spadd_csr(small, a, b, c), vgpu::DeviceOomError);
  EXPECT_EQ(small.memory().in_use(), 0u);
  for (const auto& [r0, r1] : {std::pair<index_t, index_t>{0, a.num_rows},
                               std::pair<index_t, index_t>{37, 561}}) {
    const auto stats = core::merge::spadd_row_block(small, a, b, r0, r1, c);
    EXPECT_GT(stats.num_chunks, 1);
    EXPECT_EQ(small.memory().in_use(), 0u);
    EXPECT_TRUE(
        testing::bitwise_equal(c, sparse::row_slice(flat_sum(a, b), r0, r1)));
  }
}

TEST(RowBlockSpadd, InjectedOomStepsDown) {
  const auto a = random_csr(101, 300, 300, 3000);
  const auto b = random_csr(103, 300, 300, 3000);
  auto dev = clean_device();
  // The second reservation (the fences) fails, after the pack launch.
  dev.fault_injector().fail_at_allocation(2);
  sparse::CsrD c;
  const auto stats = core::merge::spadd_row_block(dev, a, b, 0, a.num_rows, c);
  EXPECT_EQ(dev.fault_injector().faults_injected(), 1);
  EXPECT_EQ(dev.memory().in_use(), 0u);
  sparse::CsrD flat;
  const auto flat_stats = core::merge::spadd_csr(dev, a, b, flat);
  // The failed attempt's pack launch is charged on top of the re-run.
  EXPECT_GT(stats.modeled_ms, flat_stats.modeled_ms);
  EXPECT_TRUE(testing::bitwise_equal(c, flat));
}

// One row that alone overflows the device is the one case the rule
// cannot cut further: the block throws and leaves nothing behind.
TEST(RowBlockSpadd, ThrowsWhenOneRowCannotFit) {
  const auto a = workloads::dense_block(64, 2048, 5);
  auto tiny = clean_device(16 * 1024);
  sparse::CsrD c(1, 1);
  EXPECT_THROW(core::merge::spadd_row_block(tiny, a, a, 0, a.num_rows, c),
               vgpu::DeviceOomError);
  EXPECT_EQ(tiny.memory().in_use(), 0u);
  EXPECT_EQ(c.num_rows, 1);
}

}  // namespace
}  // namespace mps

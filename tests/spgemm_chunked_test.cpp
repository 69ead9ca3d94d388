// Bounded-memory SpGEMM: the row-block memory-pressure rule
// (core::merge::spgemm_row_block runs flat, then steps down to whole-row
// chunks on DeviceOomError) and spgemm_chunked, which runs that rule over
// all of A or, with a forced budget, chunks from the start.  Every case
// is bitwise equal to flat on an unconstrained device.  Chunks are whole
// rows of A, so a single row whose expansion alone overflows the device
// still fails.
//
// Every device here has fault injection off: the cases are about the
// budget, and CI's fault steps run them with MPS_FAULT_* set.
#include <gtest/gtest.h>

#include "core/spgemm.hpp"
#include "oracle.hpp"
#include "sparse/convert.hpp"
#include "test_matrices.hpp"
#include "vgpu/device.hpp"
#include "workloads/generators.hpp"

namespace mps {
namespace {

using core::merge::ChunkedConfig;
using core::merge::spgemm_chunked;
using core::merge::spgemm_row_block;
using core::merge::spgemm_row_prefix;
using sparse::coo_to_csr;
using testing::bitwise_equal;
using testing::random_coo;

/// A device of `mem_bytes` (0: the default) with fault injection off.
vgpu::Device clean_device(std::size_t mem_bytes = 0) {
  auto props = vgpu::gtx_titan();
  if (mem_bytes > 0) props.global_mem_bytes = mem_bytes;
  vgpu::Device dev(props);
  dev.fault_injector().disarm();
  return dev;
}

/// C = A x B by flat merge on an unconstrained device: the ground truth.
sparse::CsrD flat_product(const sparse::CsrD& a, const sparse::CsrD& b) {
  auto dev = clean_device();
  sparse::CsrD c;
  core::merge::spgemm(dev, a, b, c);
  return c;
}

/// A random rows x cols matrix with about `nnz` nonzeros, seeded alone.
sparse::CsrD random_csr(std::uint64_t seed, index_t rows = 200,
                        index_t cols = 200, index_t nnz = 1400) {
  util::Rng rng(seed);
  return coo_to_csr(random_coo(rng, rows, cols, nnz));
}

/// Every kernel phase of `got` equals `want`'s exactly.
void expect_same_phases(const core::merge::SpgemmStats& got,
                        const core::merge::SpgemmStats& want) {
  EXPECT_EQ(got.num_products, want.num_products);
  EXPECT_EQ(got.phases.setup_ms, want.phases.setup_ms);
  EXPECT_EQ(got.phases.block_sort_ms, want.phases.block_sort_ms);
  EXPECT_EQ(got.phases.global_sort_ms, want.phases.global_sort_ms);
  EXPECT_EQ(got.phases.product_compute_ms, want.phases.product_compute_ms);
  EXPECT_EQ(got.phases.product_reduce_ms, want.phases.product_reduce_ms);
}

class ChunkedSpgemmBudgetTest : public ::testing::TestWithParam<std::size_t> {};

TEST_P(ChunkedSpgemmBudgetTest, MatchesFlatBitwiseAtEveryBudget) {
  util::Rng rng(701);
  const auto a = coo_to_csr(random_coo(rng, 300, 300, 3000));
  const auto flat = flat_product(a, a);
  auto dev = clean_device();
  ChunkedConfig cfg;
  cfg.chunk_bytes = GetParam();
  sparse::CsrD c;
  const auto stats = spgemm_chunked(dev, a, a, c, cfg);
  EXPECT_TRUE(bitwise_equal(c, flat)) << "chunk_bytes=" << GetParam();
  // About 30k products: 1.2 MB by chunked's 40 B/product estimate.
  if (GetParam() > 0 && GetParam() < (1u << 20)) {
    EXPECT_GT(stats.num_chunks, 1);
  } else {
    EXPECT_EQ(stats.num_chunks, 1);
  }
}

INSTANTIATE_TEST_SUITE_P(Budgets, ChunkedSpgemmBudgetTest,
                         ::testing::Values(std::size_t{0} /* auto */,
                                           std::size_t{32} << 10,
                                           std::size_t{128} << 10,
                                           std::size_t{512} << 10,
                                           std::size_t{1} << 30));

/// The paper's Dense failure mode: the flat intermediate of an n x n
/// dense block dwarfs a device of `mem_bytes`, yet every single row's
/// expansion fits, so chunked completes and matches flat on an
/// unconstrained device bit for bit.
void expect_dense_block_completes(index_t n, std::size_t mem_bytes) {
  auto dev = clean_device(mem_bytes);
  const auto a = workloads::dense_block(n, n, 5);
  sparse::CsrD c;
  EXPECT_THROW(core::merge::spgemm(dev, a, a, c), vgpu::DeviceOomError);
  const auto stats = spgemm_chunked(dev, a, a, c);
  EXPECT_GT(stats.num_chunks, 1);
  EXPECT_EQ(dev.memory().in_use(), 0u);
  EXPECT_TRUE(bitwise_equal(c, flat_product(a, a)));
}

TEST(ChunkedSpgemm, CompletesWhereFlatOoms) {
  expect_dense_block_completes(64, std::size_t{1} << 19);
}

TEST(ChunkedSpgemm, DenseBlockUnderMemoryPressure) {
  expect_dense_block_completes(96, std::size_t{1} << 20);
}

TEST(ChunkedSpgemm, SingleChunkEqualsFlatCost) {
  // One chunk is one flat run: every kernel phase is charged the same.
  // (other_ms also carries the stitched-C check under
  // MPS_INTEGRITY_CHECK, which flat does not run.)
  auto dev = clean_device();
  util::Rng rng(707);
  const auto a = coo_to_csr(random_coo(rng, 400, 400, 4000));
  sparse::CsrD flat, c;
  const auto flat_stats = core::merge::spgemm(dev, a, a, flat);
  ChunkedConfig cfg;
  cfg.chunk_bytes = std::size_t{1} << 30;
  const auto stats = spgemm_chunked(dev, a, a, c, cfg);
  EXPECT_EQ(stats.num_chunks, 1);
  expect_same_phases(stats, flat_stats);
  EXPECT_TRUE(bitwise_equal(c, flat));
}

TEST(ChunkedSpgemm, EmptyAndRectangular) {
  auto dev = clean_device();
  ChunkedConfig cfg;
  cfg.chunk_bytes = 8 << 10;
  const sparse::CsrD zero(20, 30);
  sparse::CsrD c;
  const auto stats = spgemm_chunked(dev, zero, sparse::CsrD(30, 10), c, cfg);
  EXPECT_EQ(stats.num_products, 0);
  EXPECT_EQ(c.num_rows, 20);
  EXPECT_EQ(c.num_cols, 10);
  EXPECT_EQ(c.nnz(), 0);

  util::Rng rng(709);
  const auto a = coo_to_csr(random_coo(rng, 100, 60, 800));
  const auto b = coo_to_csr(random_coo(rng, 60, 150, 900));
  const auto rect = spgemm_chunked(dev, a, b, c, cfg);
  EXPECT_GT(rect.num_chunks, 1);
  EXPECT_TRUE(bitwise_equal(c, flat_product(a, b)));
}

// A != B at a forced budget: every row block's products keep their
// global tile positions, so the stitched values match flat bit for bit.
TEST(ChunkedSpgemm, BitwiseIdenticalToFlat) {
  const auto a = random_csr(53, 300, 300, 2500);
  const auto b = random_csr(59, 300, 300, 2500);
  auto dev = clean_device();
  ChunkedConfig cfg;
  cfg.chunk_bytes = 48 * 1024;  // far below the flat footprint
  sparse::CsrD c;
  const auto stats = spgemm_chunked(dev, a, b, c, cfg);
  ASSERT_GT(stats.num_chunks, 1) << "budget did not force chunking";
  EXPECT_TRUE(bitwise_equal(c, flat_product(a, b)));
}

// The default budget is the memory-pressure rule over all of A: with
// room, it is one flat run, with no stitched-result check of its own.
TEST(ChunkedSpgemm, SingleChunkDegeneratesToFlat) {
  const auto a = random_csr(61);
  const auto b = random_csr(67);
  auto dev = clean_device();
  sparse::CsrD flat, c;
  const auto flat_stats = core::merge::spgemm(dev, a, b, flat);
  const auto stats = spgemm_chunked(dev, a, b, c);
  EXPECT_EQ(stats.num_chunks, 1);
  expect_same_phases(stats, flat_stats);
  EXPECT_EQ(stats.modeled_ms(), flat_stats.modeled_ms());
  EXPECT_TRUE(bitwise_equal(c, flat));
}

TEST(ChunkedSpgemm, CompletesWhereFlatOverflowsAndMatchesFlatBitwise) {
  const auto a = random_csr(71, 400, 400, 6000);
  const auto b = random_csr(73, 400, 400, 6000);
  auto small = clean_device(192 * 1024);
  EXPECT_EQ(small.memory().capacity(), 192u * 1024u)
      << "explicit capacities must survive MPS_FAULT_CAPACITY";
  sparse::CsrD c;
  EXPECT_THROW(core::merge::spgemm(small, a, b, c), vgpu::DeviceOomError);
  EXPECT_EQ(small.memory().in_use(), 0u);
  const auto stats = spgemm_chunked(small, a, b, c);
  EXPECT_GT(stats.num_chunks, 1);
  EXPECT_EQ(small.memory().in_use(), 0u);
  EXPECT_TRUE(bitwise_equal(c, flat_product(a, b)));
}

// ---------------------------------------------------------------------------
// spgemm_row_block: flat first, whole-row chunks on DeviceOomError.

TEST(RowBlockSpgemm, AmpleMemoryRunsOneFlatBlock) {
  const auto a = random_csr(71, 1000, 1000, 10000);
  auto dev = clean_device();
  sparse::CsrD flat, c;
  const auto flat_stats = core::merge::spgemm(dev, a, a, flat);
  const auto prefix = spgemm_row_prefix(a, a);
  const auto stats =
      spgemm_row_block(dev, a, a, prefix, 0, a.num_rows, c);
  EXPECT_EQ(stats.num_chunks, 1);
  expect_same_phases(stats, flat_stats);
  EXPECT_EQ(stats.modeled_ms(), flat_stats.modeled_ms());
  EXPECT_TRUE(bitwise_equal(c, flat));
}

TEST(RowBlockSpgemm, StepsDownUnderMemoryPressure) {
  const auto a = random_csr(79, 600, 600, 6000);
  auto dev = clean_device(std::size_t{1} << 18);
  sparse::CsrD c;
  EXPECT_THROW(core::merge::spgemm(dev, a, a, c), vgpu::DeviceOomError);
  const auto stats =
      spgemm_row_block(dev, a, a, spgemm_row_prefix(a, a), 0, a.num_rows, c);
  EXPECT_GT(stats.num_chunks, 1);
  EXPECT_EQ(dev.memory().in_use(), 0u);
  EXPECT_TRUE(bitwise_equal(c, flat_product(a, a)));
}

// A block that is not all of A steps down inside its own rows: each chunk
// keeps its global tile origin, so the block equals those rows of flat.
TEST(RowBlockSpgemm, StepsDownInsideAnInteriorBlock) {
  const auto a = random_csr(79, 400, 400, 6000);
  const auto b = random_csr(83, 400, 400, 6000);
  const index_t r0 = 37;
  const index_t r1 = 361;
  const auto prefix = spgemm_row_prefix(a, b);
  auto small = clean_device(192 * 1024);
  const auto slice = sparse::row_slice(a, r0, r1);
  sparse::CsrD c;
  EXPECT_THROW(core::merge::spgemm(small, slice, b, c), vgpu::DeviceOomError);
  const auto stats = spgemm_row_block(small, a, b, prefix, r0, r1, c);
  EXPECT_GT(stats.num_chunks, 1);
  EXPECT_EQ(small.memory().in_use(), 0u);
  EXPECT_EQ(stats.num_products,
            static_cast<long long>(prefix[r1] - prefix[r0]));
  EXPECT_TRUE(bitwise_equal(c, sparse::row_slice(flat_product(a, b), r0, r1)));
}

TEST(RowBlockSpgemm, InjectedOomStepsDown) {
  const auto a = random_csr(89);
  const auto b = random_csr(97);
  auto dev = clean_device();
  dev.fault_injector().fail_at_allocation(1);  // fires once, then disarms
  sparse::CsrD c;
  const auto stats =
      spgemm_row_block(dev, a, b, spgemm_row_prefix(a, b), 0, a.num_rows, c);
  EXPECT_EQ(dev.fault_injector().faults_injected(), 1);
  EXPECT_EQ(dev.memory().in_use(), 0u);
  sparse::CsrD flat;
  const auto flat_stats = core::merge::spgemm(dev, a, b, flat);
  // The failed attempt's launches are charged on top of the re-run.
  EXPECT_GT(stats.modeled_ms(), flat_stats.modeled_ms());
  EXPECT_TRUE(bitwise_equal(c, flat));
}

// One row whose expansion alone overflows the device is the one case the
// rule cannot cut further: the block throws and leaves nothing behind.
TEST(RowBlockSpgemm, ThrowsWhenOneRowCannotFit) {
  const auto a = workloads::dense_block(64, 64, 5);
  auto tiny = clean_device(16 * 1024);
  sparse::CsrD c(1, 1);
  c.row_offsets = {0, 0};
  EXPECT_THROW(
      spgemm_row_block(tiny, a, a, spgemm_row_prefix(a, a), 0, a.num_rows, c),
      vgpu::DeviceOomError);
  EXPECT_EQ(tiny.memory().in_use(), 0u);
  EXPECT_EQ(c.num_rows, 1);
}

}  // namespace
}  // namespace mps

// Chunked SpGEMM, the one bounded-memory SpGEMM: bitwise equality with
// flat at every chunk budget, and completing instances whose flat
// intermediate cannot fit.  Chunks are whole rows of A, so a single row
// whose expansion alone overflows the device still fails.
//
// Every device here has fault injection off: the cases are about the
// budget, and CI's fault steps run them with MPS_FAULT_* set.
#include <gtest/gtest.h>

#include "core/spgemm.hpp"
#include "core/spgemm_chunked.hpp"
#include "oracle.hpp"
#include "sparse/convert.hpp"
#include "test_matrices.hpp"
#include "vgpu/device.hpp"
#include "workloads/generators.hpp"

namespace mps {
namespace {

using core::merge::ChunkedConfig;
using core::merge::spgemm_chunked;
using sparse::coo_to_csr;
using testing::bitwise_equal;
using testing::random_coo;

/// C = A x B by flat merge on an unconstrained device: the ground truth.
sparse::CsrD flat_product(const sparse::CsrD& a, const sparse::CsrD& b) {
  vgpu::Device dev;
  dev.fault_injector().disarm();
  sparse::CsrD c;
  core::merge::spgemm(dev, a, b, c);
  return c;
}

class ChunkedSpgemmBudgetTest : public ::testing::TestWithParam<std::size_t> {};

TEST_P(ChunkedSpgemmBudgetTest, MatchesFlatBitwiseAtEveryBudget) {
  util::Rng rng(701);
  const auto a = coo_to_csr(random_coo(rng, 300, 300, 3000));
  const auto flat = flat_product(a, a);
  vgpu::Device dev;
  dev.fault_injector().disarm();
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
  auto props = vgpu::gtx_titan();
  props.global_mem_bytes = mem_bytes;
  vgpu::Device dev(props);
  dev.fault_injector().disarm();
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
  vgpu::Device dev;
  dev.fault_injector().disarm();
  util::Rng rng(707);
  const auto a = coo_to_csr(random_coo(rng, 400, 400, 4000));
  sparse::CsrD flat, c;
  const auto flat_stats = core::merge::spgemm(dev, a, a, flat);
  ChunkedConfig cfg;
  cfg.chunk_bytes = std::size_t{1} << 30;
  const auto stats = spgemm_chunked(dev, a, a, c, cfg);
  EXPECT_EQ(stats.num_chunks, 1);
  EXPECT_EQ(stats.num_products, flat_stats.num_products);
  EXPECT_EQ(stats.phases.setup_ms, flat_stats.phases.setup_ms);
  EXPECT_EQ(stats.phases.block_sort_ms, flat_stats.phases.block_sort_ms);
  EXPECT_EQ(stats.phases.global_sort_ms, flat_stats.phases.global_sort_ms);
  EXPECT_EQ(stats.phases.product_compute_ms,
            flat_stats.phases.product_compute_ms);
  EXPECT_EQ(stats.phases.product_reduce_ms,
            flat_stats.phases.product_reduce_ms);
  EXPECT_TRUE(bitwise_equal(c, flat));
}

TEST(ChunkedSpgemm, EmptyAndRectangular) {
  vgpu::Device dev;
  dev.fault_injector().disarm();
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

}  // namespace
}  // namespace mps

// Cross-kernel integration and algebraic-identity property tests: the
// kernels must agree with each other under the identities of linear
// algebra, not just each against the sequential reference.
#include <gtest/gtest.h>

#include <vector>

#include "baselines/cusplike.hpp"
#include "baselines/seq.hpp"
#include "core/spadd.hpp"
#include "core/spgemm.hpp"
#include "core/spmv.hpp"
#include "oracle.hpp"
#include "primitives/segmented_reduce.hpp"
#include "sparse/compare.hpp"
#include "sparse/convert.hpp"
#include "sparse/ops.hpp"
#include "test_matrices.hpp"
#include "vgpu/device.hpp"
#include "workloads/generators.hpp"

namespace mps {
namespace {

using sparse::coo_to_csr;
using sparse::csr_to_coo;
using testing::random_coo;

std::vector<double> random_vec(util::Rng& rng, std::size_t n) {
  std::vector<double> v(n);
  for (auto& x : v) x = rng.uniform_double(-1, 1);
  return v;
}

TEST(Integration, DistributivityOfSpmvOverSpadd) {
  // (A + B) x == A x + B x, all through merge kernels.
  vgpu::Device dev;
  util::Rng rng(101);
  const auto a = random_coo(rng, 400, 300, 3000);
  const auto b = random_coo(rng, 400, 300, 2500);
  const auto x = random_vec(rng, 300);

  sparse::CooD sum;
  core::merge::spadd(dev, a, b, sum);
  std::vector<double> lhs(400);
  core::merge::spmv(dev, coo_to_csr(sum), x, lhs);

  std::vector<double> ya(400), yb(400);
  core::merge::spmv(dev, coo_to_csr(a), x, ya);
  core::merge::spmv(dev, coo_to_csr(b), x, yb);
  for (std::size_t i = 0; i < lhs.size(); ++i) {
    ASSERT_NEAR(lhs[i], ya[i] + yb[i], 1e-10);
  }
}

TEST(Integration, AssociativityOfSpgemmWithSpmv) {
  // (A B) x == A (B x), merge SpGEMM against two merge SpMVs.
  vgpu::Device dev;
  util::Rng rng(103);
  const auto a = coo_to_csr(random_coo(rng, 150, 200, 2000));
  const auto b = coo_to_csr(random_coo(rng, 200, 120, 1800));
  const auto x = random_vec(rng, 120);

  sparse::CsrD ab;
  core::merge::spgemm(dev, a, b, ab);
  std::vector<double> lhs(150);
  core::merge::spmv(dev, ab, x, lhs);

  std::vector<double> bx(200), rhs(150);
  core::merge::spmv(dev, b, x, bx);
  core::merge::spmv(dev, a, bx, rhs);
  for (std::size_t i = 0; i < lhs.size(); ++i) {
    ASSERT_NEAR(lhs[i], rhs[i], 1e-9);
  }
}

TEST(Integration, SpgemmAssociativityAcrossSchemes) {
  // (A B) C == A (B C), mixing merge and cusp-like SpGEMM.
  vgpu::Device dev;
  util::Rng rng(107);
  const auto a = coo_to_csr(random_coo(rng, 60, 70, 600));
  const auto b = coo_to_csr(random_coo(rng, 70, 50, 500));
  const auto c = coo_to_csr(random_coo(rng, 50, 40, 400));

  sparse::CsrD ab, abc_left, bc, abc_right;
  core::merge::spgemm(dev, a, b, ab);
  baselines::cusplike::spgemm(dev, ab, c, abc_left);
  baselines::cusplike::spgemm(dev, b, c, bc);
  core::merge::spgemm(dev, a, bc, abc_right);

  // Patterns can differ by explicit zeros; compare densely.
  const auto dl = testing::dense_of(abc_left);
  const auto dr = testing::dense_of(abc_right);
  ASSERT_EQ(dl.size(), dr.size());
  for (std::size_t i = 0; i < dl.size(); ++i) ASSERT_NEAR(dl[i], dr[i], 1e-9);
}

TEST(Integration, TransposeSpmvIdentity) {
  // y^T (A x) == x^T (A^T y).
  vgpu::Device dev;
  util::Rng rng(109);
  const auto a = coo_to_csr(random_coo(rng, 250, 180, 2200));
  const auto at = sparse::transpose(a);
  const auto x = random_vec(rng, 180);
  const auto yv = random_vec(rng, 250);

  std::vector<double> ax(250), aty(180);
  core::merge::spmv(dev, a, x, ax);
  core::merge::spmv(dev, at, yv, aty);
  double lhs = 0, rhs = 0;
  for (std::size_t i = 0; i < ax.size(); ++i) lhs += yv[i] * ax[i];
  for (std::size_t i = 0; i < aty.size(); ++i) rhs += x[i] * aty[i];
  EXPECT_NEAR(lhs, rhs, 1e-9 * std::abs(lhs) + 1e-10);
}

TEST(Integration, CooSpmvMatchesCsrMerge) {
  vgpu::Device dev;
  util::Rng rng(113);
  for (int trial = 0; trial < 10; ++trial) {
    const auto coo = random_coo(rng, 500, 400, static_cast<int>(rng.uniform(8000)) + 1);
    const auto csr = coo_to_csr(coo);
    const auto x = random_vec(rng, 400);
    std::vector<double> y1(500), y2(500);
    core::merge::spmv(dev, csr, x, y1);
    baselines::cusplike::spmv_coo(dev, coo, x, y2);
    for (std::size_t i = 0; i < y1.size(); ++i) ASSERT_NEAR(y1[i], y2[i], 1e-11);
  }
}

TEST(Integration, CooSpmvSingleGiantRowCarryChain) {
  vgpu::Device dev;
  sparse::CooD a(2, 40000);
  util::Rng rng(127);
  for (index_t c = 0; c < 40000; ++c) a.push_back(0, c, rng.uniform_double(-1, 1));
  a.canonicalize();
  const auto x = random_vec(rng, 40000);
  std::vector<double> y(2, -1), y_ref(2, -1);
  baselines::seq::spmv(coo_to_csr(a), x, y_ref);
  baselines::cusplike::spmv_coo(dev, a, x, y);
  EXPECT_NEAR(y[0], y_ref[0], 1e-9);
  EXPECT_EQ(y[1], 0.0);
}

TEST(Integration, CooSpmvPaysRowIndexTraffic) {
  // The paper's III-A storage argument: COO moves one extra row index per
  // nonzero, so its *marginal* modeled cost per nonzero strictly exceeds
  // CSR merge SpMV's (fixed launch overheads cancel in the slope).
  vgpu::Device dev;
  util::Rng rng(131);
  const auto small = random_coo(rng, 5000, 5000, 100000);
  const auto big = random_coo(rng, 20000, 5000, 800000);
  const auto x = random_vec(rng, 5000);
  auto slope = [&](auto&& run) {
    const double t0 = run(small);
    const double t1 = run(big);
    return (t1 - t0) /
           static_cast<double>(big.nnz() - small.nnz());
  };
  const double csr_slope = slope([&](const sparse::CooD& m) {
    std::vector<double> y(static_cast<std::size_t>(m.num_rows));
    return core::merge::spmv(dev, coo_to_csr(m), x, y).modeled_ms();
  });
  const double coo_slope = slope([&](const sparse::CooD& m) {
    std::vector<double> y(static_cast<std::size_t>(m.num_rows));
    return baselines::cusplike::spmv_coo(dev, m, x, y).modeled_ms;
  });
  EXPECT_GT(coo_slope, csr_slope);
}

TEST(Integration, SegmentedReduceMatchesRowSums) {
  // device_segmented_reduce over a CSR matrix's values = row sums = A * 1.
  vgpu::Device dev;
  util::Rng rng(137);
  const auto a = coo_to_csr(random_coo(rng, 3000, 100, 40000));
  std::vector<double> sums(3000), expect(3000);
  primitives::device_segmented_reduce<double>(
      dev, a.row_offsets, a.val, std::span<double>(sums));
  const std::vector<double> ones(100, 1.0);
  baselines::seq::spmv(a, ones, expect);
  for (std::size_t i = 0; i < sums.size(); ++i) {
    ASSERT_NEAR(sums[i], expect[i], 1e-10);
  }
}

TEST(Integration, SegmentedReduceEmptySegments) {
  vgpu::Device dev;
  const std::vector<index_t> offsets{0, 0, 3, 3, 5, 5};
  const std::vector<double> values{1, 2, 3, 4, 5};
  std::vector<double> out(5, -1);
  primitives::device_segmented_reduce<double>(dev, offsets, values, std::span<double>(out));
  EXPECT_EQ(out, (std::vector<double>{0, 6, 0, 9, 0}));
}

TEST(Integration, SegmentedReduceSingleSegmentSpanningManyTiles) {
  vgpu::Device dev;
  const std::size_t n = 50000;
  std::vector<index_t> offsets{0, static_cast<index_t>(n)};
  std::vector<double> values(n, 0.5);
  std::vector<double> out(1);
  primitives::device_segmented_reduce<double>(dev, offsets, values, std::span<double>(out));
  EXPECT_NEAR(out[0], 0.5 * static_cast<double>(n), 1e-9);
}

TEST(Integration, GalerkinTripleProductAllSchemesAgree) {
  // R*A*P through merge, cusp-like and the sequential reference.
  vgpu::Device dev;
  const auto a = workloads::poisson2d(24, 24);
  util::Rng rng(139);
  const auto p = coo_to_csr(random_coo(rng, 576, 80, 1200));
  const auto r = sparse::transpose(p);

  sparse::CsrD m1, m2, out_merge, out_cusp;
  core::merge::spgemm(dev, r, a, m1);
  core::merge::spgemm(dev, m1, p, out_merge);
  baselines::cusplike::spgemm(dev, r, a, m2);
  baselines::cusplike::spgemm(dev, m2, p, out_cusp);
  const auto ref = baselines::seq::spgemm(baselines::seq::spgemm(r, a), p);
  EXPECT_TRUE(testing::bitwise_equal(out_merge, ref));
  EXPECT_TRUE(sparse::compare_csr(out_cusp, ref, 1e-8, 1e-10).equal);
}

TEST(Integration, DeviceMemoryReturnsToBaselineAfterOps) {
  vgpu::Device dev;
  util::Rng rng(149);
  const auto a = coo_to_csr(random_coo(rng, 500, 500, 5000));
  const std::size_t baseline = dev.memory().in_use();
  sparse::CsrD c;
  core::merge::spgemm(dev, a, a, c);
  EXPECT_EQ(dev.memory().in_use(), baseline);
  EXPECT_GT(dev.memory().peak(), baseline);
  std::vector<double> x(500, 1.0), y(500);
  core::merge::spmv(dev, a, x, y);
  EXPECT_EQ(dev.memory().in_use(), baseline);
}

}  // namespace
}  // namespace mps

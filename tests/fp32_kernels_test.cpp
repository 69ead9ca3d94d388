// Single-precision variants of the merge kernels: correctness against
// double-precision references within fp32 tolerance, and the bandwidth
// advantage of the narrower value type.
#include <gtest/gtest.h>

#include <vector>

#include "core/spadd.hpp"
#include "core/spmm.hpp"
#include "core/spmv.hpp"
#include "sparse/convert.hpp"
#include "test_matrices.hpp"
#include "vgpu/device.hpp"

namespace mps {
namespace {

using sparse::coo_to_csr;
using testing::random_coo;
using testing::to_float;

sparse::CooMatrix<float> to_float(const sparse::CooD& a) {
  sparse::CooMatrix<float> f(a.num_rows, a.num_cols);
  f.row = a.row;
  f.col = a.col;
  f.val.assign(a.val.begin(), a.val.end());
  return f;
}

TEST(Fp32, SpmvMatchesDoubleWithinTolerance) {
  vgpu::Device dev;
  util::Rng rng(601);
  for (int trial = 0; trial < 8; ++trial) {
    const auto coo = random_coo(rng, 600, 500, 6000);
    const auto a = coo_to_csr(coo);
    const auto af = to_float(a);
    std::vector<double> x(500), y(600);
    std::vector<float> xf(500), yf(600);
    for (std::size_t i = 0; i < x.size(); ++i) {
      x[i] = rng.uniform_double(-1, 1);
      xf[i] = static_cast<float>(x[i]);
    }
    core::merge::spmv(dev, a, x, y);
    core::merge::spmv(dev, af, xf, yf);
    for (std::size_t i = 0; i < y.size(); ++i) {
      ASSERT_NEAR(static_cast<double>(yf[i]), y[i], 1e-3) << i;
    }
  }
}

TEST(Fp32, SpmvIsCheaperThanFp64) {
  // Half the value bytes move: the bandwidth-bound kernel gets faster.
  vgpu::Device dev;
  util::Rng rng(603);
  const auto a = coo_to_csr(random_coo(rng, 8000, 8000, 200000));
  const auto af = to_float(a);
  std::vector<double> x(8000, 1.0), y(8000);
  std::vector<float> xf(8000, 1.0f), yf(8000);
  const double t64 = core::merge::spmv(dev, a, x, y).modeled_ms();
  const double t32 = core::merge::spmv(dev, af, xf, yf).modeled_ms();
  // The saving is bounded: only the streamed value bytes halve, while the
  // x-gather sectors are type-independent (a cache line is a cache line).
  EXPECT_LT(t32, 0.98 * t64);
  EXPECT_GT(t32, 0.4 * t64);
}

TEST(Fp32, SpaddMatchesDouble) {
  vgpu::Device dev;
  util::Rng rng(605);
  const auto a = random_coo(rng, 300, 300, 2500);
  const auto b = random_coo(rng, 300, 300, 2000);
  sparse::CooD c;
  core::merge::spadd(dev, a, b, c);
  sparse::CooMatrix<float> cf;
  core::merge::spadd(dev, to_float(a), to_float(b), cf);
  ASSERT_EQ(cf.nnz(), c.nnz());
  for (index_t i = 0; i < c.nnz(); ++i) {
    ASSERT_EQ(cf.row[static_cast<std::size_t>(i)], c.row[static_cast<std::size_t>(i)]);
    ASSERT_EQ(cf.col[static_cast<std::size_t>(i)], c.col[static_cast<std::size_t>(i)]);
    ASSERT_NEAR(static_cast<double>(cf.val[static_cast<std::size_t>(i)]),
                c.val[static_cast<std::size_t>(i)], 1e-4);
  }
}

TEST(Fp32, SpmmMatchesDouble) {
  vgpu::Device dev;
  util::Rng rng(607);
  const auto a = coo_to_csr(random_coo(rng, 400, 300, 4000));
  const auto af = to_float(a);
  const index_t nv = 4;
  std::vector<double> x(300 * nv), y(400 * nv);
  std::vector<float> xf(x.size()), yf(y.size());
  for (std::size_t i = 0; i < x.size(); ++i) {
    x[i] = rng.uniform_double(-1, 1);
    xf[i] = static_cast<float>(x[i]);
  }
  core::merge::spmm(dev, a, x, nv, y);
  core::merge::spmm(dev, af, xf, nv, yf);
  for (std::size_t i = 0; i < y.size(); ++i) {
    ASSERT_NEAR(static_cast<double>(yf[i]), y[i], 1e-3);
  }
}

TEST(Fp32, FloatCsrValidity) {
  util::Rng rng(609);
  const auto af = to_float(coo_to_csr(random_coo(rng, 100, 100, 700)));
  EXPECT_TRUE(af.is_valid());
  EXPECT_EQ(af.device_bytes(),
            af.row_offsets.size() * sizeof(index_t) +
                af.col.size() * (sizeof(index_t) + sizeof(float)));
}

}  // namespace
}  // namespace mps

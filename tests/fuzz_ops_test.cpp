// Randomized cross-product fuzz: every (kernel family x scheme) pair over
// a seeded grid of structural regimes — uniform, banded, power-law,
// hypersparse, near-dense, rectangular — validated against the sequential
// references.  These sweeps are the broad safety net behind the targeted
// suites.
#include <gtest/gtest.h>

#include <vector>

#include "baselines/cusplike.hpp"
#include "baselines/rowwise.hpp"
#include "baselines/seq.hpp"
#include "core/spadd.hpp"
#include "core/spgemm.hpp"
#include "core/spgemm_chunked.hpp"
#include "core/spmv.hpp"
#include "oracle.hpp"
#include "sparse/compare.hpp"
#include "sparse/convert.hpp"
#include "test_matrices.hpp"
#include "vgpu/device.hpp"

namespace mps {
namespace {

using sparse::coo_to_csr;
using sparse::CsrD;

using testing::kAllRegimes;
using testing::kFuzzSeeds;
using testing::make_regime_matrix;
using testing::Regime;
using testing::regime_name;

class FuzzTest
    : public ::testing::TestWithParam<std::tuple<Regime, std::uint64_t>> {
 protected:
  vgpu::Device dev_;
};

TEST_P(FuzzTest, AllSpmvSchemesAgree) {
  const auto [regime, seed] = GetParam();
  const auto a = make_regime_matrix(regime, seed);
  util::Rng rng(seed * 7 + 1);
  std::vector<double> x(static_cast<std::size_t>(a.num_cols));
  for (auto& v : x) v = rng.uniform_double(-1, 1);
  std::vector<double> ref(static_cast<std::size_t>(a.num_rows));
  baselines::seq::spmv(a, x, ref);
  std::vector<double> y(ref.size());

  core::merge::spmv(dev_, a, x, y);
  for (std::size_t i = 0; i < y.size(); ++i)
    ASSERT_NEAR(y[i], ref[i], 1e-10) << regime_name(regime) << " merge row " << i;
  baselines::cusplike::spmv(dev_, a, x, y);
  for (std::size_t i = 0; i < y.size(); ++i)
    ASSERT_NEAR(y[i], ref[i], 1e-10) << regime_name(regime) << " cusp row " << i;
  baselines::rowwise::spmv(dev_, a, x, y);
  for (std::size_t i = 0; i < y.size(); ++i)
    ASSERT_NEAR(y[i], ref[i], 1e-10) << regime_name(regime) << " rowwise row " << i;
  baselines::cusplike::spmv_coo(dev_, sparse::csr_to_coo(a), x, y);
  for (std::size_t i = 0; i < y.size(); ++i)
    ASSERT_NEAR(y[i], ref[i], 1e-10) << regime_name(regime) << " coo row " << i;
}

TEST_P(FuzzTest, AllSpaddSchemesAgree) {
  const auto [regime, seed] = GetParam();
  const auto a = make_regime_matrix(regime, seed);
  const auto b = make_regime_matrix(regime, seed + 1000);
  const auto ref = baselines::seq::spadd(a, b);
  const auto a_coo = sparse::csr_to_coo(a);
  const auto b_coo = sparse::csr_to_coo(b);

  sparse::CooD c_merge;
  core::merge::spadd(dev_, a_coo, b_coo, c_merge);
  EXPECT_TRUE(sparse::compare_csr(coo_to_csr(c_merge), ref).equal)
      << regime_name(regime) << " merge";
  sparse::CooD c_cusp;
  baselines::cusplike::spadd(dev_, a_coo, b_coo, c_cusp);
  EXPECT_TRUE(sparse::compare_csr(coo_to_csr(c_cusp), ref).equal)
      << regime_name(regime) << " cusp";
  CsrD c_row;
  baselines::rowwise::spadd(dev_, a, b, c_row);
  EXPECT_TRUE(sparse::compare_csr(c_row, ref).equal)
      << regime_name(regime) << " rowwise";
}

TEST_P(FuzzTest, AllSpgemmSchemesAgree) {
  const auto [regime, seed] = GetParam();
  const auto a = make_regime_matrix(regime, seed);
  const auto b = sparse::transpose(make_regime_matrix(regime, seed + 2000));
  ASSERT_EQ(a.num_cols, b.num_rows);
  const auto ref = baselines::seq::spgemm(a, b);

  CsrD flat;
  core::merge::spgemm(dev_, a, b, flat);
  EXPECT_TRUE(sparse::compare_csr(flat, ref, 1e-9, 1e-11).equal)
      << regime_name(regime) << " merge";
  CsrD c;
  baselines::cusplike::spgemm(dev_, a, b, c);
  EXPECT_TRUE(sparse::compare_csr(c, ref, 1e-9, 1e-11).equal)
      << regime_name(regime) << " cusp";
  baselines::rowwise::spgemm(dev_, a, b, c);
  EXPECT_TRUE(sparse::compare_csr(c, ref, 1e-9, 1e-11).equal)
      << regime_name(regime) << " rowwise";

  // Chunked at a third of its own whole-matrix footprint estimate (40 B
  // per product + 16 B per nonzero, over a 4 KiB floor) runs several
  // chunks and must still reproduce flat merge bit for bit.
  core::merge::ChunkedConfig chunked;
  chunked.chunk_bytes = static_cast<std::size_t>(
      (40 * baselines::seq::spgemm_num_products(a, b) + 16 * a.nnz()) / 3 +
      4096);
  const auto st = core::merge::spgemm_chunked(dev_, a, b, c, chunked);
  EXPECT_GE(st.num_chunks, 2) << regime_name(regime) << " chunked";
  EXPECT_TRUE(testing::bitwise_equal(c, flat))
      << regime_name(regime) << " chunked";
}

INSTANTIATE_TEST_SUITE_P(
    Grid, FuzzTest,
    ::testing::Combine(::testing::ValuesIn(kAllRegimes),
                       ::testing::ValuesIn(kFuzzSeeds)),
    [](const ::testing::TestParamInfo<std::tuple<Regime, std::uint64_t>>& p) {
      return regime_name(std::get<0>(p.param)) +
             std::to_string(std::get<1>(p.param));
    });

}  // namespace
}  // namespace mps

#pragma once
// Shared differential-oracle helpers: every "run op, compare against the
// sequential baseline" assertion the merge suites (and the autotune /
// CMRS suites) make, in one place.
//
// The oracle contract: for a given matrix the sequential reference
// defines THE answer; a parallel scheme passes by matching it —
// elementwise within 1e-11 for SpMV (expect_spmv_matches), structurally
// canonical + value-compared for SpAdd, bit for bit for SpGEMM.  The fuzz regimes
// enumerate the structural extremes (uniform, banded, power-law,
// hypersparse, near-dense, rectangular) every sweep in this repo probes.
#include <gtest/gtest.h>

#include <cstring>
#include <span>
#include <string>
#include <tuple>
#include <vector>

#include "baselines/seq.hpp"
#include "core/spadd.hpp"
#include "core/spgemm.hpp"
#include "core/spmv.hpp"
#include "sparse/compare.hpp"
#include "sparse/convert.hpp"
#include "test_matrices.hpp"
#include "vgpu/device.hpp"
#include "workloads/generators.hpp"

namespace mps::testing {

/// Bitwise equality of two double vectors (NaN-safe, sign-of-zero
/// sensitive) — the assertion behind every "schemes agree exactly"
/// claim.
inline ::testing::AssertionResult bitwise_equal(
    const std::vector<double>& a, const std::vector<double>& b) {
  if (a.size() != b.size()) {
    return ::testing::AssertionFailure()
           << "size " << a.size() << " vs " << b.size();
  }
  if (sparse::same_bits(std::span<const double>(a),
                        std::span<const double>(b))) {
    return ::testing::AssertionSuccess();
  }
  std::size_t i = 0;
  while (std::memcmp(&a[i], &b[i], sizeof(double)) == 0) ++i;
  return ::testing::AssertionFailure()
         << "first divergence at [" << i << "]: " << a[i] << " vs " << b[i];
}

/// Bitwise equality of two CSR matrices: same shape, row offsets and
/// columns, and values equal bit for bit.
inline ::testing::AssertionResult bitwise_equal(const sparse::CsrD& a,
                                                const sparse::CsrD& b) {
  if (sparse::same_bits(a, b)) return ::testing::AssertionSuccess();
  if (a.num_rows != b.num_rows || a.num_cols != b.num_cols) {
    return ::testing::AssertionFailure()
           << "shape " << a.num_rows << "x" << a.num_cols << " vs "
           << b.num_rows << "x" << b.num_cols;
  }
  if (a.row_offsets != b.row_offsets) {
    return ::testing::AssertionFailure() << "row offsets differ";
  }
  if (a.col != b.col) return ::testing::AssertionFailure() << "columns differ";
  return bitwise_equal(a.val, b.val);
}

/// Merge SpMV vs. the sequential reference on a deterministic random x
/// (seeded from the matrix): elementwise within 1e-11.
inline void expect_spmv_matches(vgpu::Device& dev, const sparse::CsrD& a,
                                const core::merge::SpmvConfig& cfg = {}) {
  util::Rng rng(static_cast<std::uint64_t>(a.nnz()) + 7);
  std::vector<double> x(static_cast<std::size_t>(a.num_cols));
  for (auto& v : x) v = rng.uniform_double(-1, 1);
  std::vector<double> y_ref(static_cast<std::size_t>(a.num_rows), -999.0);
  std::vector<double> y(static_cast<std::size_t>(a.num_rows), -999.0);
  baselines::seq::spmv(a, x, y_ref);
  const auto stats = core::merge::spmv(dev, a, x, y, cfg);
  EXPECT_GE(stats.modeled_ms(), 0.0);
  for (std::size_t i = 0; i < y.size(); ++i) {
    ASSERT_NEAR(y[i], y_ref[i], 1e-11) << "row " << i;
  }
}

/// Merge SpAdd vs. the sequential reference: canonical output, equal
/// structure and values.
inline void expect_spadd_matches(vgpu::Device& dev, const sparse::CooD& a,
                                 const sparse::CooD& b) {
  const auto ref =
      baselines::seq::spadd(sparse::coo_to_csr(a), sparse::coo_to_csr(b));
  sparse::CooD c;
  const auto stats = core::merge::spadd(dev, a, b, c);
  EXPECT_GE(stats.modeled_ms, 0.0);
  EXPECT_TRUE(c.is_canonical());
  const auto cmp = sparse::compare_csr(sparse::coo_to_csr(c), ref);
  EXPECT_TRUE(cmp.equal) << cmp.detail;
}

/// Merge SpGEMM vs. Gustavson: valid structure, the paper's product
/// count, and the reference's bits.
inline void expect_spgemm_matches(vgpu::Device& dev, const sparse::CsrD& a,
                                  const sparse::CsrD& b,
                                  const core::merge::SpgemmConfig& cfg = {}) {
  const auto ref = baselines::seq::spgemm(a, b);
  sparse::CsrD c;
  const auto stats = core::merge::spgemm(dev, a, b, c, cfg);
  EXPECT_TRUE(c.is_valid());
  EXPECT_EQ(stats.num_products, baselines::seq::spgemm_num_products(a, b));
  EXPECT_TRUE(bitwise_equal(c, ref));
}

/// The structural regimes of tests/fuzz_ops_test.cpp.
enum class Regime {
  kUniform,
  kBanded,
  kPowerLaw,
  kHypersparse,
  kNearDense,
  kRectWide,
  kRectTall,
};

inline constexpr Regime kAllRegimes[] = {
    Regime::kUniform,   Regime::kBanded,    Regime::kPowerLaw,
    Regime::kHypersparse, Regime::kNearDense, Regime::kRectWide,
    Regime::kRectTall,
};

inline constexpr std::uint64_t kFuzzSeeds[] = {1, 2, 3};

inline std::string regime_name(Regime r) {
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

inline sparse::CsrD make_regime_matrix(Regime r, std::uint64_t seed) {
  util::Rng rng(seed);
  switch (r) {
    case Regime::kUniform:
      return sparse::coo_to_csr(testing::random_coo(rng, 400, 400, 4800));
    case Regime::kBanded:
      return workloads::fem_banded(500, 18.0, 4.0, seed);
    case Regime::kPowerLaw:
      return testing::random_powerlaw_csr(rng, 500, 500, 6.0);
    case Regime::kHypersparse:
      return sparse::coo_to_csr(testing::random_coo(rng, 2000, 2000, 300));
    case Regime::kNearDense:
      return sparse::coo_to_csr(testing::random_coo(rng, 60, 60, 2800));
    case Regime::kRectWide:
      return sparse::coo_to_csr(testing::random_coo(rng, 64, 3000, 2500));
    case Regime::kRectTall:
      return sparse::coo_to_csr(testing::random_coo(rng, 3000, 64, 2500));
  }
  return {};
}

/// Deterministic probe vector for bitwise sweeps (seeded like
/// expect_spmv_matches so regimes exercise varied values).
inline std::vector<double> oracle_x(const sparse::CsrD& a) {
  util::Rng rng(static_cast<std::uint64_t>(a.nnz()) + 7);
  std::vector<double> x(static_cast<std::size_t>(a.num_cols));
  for (auto& v : x) v = rng.uniform_double(-1, 1);
  return x;
}

}  // namespace mps::testing

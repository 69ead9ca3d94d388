// Merge-path SpMM (blocked SpMV) tests.
#include <gtest/gtest.h>

#include <cstring>
#include <span>
#include <string>
#include <type_traits>
#include <vector>

#include "baselines/seq.hpp"
#include "core/spmm.hpp"
#include "core/spmv.hpp"
#include "merge_cost.hpp"
#include "oracle.hpp"
#include "sparse/convert.hpp"
#include "sparse/stats.hpp"
#include "test_matrices.hpp"
#include "vgpu/device.hpp"
#include "workloads/generators.hpp"

namespace mps {
namespace {

using sparse::coo_to_csr;
using testing::random_coo;

void expect_spmm_matches(vgpu::Device& dev, const sparse::CsrD& a, index_t nv,
                         std::uint64_t seed) {
  util::Rng rng(seed);
  const std::size_t nvs = static_cast<std::size_t>(nv);
  std::vector<double> x(static_cast<std::size_t>(a.num_cols) * nvs);
  for (auto& v : x) v = rng.uniform_double(-1, 1);
  std::vector<double> y(static_cast<std::size_t>(a.num_rows) * nvs, -7.0);
  core::merge::spmm(dev, a, x, nv, y);
  // Column j of Y must equal A times column j of X.
  std::vector<double> xj(static_cast<std::size_t>(a.num_cols));
  std::vector<double> yj(static_cast<std::size_t>(a.num_rows));
  for (index_t j = 0; j < nv; ++j) {
    for (index_t c = 0; c < a.num_cols; ++c) {
      xj[static_cast<std::size_t>(c)] =
          x[static_cast<std::size_t>(c) * nvs + static_cast<std::size_t>(j)];
    }
    baselines::seq::spmv(a, xj, yj);
    for (index_t r = 0; r < a.num_rows; ++r) {
      ASSERT_NEAR(y[static_cast<std::size_t>(r) * nvs + static_cast<std::size_t>(j)],
                  yj[static_cast<std::size_t>(r)], 1e-11)
          << "r=" << r << " j=" << j;
    }
  }
}

class SpmmTest : public ::testing::TestWithParam<std::tuple<int, int, int, int>> {};

TEST_P(SpmmTest, MatchesColumnwiseSpmv) {
  const auto [rows, cols, nnz, nv] = GetParam();
  vgpu::Device dev;
  util::Rng rng(static_cast<std::uint64_t>(rows + cols * 3 + nnz + nv));
  const auto a = coo_to_csr(random_coo(rng, static_cast<index_t>(rows),
                                       static_cast<index_t>(cols), nnz));
  expect_spmm_matches(dev, a, static_cast<index_t>(nv),
                      static_cast<std::uint64_t>(nnz + nv));
}

INSTANTIATE_TEST_SUITE_P(
    Sweep, SpmmTest,
    ::testing::Values(std::make_tuple(1, 1, 1, 1), std::make_tuple(100, 80, 600, 1),
                      std::make_tuple(100, 80, 600, 4),
                      std::make_tuple(1000, 500, 8000, 8),
                      std::make_tuple(50, 50, 100, 17),
                      std::make_tuple(2000, 2000, 30000, 3)));

TEST(Spmm, SingleVectorMatchesSpmv) {
  vgpu::Device dev;
  util::Rng rng(41);
  const auto a = coo_to_csr(random_coo(rng, 800, 700, 9000));
  std::vector<double> x(700);
  for (auto& v : x) v = rng.uniform_double(-1, 1);
  std::vector<double> y1(800), y2(800);
  core::merge::spmv(dev, a, x, y1);
  core::merge::spmm(dev, a, x, 1, y2);
  for (std::size_t i = 0; i < y1.size(); ++i) ASSERT_DOUBLE_EQ(y1[i], y2[i]);
}

TEST(Spmm, GiantRowCarry) {
  vgpu::Device dev;
  sparse::CooD a(3, 20000);
  util::Rng rng(43);
  for (index_t c = 0; c < 20000; ++c) a.push_back(1, c, rng.uniform_double(-1, 1));
  a.canonicalize();
  expect_spmm_matches(dev, coo_to_csr(a), 4, 44);
}

TEST(Spmm, EmptyRowsAndEmptyMatrix) {
  vgpu::Device dev;
  sparse::CooD a(100, 50);
  a.push_back(0, 0, 2.0);
  a.push_back(99, 49, 3.0);
  expect_spmm_matches(dev, coo_to_csr(a), 5, 45);
  sparse::CsrD zero(10, 10);
  std::vector<double> x(20, 1.0), y(20, 9.0);
  core::merge::spmm(dev, zero, x, 2, y);
  for (double v : y) EXPECT_EQ(v, 0.0);
}

TEST(Spmm, CheaperThanRepeatedSpmv) {
  // The point of SpMM: one pass over A for all vectors.
  vgpu::Device dev;
  util::Rng rng(47);
  const auto a = coo_to_csr(random_coo(rng, 5000, 5000, 100000));
  const index_t nv = 8;
  std::vector<double> x(static_cast<std::size_t>(a.num_cols) * nv, 1.0);
  std::vector<double> y(static_cast<std::size_t>(a.num_rows) * nv);
  const double t_spmm = core::merge::spmm(dev, a, x, nv, y).modeled_ms;
  std::vector<double> x1(static_cast<std::size_t>(a.num_cols), 1.0);
  std::vector<double> y1(static_cast<std::size_t>(a.num_rows));
  const double t_spmv = core::merge::spmv(dev, a, x1, y1).modeled_ms();
  EXPECT_LT(t_spmm, 0.8 * static_cast<double>(nv) * t_spmv);
}

// ---------------------------------------------------------------------------
// SpMM is the SpMV launch over k vectors: one `merge.spmv_reduce` whose
// cost is pinned to the independent per-CTA formula of
// tests/merge_cost.hpp, planned and one-shot, at k = 1, 3, 4, 5, 8, 9
// and 17 (widths below, at and across the 8-column register tile).

constexpr index_t kFusedVectorCounts[] = {1, 3, 4, 5, 8, 9, 17};

TEST(SpmmFusedTail, SpanningRowsCostOneLaunchAndStayBitwise) {
  const auto a = testing::spanning_rows_csr(/*empty_rows=*/false, 83);
  for (const index_t k : kFusedVectorCounts) {
    testing::expect_fused_merge_cost(a, k);
  }
}

TEST(SpmmFusedTail, EmptyRowsCostOneLaunchAndStayBitwise) {
  // One-shot SpMM pays the compaction launch, like one-shot SpMV.
  const auto a = testing::spanning_rows_csr(/*empty_rows=*/true, 84);
  ASSERT_TRUE(a.has_empty_rows());
  for (const index_t k : kFusedVectorCounts) {
    testing::expect_fused_merge_cost(a, k);
  }
}

// ---------------------------------------------------------------------------
// Planned-SpMM oracle: planned and one-shot SpMM over every fuzz regime,
// tile geometry and vector count from 1 to 9 and around 16 (the register
// tile is 8 columns wide, so 9, 15, 16 and 17 cross it), in double and
// float, each column memcmp-equal to the sequential reference.

constexpr index_t kOracleVectorCounts[] = {1, 2, 3, 4,  5,  6,
                                           7, 8, 9, 15, 16, 17};

/// Sequential y = A x in V: seq::spmv for double, and the same canonical
/// loop (+0 start, ascending position) for float.
template <typename V>
void seq_spmv(const sparse::CsrMatrix<V>& a, std::span<const V> x,
              std::span<V> y) {
  if constexpr (std::is_same_v<V, double>) {
    baselines::seq::spmv(a, x, y);
  } else {
    for (index_t r = 0; r < a.num_rows; ++r) {
      V acc{};
      for (index_t i = a.row_offsets[static_cast<std::size_t>(r)];
           i < a.row_offsets[static_cast<std::size_t>(r) + 1]; ++i) {
        const auto u = static_cast<std::size_t>(i);
        acc += a.val[u] * x[static_cast<std::size_t>(a.col[u])];
      }
      y[static_cast<std::size_t>(r)] = acc;
    }
  }
}

/// Column j of the row-major block `y` (rows x k) must be memcmp-equal
/// to seq_spmv of column j of `x`.
template <typename V>
void expect_columns_match_reference(const sparse::CsrMatrix<V>& a,
                                    const std::vector<V>& x,
                                    const std::vector<V>& y, std::size_t k) {
  std::vector<V> xj(static_cast<std::size_t>(a.num_cols));
  std::vector<V> ref(static_cast<std::size_t>(a.num_rows));
  std::vector<V> col(ref.size());
  for (std::size_t j = 0; j < k; ++j) {
    for (std::size_t c = 0; c < xj.size(); ++c) xj[c] = x[c * k + j];
    seq_spmv<V>(a, xj, ref);
    for (std::size_t r = 0; r < col.size(); ++r) col[r] = y[r * k + j];
    ASSERT_EQ(std::memcmp(col.data(), ref.data(), ref.size() * sizeof(V)), 0)
        << "column " << j << " of " << k;
  }
}

template <typename V>
void expect_oracle_widths(const sparse::CsrMatrix<V>& a) {
  for (const core::merge::SpmvConfig& cfg : testing::kTileConfigs) {
    vgpu::Device dev;
    const auto plan = core::merge::spmv_plan(dev, a, cfg);
    for (const index_t k : kOracleVectorCounts) {
      SCOPED_TRACE(std::string(sizeof(V) == 4 ? "float " : "double ") +
                   std::to_string(cfg.block_threads) + "x" +
                   std::to_string(cfg.items_per_thread) + " k=" +
                   std::to_string(k));
      const std::size_t kv = static_cast<std::size_t>(k);
      util::Rng rng(static_cast<std::uint64_t>(a.nnz()) + kv);
      std::vector<V> x(static_cast<std::size_t>(a.num_cols) * kv);
      for (auto& v : x) v = static_cast<V>(rng.uniform_double(-1, 1));
      const std::size_t out = static_cast<std::size_t>(a.num_rows) * kv;
      std::vector<V> planned(out, V(-9));
      std::vector<V> one_shot(out, V(-9));
      const auto sp = core::merge::spmv_execute(dev, a, std::span<const V>(x),
                                                std::span<V>(planned), plan, k);
      core::merge::spmv(dev, a, std::span<const V>(x), std::span<V>(one_shot),
                        cfg, k);
      expect_columns_match_reference(a, x, planned, kv);
      expect_columns_match_reference(a, x, one_shot, kv);
      if (k == 1) {
        // Planned k = 1 is spmv_execute, in y and in modeled time.
        std::vector<V> y(out, V(-9));
        const auto se = core::merge::spmv_execute(
            dev, a, std::span<const V>(x), std::span<V>(y), plan);
        EXPECT_EQ(std::memcmp(y.data(), planned.data(), out * sizeof(V)), 0);
        EXPECT_EQ(se.modeled_ms(), sp.modeled_ms());
      }
    }
  }
}

class SpmmOracleTest : public ::testing::TestWithParam<testing::Regime> {};

TEST_P(SpmmOracleTest, PlannedAndOneShotColumnsMatchSeqBitwise) {
  expect_oracle_widths(testing::make_regime_matrix(GetParam(), 1));
}

TEST_P(SpmmOracleTest, Fp32PlannedAndOneShotColumnsMatchSeqBitwise) {
  expect_oracle_widths(
      testing::to_float(testing::make_regime_matrix(GetParam(), 1)));
}

INSTANTIATE_TEST_SUITE_P(
    Regimes, SpmmOracleTest, ::testing::ValuesIn(testing::kAllRegimes),
    [](const ::testing::TestParamInfo<testing::Regime>& p) {
      return testing::regime_name(p.param);
    });

TEST(Workloads, RmatGraph) {
  const auto g = workloads::rmat(12, 8, 0.57, 0.19, 0.19, 7);
  EXPECT_TRUE(g.is_valid());
  EXPECT_EQ(g.num_rows, 4096);
  // Dedup keeps nnz below the raw edge count but in its vicinity.
  EXPECT_GT(g.nnz(), 20000);
  EXPECT_LE(g.nnz(), 8 * 4096);
  // Skew: the max degree far exceeds the mean (power-law-ish).
  const auto s = sparse::compute_stats(g);
  EXPECT_GT(s.max_row, 5 * s.avg_row);
  // Deterministic in the seed.
  const auto g2 = workloads::rmat(12, 8, 0.57, 0.19, 0.19, 7);
  EXPECT_EQ(g.col, g2.col);
  const auto g3 = workloads::rmat(12, 8, 0.57, 0.19, 0.19, 8);
  EXPECT_NE(g.val, g3.val);
}

TEST(Workloads, RmatRejectsBadParams) {
  EXPECT_THROW(workloads::rmat(0, 8, 0.5, 0.2, 0.2, 1), mps::InvalidInputError);
  EXPECT_THROW(workloads::rmat(10, 8, 0.5, 0.3, 0.3, 1), mps::InvalidInputError);
}

}  // namespace
}  // namespace mps

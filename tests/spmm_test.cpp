// Merge-path SpMM (blocked SpMV) tests.
#include <gtest/gtest.h>

#include <string>
#include <vector>

#include "baselines/seq.hpp"
#include "core/spmm.hpp"
#include "core/spmv.hpp"
#include "sparse/convert.hpp"
#include "sparse/stats.hpp"
#include "test_matrices.hpp"
#include "vgpu/device.hpp"
#include "vgpu/timing.hpp"
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
// Single-launch SpMM: the carry update is the merge.spmm launch's tail.
// The fused cost is pinned to an independent rebuild of the two-launch
// (grid, then a one-CTA update) figure from the kernel's charges.

/// Per-CTA cycles of the merge.spmm grid (the charges in spmm.cpp), each
/// CTA paying `arrival` extra global bytes.
std::vector<double> spmm_grid_cycles(const vgpu::DeviceProperties& p,
                                     const sparse::CsrD& a, std::size_t nv,
                                     std::size_t arrival) {
  const std::size_t nnz = static_cast<std::size_t>(a.nnz());
  const std::size_t tile = 128 * 7;
  const std::size_t w = static_cast<std::size_t>(p.warp_size);
  // The per-CTA binary search over the row offsets.
  const std::size_t steps = static_cast<std::size_t>(log2_ceil(
                                static_cast<std::uint64_t>(a.num_rows))) +
                            1;
  std::vector<double> cycles;
  for (std::size_t lo = 0; lo < nnz; lo += tile) {
    const std::size_t count = std::min(nnz, lo + tile) - lo;
    vgpu::CtaCounters c;
    c.global_bytes = count * (sizeof(index_t) + sizeof(double)) +
                     count * (nv - 1) * sizeof(double) + arrival;
    c.gather_bytes = (steps + count) * p.gather_sector_bytes;
    c.shared_ops = (3 * count * nv + w - 1) / w;
    c.warp_iters = steps + (2 * count * nv + w - 1) / w;
    c.syncs = 2;
    cycles.push_back(c.cycles(p));
  }
  return cycles;
}

void expect_fused_spmm_cost(const sparse::CsrD& a, index_t nv) {
  const std::size_t nvs = static_cast<std::size_t>(nv);
  util::Rng rng(73);
  std::vector<double> x(static_cast<std::size_t>(a.num_cols) * nvs);
  for (auto& v : x) v = rng.uniform_double(-1, 1);
  vgpu::Device dev;
  const vgpu::DeviceProperties& p = dev.props();
  const double floor = p.kernel_launch_cycles;
  std::vector<double> y(static_cast<std::size_t>(a.num_rows) * nvs, -5.0);
  const auto st = core::merge::spmm(dev, a, x, nv, y);
  // One launch, no separate update; integrity-guard scans (only under
  // MPS_INTEGRITY_CHECK) follow it and add to st.modeled_ms.
  ASSERT_FALSE(dev.log().empty());
  const vgpu::KernelStats k = dev.log().front();
  double guard_ms = 0.0;
  for (std::size_t i = 1; i < dev.log().size(); ++i) {
    EXPECT_EQ(dev.log()[i].name.rfind("integrity.", 0), 0u)
        << dev.log()[i].name;
    guard_ms += dev.log()[i].modeled_ms;
  }
  EXPECT_EQ(k.name, "merge.spmm");
  ASSERT_GT(st.num_ctas, 1);

  const std::size_t n = static_cast<std::size_t>(st.num_ctas);
  const std::size_t w = static_cast<std::size_t>(p.warp_size);
  vgpu::CtaCounters fold;
  fold.global_bytes = n * (sizeof(index_t) + nvs * sizeof(double));
  fold.warp_iters = (n * nvs + w - 1) / w;
  const double grid_unfused =
      vgpu::schedule_cycles(p, spmm_grid_cycles(p, a, nvs, 0));
  const double update_unfused = fold.cycles(p) + floor;
  const double with_arrivals = vgpu::schedule_cycles(
      p, spmm_grid_cycles(p, a, nvs, sizeof(std::uint32_t)));
  const double arrivals = with_arrivals - grid_unfused;
  EXPECT_GT(arrivals, 0.0);
  EXPECT_EQ(k.tail_cycles, fold.cycles(p));
  EXPECT_EQ(k.device_cycles, with_arrivals + fold.cycles(p));
  EXPECT_DOUBLE_EQ(k.device_cycles,
                   grid_unfused + update_unfused - floor + arrivals);
  EXPECT_DOUBLE_EQ(st.modeled_ms, k.modeled_ms + guard_ms);

  // Column j is bitwise seq::spmv of column j, and merge SpMV at every
  // tile config agrees.
  const core::merge::SpmvConfig configs[] = {{128, 7}, {64, 5}, {256, 9}};
  std::vector<double> xj(static_cast<std::size_t>(a.num_cols));
  std::vector<double> ref(static_cast<std::size_t>(a.num_rows));
  std::vector<double> yj(ref.size());
  std::vector<double> col(ref.size());
  for (std::size_t j = 0; j < nvs; ++j) {
    for (std::size_t c = 0; c < xj.size(); ++c) xj[c] = x[c * nvs + j];
    baselines::seq::spmv(a, xj, ref);
    for (std::size_t r = 0; r < col.size(); ++r) col[r] = y[r * nvs + j];
    ASSERT_EQ(col, ref) << "column " << j;
    for (const auto& cfg : configs) {
      core::merge::spmv(dev, a, xj, yj, cfg);
      ASSERT_EQ(yj, ref) << "column " << j << " tile " << cfg.block_threads
                         << "x" << cfg.items_per_thread;
    }
  }
}

TEST(SpmmFusedTail, SpanningRowsCostOneLaunchAndStayBitwise) {
  const auto a = testing::spanning_rows_csr(/*empty_rows=*/false, 83);
  expect_fused_spmm_cost(a, 4);
}

TEST(SpmmFusedTail, EmptyRowsCostOneLaunchAndStayBitwise) {
  const auto a = testing::spanning_rows_csr(/*empty_rows=*/true, 84);
  ASSERT_TRUE(a.has_empty_rows());
  expect_fused_spmm_cost(a, 3);
}

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

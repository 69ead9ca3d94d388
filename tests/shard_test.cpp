// Tests for the shard subsystem (docs/sharding.md): merge-staircase row
// partitioning, strict device-spec parsing, and the differential oracle
// for distributed execution — sharded SpMV/SpMM/SpAdd/SpGEMM must be
// BITWISE identical to the single-device merge kernels across every
// structural regime, fleet width, and heterogeneous weighting, because
// row-block sharding with a monotone halo remap never regroups a
// floating-point sum.  The one deliberate exception, the 2D dense-row
// split, is pinned to "deterministic but not bitwise".
#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <future>
#include <memory>
#include <numeric>
#include <span>
#include <stdexcept>
#include <string>
#include <thread>
#include <vector>

#include "autotune/autotune.hpp"
#include "baselines/seq.hpp"
#include "core/spadd.hpp"
#include "core/spgemm.hpp"
#include "core/spmm.hpp"
#include "core/spmv.hpp"
#include "oracle.hpp"
#include "serve/engine.hpp"
#include "shard/exec.hpp"
#include "shard/partition.hpp"
#include "shard/placement.hpp"
#include "shard/sharded_matrix.hpp"
#include "sparse/compare.hpp"
#include "sparse/convert.hpp"
#include "telemetry/metrics.hpp"
#include "test_matrices.hpp"
#include "util/error.hpp"
#include "vgpu/device.hpp"
#include "vgpu/device_set.hpp"
#include "workloads/suite.hpp"

namespace mps::shard {
namespace {

using mps::testing::bitwise_equal;
using mps::testing::kAllRegimes;
using mps::testing::kFuzzSeeds;
using mps::testing::make_regime_matrix;
using mps::testing::oracle_x;
using mps::testing::regime_name;
using mps::testing::Regime;

// A small homogeneous fleet the oracle sweeps run on.  Raw pointers into
// the set match shard::spmv's `devices` span (fleet slot ordinals).
struct Fleet {
  explicit Fleet(const std::string& spec, int n)
      : set(vgpu::parse_device_spec(spec, n)) {
    for (std::size_t i = 0; i < set.size(); ++i) ptrs.push_back(&set.device(i));
    for (std::size_t i = 0; i < set.size(); ++i) {
      ordinals.push_back(static_cast<int>(i));
      weights.push_back(set.weight(i));
    }
  }
  vgpu::DeviceSet set;
  std::vector<vgpu::Device*> ptrs;
  std::vector<int> ordinals;
  std::vector<double> weights;
};

std::vector<double> uniform_weights(std::size_t n) {
  return std::vector<double>(n, 1.0);
}

// ---------------------------------------------------------------------------
// partition_rows: merge-staircase cuts.

TEST(Partition, CoversAllRowsContiguously) {
  const auto a = make_regime_matrix(Regime::kUniform, 1);
  const auto blocks = partition_rows(a.row_offsets, 4);
  ASSERT_EQ(blocks.size(), 4u);
  index_t next = 0;
  long long nnz = 0;
  for (const auto& b : blocks) {
    EXPECT_EQ(b.row_begin, next);
    EXPECT_LE(b.row_begin, b.row_end);
    next = b.row_end;
    nnz += b.nnz;
    EXPECT_EQ(b.nnz, a.row_offsets[static_cast<std::size_t>(b.row_end)] -
                         a.row_offsets[static_cast<std::size_t>(b.row_begin)]);
  }
  EXPECT_EQ(next, a.num_rows);
  EXPECT_EQ(nnz, static_cast<long long>(a.nnz()));
}

TEST(Partition, BalancesDiagonalSpansOnSkewedMatrices) {
  // Power-law rows are exactly the case equal-row-count splitting loses:
  // the staircase cut must keep (rows + nnz) spans balanced to within
  // one row's worth of work.
  const auto a = make_regime_matrix(Regime::kPowerLaw, 2);
  long long max_row = 0;
  for (index_t r = 0; r < a.num_rows; ++r) {
    max_row = std::max(max_row, static_cast<long long>(a.row_length(r)));
  }
  const auto blocks = partition_rows(a.row_offsets, 4);
  const long long total = a.num_rows + static_cast<long long>(a.nnz());
  for (const auto& b : blocks) {
    const long long span = (b.row_end - b.row_begin) + b.nnz;
    EXPECT_LE(span, total / 4 + max_row + 2)
        << "block [" << b.row_begin << "," << b.row_end << ") is a straggler";
  }
}

TEST(Partition, WeightedCutsScaleSpans) {
  const auto a = make_regime_matrix(Regime::kUniform, 3);
  const double weights[] = {3.0, 1.0};
  const auto blocks = partition_rows(a.row_offsets, weights);
  ASSERT_EQ(blocks.size(), 2u);
  const double span0 =
      static_cast<double>((blocks[0].row_end - blocks[0].row_begin) +
                          blocks[0].nnz);
  const double span1 =
      static_cast<double>((blocks[1].row_end - blocks[1].row_begin) +
                          blocks[1].nnz);
  // 3:1 split within row-granularity slack.
  EXPECT_NEAR(span0 / (span0 + span1), 0.75, 0.02);
}

TEST(Partition, MoreBlocksThanRowsYieldsEmptyBlocks) {
  sparse::CsrD eye(3, 3);
  for (int r = 0; r < 3; ++r) {
    eye.col.push_back(r);
    eye.val.push_back(1.0);
    eye.row_offsets[static_cast<std::size_t>(r) + 1] = r + 1;
  }
  const auto blocks = partition_rows(eye.row_offsets, 8);
  ASSERT_EQ(blocks.size(), 8u);
  index_t next = 0;
  for (const auto& b : blocks) {
    EXPECT_EQ(b.row_begin, next);
    next = b.row_end;
  }
  EXPECT_EQ(next, eye.num_rows);
}

// ---------------------------------------------------------------------------
// parse_device_spec: strict grammar.

TEST(DeviceSpec, EmptyDefaultsToTitanAndBareProfileBroadcasts) {
  const auto all_titan = vgpu::parse_device_spec("", 3);
  ASSERT_EQ(all_titan.size(), 3u);
  for (const auto& e : all_titan) EXPECT_EQ(e.profile, "titan");
  const auto broadcast = vgpu::parse_device_spec("fast", 4);
  ASSERT_EQ(broadcast.size(), 4u);
  for (const auto& e : broadcast) EXPECT_EQ(e.profile, "fast");
}

TEST(DeviceSpec, CountedEntriesExpandInOrder) {
  const auto fleet = vgpu::parse_device_spec("fast*2,slow,titan", 4);
  ASSERT_EQ(fleet.size(), 4u);
  EXPECT_EQ(fleet[0].profile, "fast");
  EXPECT_EQ(fleet[1].profile, "fast");
  EXPECT_EQ(fleet[2].profile, "slow");
  EXPECT_EQ(fleet[3].profile, "titan");
  EXPECT_GT(vgpu::throughput_weight(fleet[0].props),
            vgpu::throughput_weight(fleet[2].props));
}

TEST(DeviceSpec, StrictParsingNamesTheSource) {
  EXPECT_THROW(vgpu::parse_device_spec("warp*2", 2, "MPS_SERVE_DEVICE_SPEC"),
               InvalidInputError);
  EXPECT_THROW(vgpu::parse_device_spec("fast*2,slow", 4), InvalidInputError);
  EXPECT_THROW(vgpu::parse_device_spec("fast*x", 2), InvalidInputError);
  EXPECT_THROW(vgpu::parse_device_spec("fast*0", 2), InvalidInputError);
  try {
    vgpu::parse_device_spec("warp", 1, "MPS_SERVE_DEVICE_SPEC");
    FAIL() << "expected InvalidInputError";
  } catch (const InvalidInputError& e) {
    EXPECT_NE(std::string(e.what()).find("MPS_SERVE_DEVICE_SPEC"),
              std::string::npos)
        << e.what();
  }
}

// ---------------------------------------------------------------------------
// place(): the launch-floor + bandwidth cost model.

/// Every slot of `spec` as a candidate, in ring order from `start`.
std::vector<Candidate> ring_candidates(const std::string& spec, int n,
                                       int start) {
  const auto entries = vgpu::parse_device_spec(spec, n);
  std::vector<Candidate> out;
  for (int k = 0; k < n; ++k) {
    const int o = (start + k) % n;
    out.push_back({o, entries[static_cast<std::size_t>(o)].props});
  }
  return out;
}

TEST(Placement, IdenticalSlotsKeepBandwidthWeightsAndDropNothing) {
  const auto a = make_regime_matrix(Regime::kUniform, 1);
  for (const double bytes : {spmv_cost(a).bytes, 1e3, 1e10}) {
    for (const int width : {2, 3, 4}) {
      const auto cands = ring_candidates("titan", 4, 3);
      const Placement p = place(cands, {bytes, 1}, width);
      ASSERT_EQ(p.ordinals.size(), static_cast<std::size_t>(width));
      for (int k = 0; k < width; ++k) {
        EXPECT_EQ(p.ordinals[static_cast<std::size_t>(k)], (3 + k) % 4);
        // Exactly the bandwidth weight: the same cuts bit for bit.
        EXPECT_EQ(p.weights[static_cast<std::size_t>(k)],
                  vgpu::throughput_weight(vgpu::gtx_titan()));
      }
    }
  }
}

TEST(Placement, SmallWorkDropsTheSlowPair) {
  // A serving-size SpMV: the slow parts' 7.3 us launch floor alone
  // exceeds the fast pair's balanced finish time.
  const auto a = make_regime_matrix(Regime::kUniform, 1);
  for (int start = 0; start < 4; ++start) {
    const Placement p =
        place(ring_candidates("fast*2,slow*2", 4, start), spmv_cost(a), 4);
    std::vector<int> chosen = p.ordinals;
    std::sort(chosen.begin(), chosen.end());
    EXPECT_EQ(chosen, (std::vector<int>{0, 1})) << "start " << start;
    ASSERT_EQ(p.weights.size(), 2u);
    EXPECT_EQ(p.weights[0], p.weights[1]);
    EXPECT_LT(p.finish_ns, launch_floor_ns(vgpu::slow_profile()));
  }
}

TEST(Placement, LargeWorkKeepsAllFourWithEqualFinishTimes) {
  for (const int launches : {1, 5, 17}) {
    const OpCost cost{2e9, launches};
    const Placement p =
        place(ring_candidates("fast*2,slow*2", 4, 2), cost, 4);
    ASSERT_EQ(p.ordinals.size(), 4u);
    const auto entries = vgpu::parse_device_spec("fast*2,slow*2", 4);
    double total = 0.0;
    for (const double w : p.weights) total += w;
    for (std::size_t i = 0; i < p.ordinals.size(); ++i) {
      const auto& props =
          entries[static_cast<std::size_t>(p.ordinals[i])].props;
      // Each slot's share of the bytes, run at its own bandwidth after
      // its launch floors, ends at the predicted T.
      const double t = launches * launch_floor_ns(props) +
                       cost.bytes * p.weights[i] / total /
                           props.global_bytes_per_ns();
      EXPECT_NEAR(t, p.finish_ns, 1e-12 * p.finish_ns)
          << "slot " << p.ordinals[i] << " L " << launches;
    }
  }
}

TEST(Placement, WidthCapHolds) {
  const auto hetero = ring_candidates("fast*2,slow*2", 4, 0);
  for (int width = 1; width <= 4; ++width) {
    const Placement p = place(hetero, {2e9, 1}, width);
    EXPECT_EQ(p.ordinals.size(), static_cast<std::size_t>(width));
    // The floor sort fills the fast pair first.
    EXPECT_EQ(p.ordinals.front(), 0);
    for (const double w : p.weights) EXPECT_GT(w, 0.0);
  }
  EXPECT_EQ(place(ring_candidates("titan", 8, 5), {1e3, 1}, 3).ordinals,
            (std::vector<int>{5, 6, 7}));
}

TEST(Placement, LaunchCountsMatchTheKernels) {
  // The L the engine places SpAdd/SpGEMM with must be what one call
  // actually launches (the SpGEMM global sort's pass count follows the
  // key width, so the regimes cover several shapes).
  for (const Regime r : kAllRegimes) {
    const auto a = make_regime_matrix(r, 1);
    const auto at = sparse::transpose(a);
    vgpu::Device dev;
    sparse::CsrD c;
    core::merge::spadd_csr(dev, a, a, c);
    EXPECT_EQ(static_cast<std::size_t>(spadd_cost(a, a).launches),
              dev.log().size())
        << regime_name(r);
    dev.clear_log();
    core::merge::spgemm(dev, a, at, c);
    EXPECT_EQ(static_cast<std::size_t>(spgemm_cost(a, at).launches),
              dev.log().size())
        << regime_name(r);
  }
  // No products: the setup and its scan, then nothing.
  const sparse::CsrD empty(5, 5);
  vgpu::Device dev;
  sparse::CsrD c;
  core::merge::spgemm(dev, empty, empty, c);
  EXPECT_EQ(static_cast<std::size_t>(spgemm_cost(empty, empty).launches),
            dev.log().size());
}

// ---------------------------------------------------------------------------
// ShardedMatrix structure.

TEST(ShardedMatrix, ShardsPartitionRowsWithMonotoneHalos) {
  for (const Regime r : kAllRegimes) {
    const auto a = make_regime_matrix(r, 1);
    Fleet fleet("", 3);
    const ShardedMatrix sm(a, fleet.ordinals, uniform_weights(3));
    index_t next = 0;
    for (const auto& s : sm.shards()) {
      EXPECT_EQ(s.row_begin, next) << regime_name(r);
      next = s.row_end;
      EXPECT_TRUE(s.local.is_valid()) << regime_name(r);
      EXPECT_EQ(s.local.num_rows, s.row_end - s.row_begin);
      EXPECT_EQ(s.local.num_cols, static_cast<index_t>(s.xmap.size()));
      for (std::size_t l = 1; l < s.xmap.size(); ++l) {
        ASSERT_LT(s.xmap[l - 1], s.xmap[l])
            << regime_name(r) << ": halo map must be strictly ascending";
      }
      if (!s.xmap.empty()) {
        EXPECT_GE(s.xmap.front(), 0);
        EXPECT_LT(s.xmap.back(), a.num_cols);
      }
    }
    EXPECT_EQ(next, a.num_rows) << regime_name(r);
    EXPECT_GT(sm.halo_bytes(), 0u);
  }
}

// The layout build as it was before the dense column map: collect and
// sort every column index of a shard, unique them, and place each
// nonzero with a lower_bound.  Kept as the reference the linear build
// must reproduce byte for byte.
struct ReferenceLayout {
  std::vector<Shard> shards;
  std::vector<DenseRow> dense_rows;
};

ReferenceLayout reference_layout(const sparse::CsrD& a,
                                 std::span<const int> ordinals,
                                 std::span<const double> weights,
                                 const ShardOptions& options = {}) {
  ReferenceLayout out;
  std::vector<char> is_dense(static_cast<std::size_t>(a.num_rows), 0);
  if (options.split_2d_nnz > 0) {
    for (index_t r = 0; r < a.num_rows; ++r) {
      if (static_cast<long long>(a.row_length(r)) < options.split_2d_nnz) {
        continue;
      }
      is_dense[static_cast<std::size_t>(r)] = 1;
      DenseRow dense;
      dense.row = r;
      const index_t k0 = a.row_offsets[static_cast<std::size_t>(r)];
      const index_t len = a.row_length(r);
      const auto parts = static_cast<index_t>(ordinals.size());
      const index_t chunk = ceil_div(len, parts);
      for (index_t p = 0; p < parts; ++p) {
        const index_t s0 = k0 + std::min(len, p * chunk);
        const index_t s1 = k0 + std::min(len, (p + 1) * chunk);
        if (s0 >= s1) break;
        DenseRowSegment seg;
        seg.device = ordinals[static_cast<std::size_t>(p)];
        seg.col.assign(a.col.begin() + s0, a.col.begin() + s1);
        seg.val.assign(a.val.begin() + s0, a.val.begin() + s1);
        dense.segments.push_back(std::move(seg));
      }
      out.dense_rows.push_back(std::move(dense));
    }
  }
  const auto blocks = partition_rows(a.row_offsets, weights);
  for (std::size_t i = 0; i < blocks.size(); ++i) {
    Shard shard;
    shard.row_begin = blocks[i].row_begin;
    shard.row_end = blocks[i].row_end;
    shard.device = ordinals[i];
    shard.weight = weights[i];
    std::vector<index_t>& xmap = shard.xmap;
    for (index_t r = shard.row_begin; r < shard.row_end; ++r) {
      if (is_dense[static_cast<std::size_t>(r)]) continue;
      xmap.insert(xmap.end(),
                  a.col.begin() + a.row_offsets[static_cast<std::size_t>(r)],
                  a.col.begin() + a.row_offsets[static_cast<std::size_t>(r) + 1]);
    }
    std::sort(xmap.begin(), xmap.end());
    xmap.erase(std::unique(xmap.begin(), xmap.end()), xmap.end());
    sparse::CsrD& local = shard.local;
    local.num_rows = shard.row_end - shard.row_begin;
    local.num_cols = static_cast<index_t>(xmap.size());
    local.row_offsets.assign(static_cast<std::size_t>(local.num_rows) + 1, 0);
    for (index_t r = shard.row_begin; r < shard.row_end; ++r) {
      if (!is_dense[static_cast<std::size_t>(r)]) {
        for (index_t k = a.row_offsets[static_cast<std::size_t>(r)];
             k < a.row_offsets[static_cast<std::size_t>(r) + 1]; ++k) {
          const auto it = std::lower_bound(xmap.begin(), xmap.end(),
                                           a.col[static_cast<std::size_t>(k)]);
          local.col.push_back(static_cast<index_t>(it - xmap.begin()));
          local.val.push_back(a.val[static_cast<std::size_t>(k)]);
        }
      }
      local.row_offsets[static_cast<std::size_t>(r - shard.row_begin) + 1] =
          static_cast<index_t>(local.col.size());
    }
    out.shards.push_back(std::move(shard));
  }
  return out;
}

/// memcmp-equality of two layouts: every shard's block, slot, weight,
/// halo map and local CSR arrays, and every dense-row segment.
::testing::AssertionResult same_layout(std::span<const Shard> want,
                                       std::span<const DenseRow> want_dense,
                                       const ShardedMatrix& got) {
  if (got.shards().size() != want.size()) {
    return ::testing::AssertionFailure() << "shard count";
  }
  for (std::size_t i = 0; i < want.size(); ++i) {
    const Shard& w = want[i];
    const Shard& g = got.shards()[i];
    if (w.row_begin != g.row_begin || w.row_end != g.row_end ||
        w.device != g.device ||
        std::memcmp(&w.weight, &g.weight, sizeof(double)) != 0 ||
        !sparse::same_bits(std::span<const index_t>(w.xmap),
                           std::span<const index_t>(g.xmap)) ||
        !sparse::same_bits(w.local, g.local)) {
      return ::testing::AssertionFailure() << "shard " << i;
    }
  }
  if (got.dense_rows().size() != want_dense.size()) {
    return ::testing::AssertionFailure() << "dense row count";
  }
  for (std::size_t i = 0; i < want_dense.size(); ++i) {
    const DenseRow& w = want_dense[i];
    const DenseRow& g = got.dense_rows()[i];
    if (w.row != g.row || w.segments.size() != g.segments.size()) {
      return ::testing::AssertionFailure() << "dense row " << i;
    }
    for (std::size_t k = 0; k < w.segments.size(); ++k) {
      if (w.segments[k].device != g.segments[k].device ||
          !sparse::same_bits(std::span<const index_t>(w.segments[k].col),
                             std::span<const index_t>(g.segments[k].col)) ||
          !sparse::same_bits(std::span<const double>(w.segments[k].val),
                             std::span<const double>(g.segments[k].val))) {
        return ::testing::AssertionFailure()
               << "dense row " << i << " segment " << k;
      }
    }
  }
  return ::testing::AssertionSuccess();
}

::testing::AssertionResult same_layout(const ReferenceLayout& want,
                                       const ShardedMatrix& got) {
  return same_layout(want.shards, want.dense_rows, got);
}

::testing::AssertionResult same_layout(const ShardedMatrix& want,
                                       const ShardedMatrix& got) {
  return same_layout(want.shards(), want.dense_rows(), got);
}

/// `a` with every value replaced, pattern unchanged.
sparse::CsrD with_new_values(sparse::CsrD a, double scale) {
  for (std::size_t k = 0; k < a.val.size(); ++k) {
    a.val[k] = a.val[k] * scale + 0.125 * static_cast<double>(k % 7);
  }
  return a;
}

TEST(ShardedMatrix, LinearBuildMatchesSortedReferenceOnTableII) {
  // Every Table II matrix at 0.05 on 1, 2, 4 and 8 slots, cut once by
  // bandwidth weights and once by the cost model's hetero-fleet weights.
  for (const auto& e : workloads::paper_suite(0.05)) {
    const sparse::CsrD& a = e.matrix;
    for (const int n : {1, 2, 4, 8}) {
      const std::string spec =
          n == 1 ? "fast"
                 : "fast*" + std::to_string(n / 2) + ",slow*" +
                       std::to_string(n / 2);
      Fleet fleet(spec, n);
      std::vector<Candidate> slots;
      for (std::size_t i = 0; i < fleet.set.size(); ++i) {
        slots.push_back({static_cast<int>(i), fleet.set.props(i)});
      }
      const Placement placed = place(slots, spmv_cost(a), n);
      const std::pair<std::vector<int>, std::vector<double>> cuts[] = {
          {fleet.ordinals, fleet.weights},
          {placed.ordinals, placed.weights}};
      for (const auto& [ordinals, weights] : cuts) {
        const ShardedMatrix sm(a, ordinals, weights);
        EXPECT_TRUE(same_layout(reference_layout(a, ordinals, weights), sm))
            << e.name << " on " << ordinals.size() << " of " << n;
      }
    }
  }
}

TEST(ShardedMatrix, LinearBuildMatchesReferenceWithMoreSlotsThanRows) {
  sparse::CsrD eye(3, 3);
  for (int r = 0; r < 3; ++r) {
    eye.col.push_back(2 - r);
    eye.val.push_back(2.0 + r);
    eye.row_offsets[static_cast<std::size_t>(r) + 1] = r + 1;
  }
  Fleet fleet("", 8);
  const ShardedMatrix sm(eye, fleet.ordinals, uniform_weights(8));
  EXPECT_TRUE(same_layout(
      reference_layout(eye, fleet.ordinals, uniform_weights(8)), sm));
}

TEST(ShardedMatrix, WithValuesEqualsAFreshBuild) {
  // A re-gathered layout is byte-for-byte the one a fresh build of the
  // new values makes, the 2D split's dense-row segments included.
  std::size_t dense_rows = 0;
  for (const Regime r : kAllRegimes) {
    const auto a = make_regime_matrix(r, 1);
    const auto b = with_new_values(a, -0.75);
    Fleet fleet("fast*2,slow*2", 4);
    ShardOptions opt;
    opt.split_2d_nnz = 64;
    const ShardedMatrix sm(a, fleet.ordinals, fleet.weights, opt);
    const ShardedMatrix fresh(b, fleet.ordinals, fleet.weights, opt);
    EXPECT_TRUE(same_layout(fresh, sm.with_values(b))) << regime_name(r);
    dense_rows += sm.dense_rows().size();
  }
  EXPECT_GT(dense_rows, 0u);
}

// ---------------------------------------------------------------------------
// Differential oracle: sharded execution vs the flat merge kernels.

TEST(ShardExecOracle, SpmvBitwiseAcrossRegimesAndSeeds) {
  for (const Regime r : kAllRegimes) {
    for (const std::uint64_t seed : kFuzzSeeds) {
      const auto a = make_regime_matrix(r, seed);
      const auto x = oracle_x(a);
      vgpu::Device flat_dev;
      std::vector<double> y_ref(static_cast<std::size_t>(a.num_rows), -1.0);
      core::merge::spmv(flat_dev, a, x, y_ref);
      for (const int width : {2, 3}) {
        Fleet fleet("", width);
        const ShardedMatrix sm(a, fleet.ordinals,
                               uniform_weights(fleet.ordinals.size()));
        std::vector<double> y(static_cast<std::size_t>(a.num_rows), -2.0);
        const auto stats = spmv(sm, fleet.ptrs, x, y);
        EXPECT_TRUE(bitwise_equal(y, y_ref))
            << regime_name(r) << " seed " << seed << " width " << width;
        EXPECT_GT(stats.modeled_ms, 0.0);
        EXPECT_GE(stats.sum_ms, stats.modeled_ms);
      }
    }
  }
}

TEST(ShardExecOracle, SpmvBitwiseOnHeterogeneousFleet) {
  // Weighted cuts move the row boundaries, never the per-row sums.
  for (const Regime r : kAllRegimes) {
    const auto a = make_regime_matrix(r, 2);
    const auto x = oracle_x(a);
    vgpu::Device flat_dev;
    std::vector<double> y_ref(static_cast<std::size_t>(a.num_rows), -1.0);
    core::merge::spmv(flat_dev, a, x, y_ref);
    Fleet fleet("fast,slow,titan", 3);
    const ShardedMatrix sm(a, fleet.ordinals, fleet.weights);
    std::vector<double> y(static_cast<std::size_t>(a.num_rows), -2.0);
    spmv(sm, fleet.ptrs, x, y);
    EXPECT_TRUE(bitwise_equal(y, y_ref)) << regime_name(r);
  }
}

TEST(ShardExecOracle, SpmvPlanReuseBitwise) {
  const auto a = make_regime_matrix(Regime::kPowerLaw, 1);
  const auto x = oracle_x(a);
  Fleet fleet("", 3);
  const ShardedMatrix sm(a, fleet.ordinals, uniform_weights(3));
  std::vector<double> y_oneshot(static_cast<std::size_t>(a.num_rows), -1.0);
  spmv(sm, fleet.ptrs, x, y_oneshot);
  // One-candidate plans: the serving engine's autotune-off shard plans.
  std::vector<std::shared_ptr<const autotune::TunedPlan>> plans;
  for (std::size_t i = 0; i < sm.shards().size(); ++i) {
    const auto& s = sm.shards()[i];
    if (s.local.num_rows == 0) {
      plans.push_back(nullptr);
      continue;
    }
    plans.push_back(std::make_shared<const autotune::TunedPlan>(
        *fleet.ptrs[static_cast<std::size_t>(s.device)], s.local,
        /*trials=*/1));
    EXPECT_TRUE(plans.back()->trials().empty());
  }
  std::vector<double> y_planned(static_cast<std::size_t>(a.num_rows), -2.0);
  spmv_tuned(sm, fleet.ptrs, plans, x, y_planned);
  EXPECT_TRUE(bitwise_equal(y_planned, y_oneshot));
}

TEST(ShardExecOracle, SpmmBitwise) {
  const index_t num_vectors = 3;
  for (const Regime r : {Regime::kUniform, Regime::kPowerLaw,
                         Regime::kRectWide, Regime::kRectTall}) {
    const auto a = make_regime_matrix(r, 1);
    util::Rng rng(99);
    std::vector<double> x_block(
        static_cast<std::size_t>(a.num_cols) * num_vectors);
    for (auto& v : x_block) v = rng.uniform_double(-1, 1);
    vgpu::Device flat_dev;
    std::vector<double> y_ref(static_cast<std::size_t>(a.num_rows) *
                              num_vectors);
    core::merge::spmm(flat_dev, a, x_block, num_vectors, y_ref);
    Fleet fleet("", 3);
    const ShardedMatrix sm(a, fleet.ordinals, uniform_weights(3));
    std::vector<double> y(static_cast<std::size_t>(a.num_rows) * num_vectors,
                          -2.0);
    spmm(sm, fleet.ptrs, x_block, num_vectors, y);
    EXPECT_TRUE(bitwise_equal(y, y_ref)) << regime_name(r);
  }
}

TEST(ShardExecOracle, SpaddBitwiseAcrossRegimes) {
  for (const Regime r : kAllRegimes) {
    for (const std::uint64_t seed : kFuzzSeeds) {
      const auto a = make_regime_matrix(r, seed);
      const auto b = make_regime_matrix(r, seed + 17);
      ASSERT_EQ(a.num_rows, b.num_rows);
      ASSERT_EQ(a.num_cols, b.num_cols);
      vgpu::Device flat_dev;
      sparse::CsrD c_ref;
      core::merge::spadd_csr(flat_dev, a, b, c_ref);
      Fleet fleet("", 2);
      sparse::CsrD c;
      const auto stats =
          spadd(a, b, fleet.ptrs, fleet.ordinals, fleet.weights, c);
      EXPECT_TRUE(bitwise_equal(c, c_ref))
          << regime_name(r) << " seed " << seed;
      EXPECT_EQ(stats.shards, 2);
    }
  }
}

TEST(ShardExecOracle, SpgemmBitwiseAcrossRegimes) {
  for (const Regime r : {Regime::kUniform, Regime::kBanded, Regime::kPowerLaw,
                         Regime::kHypersparse, Regime::kNearDense}) {
    for (const std::uint64_t seed : kFuzzSeeds) {
      const auto a = make_regime_matrix(r, seed);
      const auto b = make_regime_matrix(r, seed + 31);
      vgpu::Device flat_dev;
      sparse::CsrD c_ref;
      core::merge::spgemm(flat_dev, a, b, c_ref);
      Fleet fleet("", 3);
      sparse::CsrD c;
      spgemm(a, b, fleet.ptrs, fleet.ordinals, fleet.weights, c);
      EXPECT_TRUE(bitwise_equal(c, c_ref))
          << regime_name(r) << " seed " << seed;
    }
  }
}

TEST(ShardExecOracle, RectangularSpgemmBitwise) {
  const auto a = make_regime_matrix(Regime::kRectWide, 1);   // 64 x 3000
  const auto b = make_regime_matrix(Regime::kRectTall, 1);   // 3000 x 64
  vgpu::Device flat_dev;
  sparse::CsrD c_ref;
  core::merge::spgemm(flat_dev, a, b, c_ref);
  Fleet fleet("", 2);
  sparse::CsrD c;
  spgemm(a, b, fleet.ptrs, fleet.ordinals, fleet.weights, c);
  EXPECT_TRUE(bitwise_equal(c, c_ref));
}

// One slot with weight {1.0} is one block on the whole matrix, which is
// how the engine serves every unsharded SpAdd and SpGEMM: it must be the
// core kernel, in output bits and in modeled time.
TEST(ShardExecOracle, OneSlotIsTheCoreKernel) {
  for (const Regime r : kAllRegimes) {
    const auto a = make_regime_matrix(r, 1);
    const auto b = make_regime_matrix(r, 32);
    const auto at = sparse::transpose(b);
    vgpu::Device core_dev;
    core_dev.fault_injector().disarm();
    sparse::CsrD add_ref, gemm_ref;
    const double add_ms =
        core::merge::spadd_csr(core_dev, a, b, add_ref).modeled_ms;
    const double gemm_ms =
        core::merge::spgemm(core_dev, a, at, gemm_ref).modeled_ms();

    Fleet fleet("", 1);
    fleet.set.device(0).fault_injector().disarm();
    sparse::CsrD add, gemm;
    const auto add_stats =
        spadd(a, b, fleet.ptrs, fleet.ordinals, uniform_weights(1), add);
    const auto gemm_stats =
        spgemm(a, at, fleet.ptrs, fleet.ordinals, uniform_weights(1), gemm);
    EXPECT_TRUE(bitwise_equal(add, add_ref)) << regime_name(r);
    EXPECT_TRUE(bitwise_equal(gemm, gemm_ref)) << regime_name(r);
    EXPECT_EQ(add_stats.modeled_ms, add_ms) << regime_name(r);
    EXPECT_EQ(gemm_stats.modeled_ms, gemm_ms) << regime_name(r);
    EXPECT_EQ(add_stats.shards, 1);
    EXPECT_EQ(gemm_stats.halo_ms, 0.0);
  }
}

// ---------------------------------------------------------------------------
// Degenerate shapes.

TEST(ShardExecOracle, MoreDevicesThanRowsLeavesEmptyShardsHarmless) {
  sparse::CsrD eye(3, 3);
  for (int r = 0; r < 3; ++r) {
    eye.col.push_back(r);
    eye.val.push_back(2.0 + r);
    eye.row_offsets[static_cast<std::size_t>(r) + 1] = r + 1;
  }
  Fleet fleet("", 8);
  const ShardedMatrix sm(eye, fleet.ordinals, uniform_weights(8));
  ASSERT_EQ(sm.shards().size(), 8u);
  const std::vector<double> x = {1.0, 10.0, 100.0};
  std::vector<double> y(3, -1.0);
  spmv(sm, fleet.ptrs, x, y);
  EXPECT_EQ(y[0], 2.0);
  EXPECT_EQ(y[1], 30.0);
  EXPECT_EQ(y[2], 400.0);
}

TEST(ShardExecOracle, SingleRowAndSingleColumnMatrices) {
  util::Rng rng(5);
  // 1 x N: one row, every shard but one empty.
  sparse::CsrD wide(1, 500);
  for (index_t c = 0; c < 500; c += 3) {
    wide.col.push_back(c);
    wide.val.push_back(rng.uniform_double(-1, 1));
  }
  wide.row_offsets[1] = static_cast<index_t>(wide.col.size());
  // N x 1: every row length <= 1.
  sparse::CsrD tall(500, 1);
  for (index_t r = 0; r < 500; ++r) {
    if (r % 2 == 0) {
      tall.col.push_back(0);
      tall.val.push_back(rng.uniform_double(-1, 1));
    }
    tall.row_offsets[static_cast<std::size_t>(r) + 1] =
        static_cast<index_t>(tall.col.size());
  }
  Fleet fleet("", 4);
  for (const sparse::CsrD* m : {&wide, &tall}) {
    const auto x = oracle_x(*m);
    vgpu::Device flat_dev;
    std::vector<double> y_ref(static_cast<std::size_t>(m->num_rows), -1.0);
    core::merge::spmv(flat_dev, *m, x, y_ref);
    const ShardedMatrix sm(*m, fleet.ordinals, uniform_weights(4));
    std::vector<double> y(static_cast<std::size_t>(m->num_rows), -2.0);
    spmv(sm, fleet.ptrs, x, y);
    EXPECT_TRUE(bitwise_equal(y, y_ref)) << m->num_rows << "x" << m->num_cols;
  }
}

// ---------------------------------------------------------------------------
// 2D dense-row split: deterministic, close, NOT bitwise-guaranteed.

TEST(ShardExec2D, DenseRowSplitIsDeterministicAndAccurate) {
  util::Rng rng(11);
  auto coo = testing::random_coo(rng, 300, 300, 2000);
  // One pathological dense row on top of the uniform background.
  for (index_t c = 0; c < 300; ++c) {
    coo.row.push_back(7);
    coo.col.push_back(c);
    coo.val.push_back(rng.uniform_double(-1, 1));
  }
  coo.canonicalize();
  const auto a = sparse::coo_to_csr(coo);
  const auto x = oracle_x(a);
  vgpu::Device flat_dev;
  std::vector<double> y_ref(static_cast<std::size_t>(a.num_rows), -1.0);
  core::merge::spmv(flat_dev, a, x, y_ref);

  Fleet fleet("", 3);
  ShardOptions opt;
  opt.split_2d_nnz = 128;
  const ShardedMatrix sm(a, fleet.ordinals, uniform_weights(3), opt);
  ASSERT_FALSE(sm.dense_rows().empty());
  EXPECT_EQ(sm.dense_rows()[0].row, 7);
  EXPECT_TRUE(same_layout(
      reference_layout(a, fleet.ordinals, uniform_weights(3), opt), sm));

  std::vector<double> y1(static_cast<std::size_t>(a.num_rows), -2.0);
  std::vector<double> y2(static_cast<std::size_t>(a.num_rows), -3.0);
  spmv(sm, fleet.ptrs, x, y1);
  spmv(sm, fleet.ptrs, x, y2);
  EXPECT_TRUE(bitwise_equal(y1, y2)) << "2D split must be run-to-run stable";
  for (std::size_t i = 0; i < y1.size(); ++i) {
    ASSERT_NEAR(y1[i], y_ref[i], 1e-9) << "row " << i;
  }
}

// ---------------------------------------------------------------------------
// Engine integration: sharded serving stats and strict config checks.

serve::EngineConfig sharded_config(int devices) {
  serve::EngineConfig cfg;
  cfg.threads = 2;
  cfg.batch_window = 1;
  cfg.queue_capacity = 256;
  cfg.plan_cache_bytes = 64u << 20;
  cfg.autotune = 0;
  cfg.devices = devices;
  cfg.shard_min_nnz = 1024;
  return cfg;
}

TEST(EngineSharded, ServesBitwiseAnswersAndPerDeviceStats) {
  const auto a = make_regime_matrix(Regime::kUniform, 1);  // 4800 nnz
  const auto x = oracle_x(a);
  vgpu::Device flat_dev;
  std::vector<double> y_ref(static_cast<std::size_t>(a.num_rows), -1.0);
  core::merge::spmv(flat_dev, a, x, y_ref);

  serve::Engine engine(sharded_config(2));
  const auto h = engine.register_matrix(a);
  for (int i = 0; i < 4; ++i) {
    auto y = engine.submit_spmv(h, x).get().y;
    EXPECT_TRUE(bitwise_equal(y, y_ref)) << "request " << i;
  }
  engine.shutdown();

  const auto stats = engine.stats();
  ASSERT_EQ(stats.devices.size(), 2u);
  EXPECT_EQ(stats.sharded_matrices, 1);
  long long dispatched = 0;
  long long shards = 0;
  for (const auto& d : stats.devices) {
    EXPECT_EQ(d.profile, "titan");
    EXPECT_GT(d.weight, 0.0);
    dispatched += d.dispatched;
    shards += d.shards_hosted;
  }
  EXPECT_GE(dispatched, 4);  // every request leases all shard devices
  EXPECT_EQ(shards, 2);
}

TEST(EngineSharded, HotMatrixGetsABitwiseReplica) {
  // A replica needs a disjoint second placement of the primary's width,
  // so a 2-wide matrix on a 4-slot fleet is the smallest case that builds
  // one.  A lone tenant holds all of the sharded traffic, so it crosses
  // the hot threshold once the warm-up floor (8 requests) is reached.
  auto a = make_regime_matrix(Regime::kUniform, 1);  // 4800 nnz
  serve::EngineConfig cfg = sharded_config(4);
  cfg.shard_min_nnz = 2048;  // 4800 nnz shards 2-wide
  cfg.shard_replicate_hot = 0.5;
  serve::Engine engine(cfg);
  const auto h = engine.register_matrix(a);
  ASSERT_EQ(engine.explain(h).shards, 2);
  EXPECT_FALSE(engine.explain(h).replicated);

  // Requests alternate between the placements by salt parity once the
  // replica exists; every answer must equal the sequential reference.
  const auto serve_and_check = [&](int requests) {
    const auto x = oracle_x(a);
    std::vector<double> y_ref(static_cast<std::size_t>(a.num_rows));
    baselines::seq::spmv(a, x, y_ref);
    for (int i = 0; i < requests; ++i) {
      EXPECT_TRUE(bitwise_equal(engine.submit_spmv(h, x).get().y, y_ref))
          << "request " << i;
    }
  };
  serve_and_check(16);
  {
    const auto stats = engine.stats();
    EXPECT_EQ(stats.replicated_matrices, 1);
    EXPECT_TRUE(engine.explain(h).replicated);
    ASSERT_EQ(stats.devices.size(), 4u);
    for (const auto& d : stats.devices) {
      EXPECT_GT(d.dispatched, 0) << "both placements must serve";
      EXPECT_EQ(d.shards_hosted, 1);
    }
  }

  // Re-registration (same pattern, new values) keeps both placements:
  // each layout is re-gathered, byte for byte what a fresh build of the
  // new values makes, and both keep serving bitwise answers.
  const auto primary = engine.layout(h);
  const auto replica = engine.layout(h, /*replica=*/true);
  ASSERT_TRUE(primary && replica);
  a = with_new_values(a, -0.5);
  ASSERT_EQ(engine.register_matrix(a), h);
  EXPECT_EQ(engine.stats().replicated_matrices, 1);
  for (const bool r : {false, true}) {
    const auto& served = r ? replica : primary;
    std::vector<int> ordinals;
    std::vector<double> weights;
    for (const Shard& sh : served->shards()) {
      ordinals.push_back(sh.device);
      weights.push_back(sh.weight);
    }
    const auto fresh = engine.layout(h, r);
    ASSERT_TRUE(fresh);
    EXPECT_NE(fresh, served) << "copy-on-write: a new layout is published";
    EXPECT_TRUE(same_layout(ShardedMatrix(a, ordinals, weights), *fresh))
        << (r ? "replica" : "primary");
  }
  const long long misses = engine.stats().plan_cache.misses;
  serve_and_check(8);
  EXPECT_EQ(engine.stats().plan_cache.misses, misses)
      << "both placements' merge plans stay resident";
  EXPECT_EQ(engine.stats().replicated_matrices, 1);
  engine.shutdown();
}

serve::EngineConfig hetero_config() {
  serve::EngineConfig cfg = sharded_config(4);
  cfg.device_spec = "fast*2,slow*2";
  return cfg;
}

TEST(EngineSharded, HeteroFleetServesServingSizeMatricesOnTheFastPair) {
  // The cost model's gain, pinned: a serving-size matrix (width cap 4)
  // leaves the slow pair out, because their launch floor alone exceeds
  // the fast pair's balanced finish time, and so finishes earlier than
  // the bandwidth-weighted 4-wide layout it replaced.
  const auto a = make_regime_matrix(Regime::kUniform, 1);  // 4800 nnz
  const auto b = make_regime_matrix(Regime::kUniform, 2);
  const auto x = oracle_x(a);
  std::vector<double> y_ref(static_cast<std::size_t>(a.num_rows));
  baselines::seq::spmv(a, x, y_ref);

  serve::EngineConfig cfg = hetero_config();
  cfg.batch_window = 4;
  serve::Engine engine(cfg);
  const auto h = engine.register_matrix(a);
  const auto hb = engine.register_matrix(b);
  const serve::PlanExplain ex = engine.explain(h);
  ASSERT_TRUE(ex.sharded);
  std::vector<int> devices = ex.shard_devices;
  std::sort(devices.begin(), devices.end());
  EXPECT_EQ(devices, (std::vector<int>{0, 1}));

  const serve::SpmvResult lone = engine.submit_spmv(h, x).get();
  EXPECT_TRUE(bitwise_equal(lone.y, y_ref));

  // A coalesced batch runs one sharded SpMM; every column is bitwise.
  engine.pause();
  std::vector<std::future<serve::SpmvResult>> futures;
  for (int i = 0; i < 4; ++i) futures.push_back(engine.submit_spmv(h, x));
  engine.resume();
  for (auto& f : futures) {
    const serve::SpmvResult r = f.get();
    EXPECT_EQ(r.batch_size, 4);
    EXPECT_TRUE(bitwise_equal(r.y, y_ref));
  }

  // Serving-size matrix ops lease the fast pair too.
  vgpu::Device flat_dev;
  sparse::CsrD add_ref;
  sparse::CsrD gemm_ref;
  core::merge::spadd_csr(flat_dev, a, b, add_ref);
  core::merge::spgemm(flat_dev, a, b, gemm_ref);
  EXPECT_TRUE(bitwise_equal(engine.submit_spadd(h, hb).get().c, add_ref));
  EXPECT_TRUE(
      bitwise_equal(engine.submit_spgemm(h, hb).get().c, gemm_ref));
  engine.shutdown();
  const auto stats = engine.stats();
  ASSERT_EQ(stats.devices.size(), 4u);
  EXPECT_GT(stats.devices[0].dispatched, 0);
  EXPECT_GT(stats.devices[1].dispatched, 0);
  EXPECT_EQ(stats.devices[2].dispatched, 0);
  EXPECT_EQ(stats.devices[3].dispatched, 0);

  // The layout it replaced: all four slots, cut by bandwidth alone, with
  // the same per-shard plans the engine builds (autotune off).
  vgpu::DeviceSet fleet(vgpu::parse_device_spec(cfg.device_spec, 4));
  std::vector<vgpu::Device*> ptrs;
  std::vector<double> weights;
  for (std::size_t i = 0; i < fleet.size(); ++i) {
    ptrs.push_back(&fleet.device(i));
    weights.push_back(fleet.weight(i));
  }
  const ShardedMatrix wide(a, std::vector<int>{0, 1, 2, 3}, weights);
  std::vector<std::shared_ptr<const autotune::TunedPlan>> plans;
  for (const Shard& sh : wide.shards()) {
    plans.push_back(std::make_shared<const autotune::TunedPlan>(
        *ptrs[static_cast<std::size_t>(sh.device)], sh.local, 1));
  }
  std::vector<double> y(static_cast<std::size_t>(a.num_rows));
  const double wide_ms = spmv_tuned(wide, ptrs, plans, x, y).modeled_ms;
  EXPECT_TRUE(bitwise_equal(y, y_ref));
  EXPECT_LT(lone.modeled_ms, wide_ms);
}

TEST(EngineSharded, HeteroFleetBuildsNoSlowReplica) {
  // The only slots a fast-pair primary leaves free are the slow pair,
  // whose predicted finish time is later than the primary's, so the hot
  // tenant gets no replica and its traffic stays on the fast pair
  // (HotMatrixGetsABitwiseReplica covers the titan fleet, where it does).
  const auto a = make_regime_matrix(Regime::kUniform, 1);  // 4800 nnz
  serve::EngineConfig cfg = hetero_config();
  cfg.shard_replicate_hot = 0.5;
  serve::Engine engine(cfg);
  const auto h = engine.register_matrix(a);
  const auto x = oracle_x(a);
  std::vector<double> y_ref(static_cast<std::size_t>(a.num_rows));
  baselines::seq::spmv(a, x, y_ref);
  for (int i = 0; i < 16; ++i) {
    EXPECT_TRUE(bitwise_equal(engine.submit_spmv(h, x).get().y, y_ref))
        << "request " << i;
  }
  engine.shutdown();
  const auto stats = engine.stats();
  EXPECT_EQ(stats.replicated_matrices, 0);
  EXPECT_FALSE(engine.explain(h).replicated);
  ASSERT_EQ(stats.devices.size(), 4u);
  EXPECT_EQ(stats.devices[2].dispatched + stats.devices[3].dispatched, 0);
}

serve::EngineConfig tuned_hetero_config() {
  serve::EngineConfig cfg = hetero_config();
  cfg.autotune = 1;
  cfg.shard_min_nnz = 2048;
  return cfg;
}

std::vector<double> seq_spmv(const sparse::CsrD& a,
                             const std::vector<double>& x) {
  std::vector<double> y(static_cast<std::size_t>(a.num_rows));
  baselines::seq::spmv(a, x, y);
  return y;
}

long long autotune_trials() {
  return telemetry::metrics().counter("autotune.trials").value();
}

TEST(EngineSharded, ExplainWeightsRebuildTheServedLayout) {
  // PlanExplain names the primary's slots and cut weights, so a layout
  // built from them outside the engine is the one the engine serves.
  serve::Engine engine(tuned_hetero_config());
  for (const char* name : {"Circuit", "Webbase", "QCD"}) {
    const auto a = workloads::suite_entry(name, 0.05).matrix;
    const auto h = engine.register_matrix(a);
    const serve::PlanExplain ex = engine.explain(h);
    ASSERT_TRUE(ex.sharded) << name;
    ASSERT_EQ(ex.shard_weights.size(), ex.shard_devices.size()) << name;
    const auto served = engine.layout(h);
    ASSERT_TRUE(served) << name;
    EXPECT_TRUE(same_layout(
        ShardedMatrix(a, ex.shard_devices, ex.shard_weights), *served))
        << name;
  }
  engine.shutdown();
}

TEST(EngineSharded, SamePatternReRegistrationKeepsLayoutAndValueFreePlans) {
  // Circuit's shards win merge plans (value-free); Economics' two shards
  // win CMRS, whose converted storage binds the values.  Re-registering
  // both with new values must keep the first set resident and rebuild
  // only the second, and every answer must be the new values' bits.
  serve::Engine engine(tuned_hetero_config());
  const auto circuit = workloads::suite_entry("Circuit", 0.05).matrix;
  const auto economics = workloads::suite_entry("Economics", 0.05).matrix;
  const auto hc = engine.register_matrix(circuit);
  const auto he = engine.register_matrix(economics);
  const auto xc = oracle_x(circuit);
  const auto xe = oracle_x(economics);
  engine.submit_spmv(hc, xc).get();
  engine.submit_spmv(he, xe).get();
  const serve::PlanExplain before_c = engine.explain(hc);
  const serve::PlanExplain before_e = engine.explain(he);
  ASSERT_TRUE(before_c.sharded && before_e.sharded);
  for (const std::string& plan : before_c.shard_plans) {
    ASSERT_TRUE(plan != "cmrs" && plan != "ell" && plan != "cold") << plan;
  }
  ASSERT_EQ(before_e.shard_plans,
            std::vector<std::string>(before_e.shard_plans.size(), "cmrs"));
  const auto layout_c = engine.layout(hc);

  // Value-free plans stay resident: no miss, no trial, a cache hit.
  const auto circuit2 = with_new_values(circuit, -0.5);
  const long long misses = engine.stats().plan_cache.misses;
  const long long trials = autotune_trials();
  ASSERT_EQ(engine.register_matrix(circuit2), hc);
  EXPECT_EQ(engine.explain(hc).shard_plans, before_c.shard_plans);
  const serve::SpmvResult rc = engine.submit_spmv(hc, xc).get();
  EXPECT_TRUE(bitwise_equal(rc.y, seq_spmv(circuit2, xc)));
  EXPECT_TRUE(rc.plan_cache_hit);
  EXPECT_EQ(engine.stats().plan_cache.misses, misses);
  EXPECT_EQ(autotune_trials(), trials);
  const serve::PlanExplain after_c = engine.explain(hc);
  EXPECT_EQ(after_c.shard_devices, before_c.shard_devices);
  EXPECT_EQ(after_c.shard_weights, before_c.shard_weights);
  const auto served = engine.layout(hc);
  ASSERT_TRUE(served);
  EXPECT_NE(served, layout_c) << "copy-on-write: a new layout is published";
  EXPECT_TRUE(same_layout(
      ShardedMatrix(circuit2, after_c.shard_devices, after_c.shard_weights),
      *served));
  EXPECT_TRUE(bitwise_equal(engine.submit_spadd(hc, hc).get().c,
                            baselines::seq::spadd(circuit2, circuit2)));
  EXPECT_TRUE(bitwise_equal(engine.submit_spgemm(hc, hc).get().c,
                            baselines::seq::spgemm(circuit2, circuit2)));

  // Value-bound winners are dropped and rebuilt, one miss per shard.
  const auto economics2 = with_new_values(economics, 2.0);
  const long long misses_e = engine.stats().plan_cache.misses;
  ASSERT_EQ(engine.register_matrix(economics2), he);
  EXPECT_EQ(engine.explain(he).shard_plans,
            std::vector<std::string>(before_e.shard_plans.size(), "cold"));
  const serve::SpmvResult re = engine.submit_spmv(he, xe).get();
  EXPECT_TRUE(bitwise_equal(re.y, seq_spmv(economics2, xe)));
  EXPECT_FALSE(re.plan_cache_hit);
  EXPECT_EQ(engine.stats().plan_cache.misses,
            misses_e + static_cast<long long>(before_e.shard_plans.size()));
  EXPECT_EQ(engine.explain(he).shard_plans, before_e.shard_plans);
  EXPECT_EQ(engine.stats().failed, 0);
  engine.shutdown();
}

TEST(EngineSharded, SamePatternReRegistrationUnderLoad) {
  // A client keeps SpMV bursts in flight while the tenant is re-registered
  // back and forth between two value sets.  Requests that leased the old
  // layout finish on it, so every answer is bitwise the old or the new
  // values' result; once the last registration returns, the new ones'.
  // Epidemiology's shards win ELL at 0.01, so every registration also
  // drops value-bound plans that requests on the old layout may rebuild.
  const auto a = workloads::suite_entry("Epidemiology", 0.01).matrix;
  const auto b = with_new_values(a, -3.0);
  const auto x = oracle_x(a);
  const auto ya = seq_spmv(a, x);
  const auto yb = seq_spmv(b, x);
  serve::EngineConfig cfg = tuned_hetero_config();
  cfg.batch_window = 4;
  serve::Engine engine(cfg);
  const auto h = engine.register_matrix(a);
  ASSERT_TRUE(bitwise_equal(engine.submit_spmv(h, x).get().y, ya));
  const serve::PlanExplain ex = engine.explain(h);
  ASSERT_TRUE(ex.sharded);
  ASSERT_NE(std::find(ex.shard_plans.begin(), ex.shard_plans.end(), "ell"),
            ex.shard_plans.end());

  std::atomic<bool> stop{false};
  std::atomic<long long> answered{0};
  std::atomic<long long> neither{0};
  std::atomic<long long> thrown{0};
  std::thread client([&] {
    while (!stop.load()) {
      std::vector<std::future<serve::SpmvResult>> burst;
      for (int i = 0; i < 8; ++i) burst.push_back(engine.submit_spmv(h, x));
      for (auto& f : burst) {
        try {
          const auto y = f.get().y;
          if (!bitwise_equal(y, ya) && !bitwise_equal(y, yb)) ++neither;
        } catch (const std::exception&) {
          ++thrown;
        }
        ++answered;
      }
    }
  });
  // Stops and joins the client on every way out of this test, a failed
  // assertion included, so a failure is reported rather than aborting.
  struct StopAndJoin {
    std::atomic<bool>& stop;
    std::thread& thread;
    ~StopAndJoin() {
      stop = true;
      if (thread.joinable()) thread.join();
    }
  } join_client{stop, client};
  constexpr int kRegistrations = 25;  // odd: the last one registers b
  for (int i = 0; i < kRegistrations; ++i) {
    // Let a few requests land between registrations, but do not wait
    // forever on a client that stopped answering.
    const long long seen = answered.load();
    const auto deadline =
        std::chrono::steady_clock::now() + std::chrono::seconds(30);
    while (answered.load() < seen + 4 &&
           std::chrono::steady_clock::now() < deadline) {
      std::this_thread::yield();
    }
    ASSERT_GE(answered.load(), seen + 4) << "registration " << i;
    ASSERT_EQ(engine.register_matrix(i % 2 == 0 ? b : a), h);
  }
  stop = true;
  client.join();
  EXPECT_EQ(thrown.load(), 0);
  EXPECT_EQ(neither.load(), 0);
  EXPECT_TRUE(bitwise_equal(engine.submit_spmv(h, x).get().y, yb))
      << "the last registration's values serve";
  engine.shutdown();
  const auto stats = engine.stats();
  EXPECT_EQ(stats.failed, 0);
  EXPECT_EQ(engine.matrix_version(h), kRegistrations + 1u);
  std::printf("answered %lld requests with %lld retries\n", answered.load(),
              stats.retries);
  RecordProperty("retries", static_cast<int>(stats.retries));
}

TEST(EngineSharded, LegacyModeReportsOneSlotPerWorker) {
  serve::EngineConfig cfg = sharded_config(0);  // legacy: no fleet knob
  cfg.threads = 3;
  serve::Engine engine(cfg);
  const auto a = make_regime_matrix(Regime::kUniform, 2);
  const auto h = engine.register_matrix(a);
  engine.submit_spmv(h, oracle_x(a)).get();
  engine.shutdown();
  const auto stats = engine.stats();
  ASSERT_EQ(stats.devices.size(), 3u);
  EXPECT_EQ(stats.sharded_matrices, 0);
  for (const auto& d : stats.devices) EXPECT_EQ(d.profile, "titan");
}

TEST(EngineSharded, StrictKnobsRejectMalformedValues) {
  const auto expect_ctor_throws = [](const serve::EngineConfig& cfg) {
    EXPECT_THROW(serve::Engine engine(cfg), InvalidInputError);
  };
  serve::EngineConfig cfg = sharded_config(0);
  cfg.shard_placement = "sideways";
  expect_ctor_throws(cfg);
  cfg = sharded_config(0);
  cfg.shard_replicate_hot = 1.5;
  expect_ctor_throws(cfg);
  cfg = sharded_config(2);
  cfg.device_spec = "warp*2";
  expect_ctor_throws(cfg);
  cfg = sharded_config(4);
  cfg.device_spec = "fast*2,slow";  // expands to 3
  expect_ctor_throws(cfg);
  cfg = sharded_config(999);  // above the 256 cap
  expect_ctor_throws(cfg);
}

}  // namespace
}  // namespace mps::shard

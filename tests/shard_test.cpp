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
#include <cstdlib>
#include <cstring>
#include <future>
#include <memory>
#include <numeric>
#include <string>
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
#include "test_matrices.hpp"
#include "util/error.hpp"
#include "vgpu/device.hpp"
#include "vgpu/device_set.hpp"

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

/// Bitwise CSR equality: identical structure AND identical value bits.
::testing::AssertionResult csr_bitwise_equal(const sparse::CsrD& a,
                                             const sparse::CsrD& b) {
  if (a.num_rows != b.num_rows || a.num_cols != b.num_cols) {
    return ::testing::AssertionFailure() << "shape mismatch";
  }
  if (a.row_offsets != b.row_offsets) {
    return ::testing::AssertionFailure() << "row_offsets differ";
  }
  if (a.col != b.col) return ::testing::AssertionFailure() << "cols differ";
  if (a.val.size() != b.val.size()) {
    return ::testing::AssertionFailure() << "nnz mismatch";
  }
  if (!a.val.empty() &&
      std::memcmp(a.val.data(), b.val.data(),
                  a.val.size() * sizeof(double)) != 0) {
    return ::testing::AssertionFailure() << "value bits differ";
  }
  return ::testing::AssertionSuccess();
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
      EXPECT_TRUE(csr_bitwise_equal(c, c_ref))
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
      EXPECT_TRUE(csr_bitwise_equal(c, c_ref))
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
  EXPECT_TRUE(csr_bitwise_equal(c, c_ref));
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

  // Re-registration (same pattern, new values) resets the replica; the
  // handle's traffic history survives, so the next request rebuilds it
  // from the new values.
  for (double& v : a.val) v *= -0.5;
  ASSERT_EQ(engine.register_matrix(a), h);
  EXPECT_EQ(engine.stats().replicated_matrices, 0);
  EXPECT_FALSE(engine.explain(h).replicated);
  serve_and_check(8);
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
  EXPECT_TRUE(csr_bitwise_equal(engine.submit_spadd(h, hb).get().c, add_ref));
  EXPECT_TRUE(
      csr_bitwise_equal(engine.submit_spgemm(h, hb).get().c, gemm_ref));
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

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
#include <memory>
#include <numeric>
#include <string>
#include <vector>

#include "autotune/autotune.hpp"
#include "core/spadd.hpp"
#include "core/spgemm.hpp"
#include "core/spmm.hpp"
#include "core/spmv.hpp"
#include "oracle.hpp"
#include "serve/engine.hpp"
#include "shard/exec.hpp"
#include "shard/partition.hpp"
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
// Engine integration: sharded serving stats and strict env knobs.

// Scoped setenv/unsetenv (same idiom as tests/serve_chaos_test.cpp).
class EnvVarGuard {
 public:
  EnvVarGuard(const char* name, const char* value) : name_(name) {
    if (const char* old = std::getenv(name)) {
      had_old_ = true;
      old_ = old;
    }
    if (value != nullptr) {
      ::setenv(name, value, 1);
    } else {
      ::unsetenv(name);
    }
  }
  ~EnvVarGuard() {
    if (had_old_) {
      ::setenv(name_, old_.c_str(), 1);
    } else {
      ::unsetenv(name_);
    }
  }
  EnvVarGuard(const EnvVarGuard&) = delete;
  EnvVarGuard& operator=(const EnvVarGuard&) = delete;

 private:
  const char* name_;
  bool had_old_ = false;
  std::string old_;
};

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
  EnvVarGuard no_chaos("MPS_CHAOS_SCRIPT", nullptr);
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

TEST(EngineSharded, LegacyModeReportsOneSlotPerWorker) {
  EnvVarGuard no_chaos("MPS_CHAOS_SCRIPT", nullptr);
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

TEST(EngineSharded, StrictEnvKnobsRejectMalformedValues) {
  const auto expect_ctor_throws = [] {
    serve::EngineConfig cfg;  // sentinels: resolve everything from env
    cfg.threads = 1;
    EXPECT_THROW(serve::Engine engine(cfg), InvalidInputError);
  };
  {
    EnvVarGuard placement("MPS_SHARD_PLACEMENT", "sideways");
    expect_ctor_throws();
  }
  {
    EnvVarGuard hot("MPS_SHARD_REPLICATE_HOT", "1.5");
    expect_ctor_throws();
  }
  {
    EnvVarGuard devices("MPS_SERVE_DEVICES", "2");
    EnvVarGuard spec("MPS_SERVE_DEVICE_SPEC", "warp*2");
    expect_ctor_throws();
  }
  {
    EnvVarGuard devices("MPS_SERVE_DEVICES", "4");
    EnvVarGuard spec("MPS_SERVE_DEVICE_SPEC", "fast*2,slow");  // expands to 3
    expect_ctor_throws();
  }
  {
    EnvVarGuard devices("MPS_SERVE_DEVICES", "999");  // above the 256 cap
    expect_ctor_throws();
  }
}

}  // namespace
}  // namespace mps::shard

// Tests for crash-consistent serving (docs/robustness.md, "Process crash
// & recovery"): Engine-level WAL + snapshot integration.
//
// The invariants mirror the kill-and-recover harness
// (scripts/crash_matrix.sh), exercised here in-process:
//   - every acknowledged registration survives recovery, at a version at
//     least as new as the one acknowledged;
//   - replayed SpMV answers are bitwise identical to the pre-crash run;
//   - recovery composes with the chaos layer (a snapshot taken while
//     faults fly still recovers to bitwise-correct answers);
//   - the MPS_SERVE_* / MPS_DURABLE_* knobs parse strictly (garbage or
//     out-of-range values raise InvalidInputError, never a silent
//     fallback).
#include <gtest/gtest.h>

#include <cstdint>
#include <cstdlib>
#include <filesystem>
#include <fstream>
#include <future>
#include <memory>
#include <string>
#include <vector>

#include "core/spmv.hpp"
#include "durability/crash.hpp"
#include "durability/wal.hpp"
#include "serve/engine.hpp"
#include "sparse/convert.hpp"
#include "test_matrices.hpp"
#include "util/error.hpp"
#include "util/rng.hpp"
#include "vgpu/chaos.hpp"
#include "vgpu/device.hpp"

namespace mps::serve {
namespace {

using sparse::coo_to_csr;
using sparse::CsrD;

// Scoped setenv/unsetenv that restores the previous value (same idiom as
// tests/serve_chaos_test.cpp).
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

class CleanDurableEnv {
 public:
  CleanDurableEnv() {
    static const char* const kVars[] = {
        "MPS_DURABLE_DIR",   "MPS_DURABLE_SNAPSHOT_EVERY",
        "MPS_DURABLE_WARM",  "MPS_DURABLE_FSYNC",
        "MPS_DURABLE_CRASH", "MPS_CHAOS_SCRIPT",
        "MPS_CHAOS_SEED",    "MPS_AUTOTUNE",
    };
    for (const char* v : kVars) {
      guards_.push_back(std::make_unique<EnvVarGuard>(v, nullptr));
    }
  }

 private:
  std::vector<std::unique_ptr<EnvVarGuard>> guards_;
};

class TempDir {
 public:
  TempDir() {
    char buf[] = "/tmp/mps_serve_durable_test.XXXXXX";
    if (::mkdtemp(buf) == nullptr) throw std::runtime_error("mkdtemp failed");
    path_ = buf;
  }
  ~TempDir() {
    std::error_code ec;
    std::filesystem::remove_all(path_, ec);
  }
  const std::string& path() const { return path_; }

 private:
  std::string path_;
};

CsrD make_matrix(std::uint64_t seed) {
  util::Rng rng(seed);
  return coo_to_csr(testing::random_coo(rng, 300, 300, 3600));
}

std::vector<double> random_x(const CsrD& a, std::uint64_t seed) {
  util::Rng rng(seed);
  std::vector<double> x(static_cast<std::size_t>(a.num_cols));
  for (auto& v : x) v = rng.uniform_double(-1, 1);
  return x;
}

EngineConfig test_config(const std::string& durable_dir = "") {
  EngineConfig cfg;
  cfg.threads = 2;
  cfg.batch_window = 1;
  cfg.queue_capacity = 1024;
  cfg.plan_cache_bytes = 64u << 20;
  cfg.autotune = 0;
  cfg.retry.max_attempts = 2;
  cfg.retry.backoff_base_ms = 0.5;
  cfg.retry.backoff_max_ms = 8.0;
  cfg.breaker.failure_threshold = 0;
  cfg.breaker.cooldown_ms = 250.0;
  cfg.shed_watermark = 0.0;
  cfg.max_failovers = 8;
  cfg.degrade_cache_frac = 0.25;
  cfg.degrade_recovery = 0;
  cfg.chaos_enabled = 0;
  cfg.durable_snapshot_every = 0;  // snapshots only where the test asks
  cfg.durable_warm = 0;
  cfg.durable_fsync = 0;
  if (!durable_dir.empty()) {
    cfg.durable_dir = durable_dir;
    cfg.durable_enabled = 1;
  } else {
    cfg.durable_enabled = 0;
  }
  return cfg;
}

std::vector<double> direct_spmv(const CsrD& a, const std::vector<double>& x) {
  vgpu::Device dev;
  std::vector<double> y(static_cast<std::size_t>(a.num_rows));
  core::merge::spmv(dev, a, x, y);
  return y;
}

// ---------------------------------------------------------------------------
// Registration recovery + bitwise replay.

TEST(ServeDurable, RecoverReplaysRegistrationsWithBitwiseAnswers) {
  CleanDurableEnv env;
  TempDir dir;
  const auto a = make_matrix(1), b = make_matrix(2);
  std::vector<std::vector<double>> before;
  MatrixHandle ha{}, hb{};
  {
    Engine engine(test_config(dir.path()));
    ha = engine.register_matrix(a);
    hb = engine.register_matrix(b);
    for (int j = 0; j < 4; ++j) {
      const auto& m = (j % 2) ? b : a;
      const auto h = (j % 2) ? hb : ha;
      before.push_back(engine.submit_spmv(h, random_x(m, 50 + j)).get().y);
    }
    // No shutdown snapshot: drop the engine after shutdown() so recovery
    // exercises pure WAL replay.
    engine.shutdown();
  }
  auto recovered = Engine::recover(dir.path(), test_config(dir.path()));
  const auto& ri = recovered->recovery_info();
  EXPECT_TRUE(ri.attempted);
  EXPECT_GE(ri.wal_records_replayed + ri.snapshot_matrices, 2ll);
  EXPECT_TRUE(recovered->has_matrix(ha));
  EXPECT_TRUE(recovered->has_matrix(hb));
  EXPECT_GE(recovered->matrix_version(ha), 1u);
  for (int j = 0; j < 4; ++j) {
    const auto& m = (j % 2) ? b : a;
    const auto h = (j % 2) ? hb : ha;
    EXPECT_EQ(recovered->submit_spmv(h, random_x(m, 50 + j)).get().y,
              before[static_cast<std::size_t>(j)])
        << "request " << j << " diverged across recovery";
  }
  recovered->shutdown();
}

TEST(ServeDurable, ReregistrationVersionsSurviveRecovery) {
  CleanDurableEnv env;
  TempDir dir;
  const auto a = make_matrix(3);
  MatrixHandle h{};
  {
    Engine engine(test_config(dir.path()));
    h = engine.register_matrix(a);
    EXPECT_EQ(engine.matrix_version(h), 1u);
    EXPECT_EQ(engine.register_matrix(a), h) << "same structure, same handle";
    EXPECT_EQ(engine.register_matrix(a), h);
    EXPECT_EQ(engine.matrix_version(h), 3u);
    engine.shutdown();
  }
  auto recovered = Engine::recover(dir.path(), test_config(dir.path()));
  EXPECT_TRUE(recovered->has_matrix(h));
  EXPECT_EQ(recovered->matrix_version(h), 3u)
      << "the acked version must survive, not just the matrix";
  recovered->shutdown();
}

TEST(ServeDurable, GracefulShutdownSnapshotCoversTheLog) {
  CleanDurableEnv env;
  TempDir dir;
  const auto a = make_matrix(4);
  {
    Engine engine(test_config(dir.path()));
    engine.register_matrix(a);
    engine.shutdown();  // writes the final snapshot
  }
  auto recovered = Engine::recover(dir.path(), test_config(dir.path()));
  const auto& ri = recovered->recovery_info();
  EXPECT_TRUE(ri.snapshot_loaded);
  EXPECT_EQ(ri.snapshot_matrices, 1);
  EXPECT_EQ(ri.wal_records_replayed, 0)
      << "a graceful shutdown leaves nothing to replay";
  recovered->shutdown();
}

TEST(ServeDurable, WarmRecoveryPrebuildsPlans) {
  CleanDurableEnv env;
  TempDir dir;
  const auto a = make_matrix(5);
  std::vector<double> before;
  {
    auto cfg = test_config(dir.path());
    Engine engine(cfg);
    const auto h = engine.register_matrix(a);
    before = engine.submit_spmv(h, random_x(a, 9)).get().y;  // warms the plan
    engine.shutdown();  // snapshot records the warm set
  }
  auto cfg = test_config(dir.path());
  cfg.durable_warm = 1;
  auto recovered = Engine::recover(dir.path(), cfg);
  // The eager rebuild itself shows up as the cache's only miss; the
  // first post-restart request must then hit.
  const auto s0 = recovered->stats();
  EXPECT_GT(s0.plan_cache.misses, 0)
      << "warm recovery must rebuild the plan before the first request";
  const auto h = recovered->register_matrix(a);  // same handle, version bump
  EXPECT_EQ(recovered->submit_spmv(h, random_x(a, 9)).get().y, before);
  recovered->shutdown();
  const auto s1 = recovered->stats();
  EXPECT_GT(s1.plan_cache.hits, s0.plan_cache.hits)
      << "the first post-recovery request must hit the rebuilt plan";
  EXPECT_EQ(s1.plan_cache.misses, s0.plan_cache.misses)
      << "the first post-recovery request must not pay a cache miss";
}

TEST(ServeDurable, WarmRecoveryPrebuildsShardPlans) {
  // A sharded tenant's plans live under per-shard keys, not under its
  // handle: the snapshot must still record the handle as warm, and
  // recovery must rebuild each primary shard plan on the shard's own
  // slot — the plans sharded dispatch actually reads.
  CleanDurableEnv env;
  TempDir dir;
  const auto a = make_matrix(12);
  const auto sharded_config = [&dir] {
    auto cfg = test_config(dir.path());
    cfg.devices = 4;
    cfg.shard_max = 4;
    cfg.shard_min_nnz = 256;
    cfg.shard_placement = "uniform";
    cfg.shard_replicate_hot = 0.0;
    cfg.shard_2d_nnz = 0;
    return cfg;
  };
  MatrixHandle h{};
  std::vector<double> before;
  {
    Engine engine(sharded_config());
    h = engine.register_matrix(a);
    ASSERT_TRUE(engine.explain(h).sharded);
    before = engine.submit_spmv(h, random_x(a, 13)).get().y;  // warms shards
    engine.shutdown();  // snapshot records the warm set
  }
  auto cfg = sharded_config();
  cfg.durable_warm = 1;
  auto recovered = Engine::recover(dir.path(), cfg);
  const auto s0 = recovered->stats();
  EXPECT_GT(s0.plan_cache.misses, 0)
      << "warm recovery must rebuild the shard plans before the first request";
  for (const auto& plan : recovered->explain(h).shard_plans) {
    EXPECT_NE(plan, "cold");
  }
  // No re-registration: the first request must find every shard warm.
  const auto r = recovered->submit_spmv(h, random_x(a, 13)).get();
  EXPECT_EQ(r.y, before);
  EXPECT_TRUE(r.plan_cache_hit)
      << "the first post-recovery request must hit every shard plan";
  recovered->shutdown();
  EXPECT_EQ(recovered->stats().plan_cache.misses, s0.plan_cache.misses)
      << "the first post-recovery request must not pay a cache miss";
}

// ---------------------------------------------------------------------------
// Torn-tail tolerance at the engine level.

TEST(ServeDurable, TornFinalWalRecordRecoversThePrefix) {
  CleanDurableEnv env;
  TempDir dir;
  const auto a = make_matrix(6), b = make_matrix(7);
  // Build the pre-crash state directly with the WAL writer: a graceful
  // engine shutdown would snapshot and truncate the log, and this test
  // needs a log with records and a torn tail (i.e., a genuine crash).
  const MatrixHandle ha = pattern_fingerprint(a);
  const MatrixHandle hb = pattern_fingerprint(b);
  {
    durability::WalWriter w(dir.path() + "/wal.bin", /*fsync=*/false,
                            /*valid_bytes=*/0, /*last_seq=*/0);
    w.append_register(ha, 1, a);
    w.append_register(hb, 1, b);
  }
  {  // Tear the final WAL record.
    const std::string wal = dir.path() + "/wal.bin";
    const auto size = std::filesystem::file_size(wal);
    std::filesystem::resize_file(wal, size - 7);
  }
  auto recovered = Engine::recover(dir.path(), test_config(dir.path()));
  const auto& ri = recovered->recovery_info();
  EXPECT_TRUE(ri.torn_tail_dropped);
  EXPECT_EQ(ri.wal_records_replayed, 1);
  EXPECT_TRUE(recovered->has_matrix(ha));
  EXPECT_FALSE(recovered->has_matrix(hb))
      << "the torn (never-acknowledged) registration must not resurrect";
  // The surviving tenant still answers, bitwise.
  EXPECT_EQ(recovered->submit_spmv(ha, random_x(a, 3)).get().y,
            direct_spmv(a, random_x(a, 3)));
  recovered->shutdown();
}

TEST(ServeDurable, MidLogCorruptionRefusesToServe) {
  CleanDurableEnv env;
  TempDir dir;
  const auto a = make_matrix(8), b = make_matrix(9);
  {
    durability::WalWriter w(dir.path() + "/wal.bin", false, 0, 0);
    w.append_register(pattern_fingerprint(a), 1, a);
    w.append_register(pattern_fingerprint(b), 1, b);
  }
  {  // Flip a payload byte of the FIRST record: not a torn tail.
    const std::string wal = dir.path() + "/wal.bin";
    std::fstream f(wal, std::ios::binary | std::ios::in | std::ios::out);
    f.seekp(40);
    char c = 0;
    f.seekg(40);
    f.get(c);
    f.seekp(40);
    f.put(static_cast<char>(c ^ 0x20));
  }
  EXPECT_THROW(Engine::recover(dir.path(), test_config(dir.path())),
               RecoveryError);
}

// ---------------------------------------------------------------------------
// Snapshot during chaos: durability composes with the fault layer.

TEST(ServeDurable, SnapshotDuringChaosRecoversBitwise) {
  CleanDurableEnv env;
  TempDir dir;
  const auto a = make_matrix(10);
  std::vector<std::vector<double>> before;
  MatrixHandle h{};
  {
    auto cfg = test_config(dir.path());
    cfg.chaos = vgpu::ChaosSchedule::parse("lose:dev=0@launch=2");
    cfg.chaos_enabled = 1;
    Engine engine(cfg);
    h = engine.register_matrix(a);
    std::vector<std::future<SpmvResult>> futures;
    for (int j = 0; j < 6; ++j) {
      futures.push_back(engine.submit_spmv(h, random_x(a, 70 + j)));
      if (j == 2) engine.snapshot_now();  // snapshot while faults fly
    }
    for (auto& f : futures) before.push_back(f.get().y);
    const auto s_before_shutdown = engine.stats();
    engine.shutdown();
    EXPECT_GE(s_before_shutdown.failovers, 0);  // chaos may or may not land
  }
  auto recovered = Engine::recover(dir.path(), test_config(dir.path()));
  EXPECT_TRUE(recovered->has_matrix(h));
  for (int j = 0; j < 6; ++j) {
    EXPECT_EQ(recovered->submit_spmv(h, random_x(a, 70 + j)).get().y,
              before[static_cast<std::size_t>(j)])
        << "chaos-era answer " << j << " diverged across recovery";
  }
  recovered->shutdown();
}

// ---------------------------------------------------------------------------
// Strict knob parsing.

TEST(ServeDurable, ServeKnobsRejectGarbageAndOutOfRange) {
  CleanDurableEnv env;
  {
    EnvVarGuard g("MPS_SERVE_THREADS", "banana");
    EXPECT_THROW(EngineConfig::from_env(), InvalidInputError);
  }
  {
    EnvVarGuard g("MPS_SERVE_THREADS", "-3");
    EXPECT_THROW(EngineConfig::from_env(), InvalidInputError);
  }
  {
    EnvVarGuard g("MPS_SERVE_QUEUE_CAP", "0");
    EXPECT_THROW(EngineConfig::from_env(), InvalidInputError);
  }
  {
    EnvVarGuard g("MPS_SERVE_BATCH_WINDOW", "1e9");
    EXPECT_THROW(EngineConfig::from_env(), InvalidInputError);
  }
  {
    EnvVarGuard g("MPS_SERVE_SHED_WATERMARK", "half");
    EXPECT_THROW(EngineConfig::from_env(), InvalidInputError);
  }
  {
    EnvVarGuard g("MPS_SERVE_PLAN_CACHE_MB", "  ");
    EXPECT_THROW(EngineConfig::from_env(), InvalidInputError);
  }
}

TEST(ServeDurable, DurableKnobsRejectGarbageAndContradiction) {
  CleanDurableEnv env;
  {
    EnvVarGuard g("MPS_DURABLE_SNAPSHOT_EVERY", "-1");
    EXPECT_THROW(EngineConfig::from_env(), InvalidInputError);
  }
  {
    EnvVarGuard g("MPS_DURABLE_WARM", "yes");
    EXPECT_THROW(EngineConfig::from_env(), InvalidInputError);
  }
  {  // durability demanded but no directory anywhere
    auto cfg = EngineConfig::from_env();
    cfg.durable_enabled = 1;
    cfg.durable_dir.clear();
    EXPECT_THROW(Engine{cfg}, InvalidInputError);
  }
  {
    EnvVarGuard g("MPS_DURABLE_CRASH", "wal-mid");  // missing :n
    EXPECT_THROW(durability::arm_crash_from_env(), InvalidInputError);
  }
  {
    EnvVarGuard g("MPS_DURABLE_CRASH", "nowhere:3");
    EXPECT_THROW(durability::arm_crash_from_env(), InvalidInputError);
  }
  {
    EnvVarGuard g("MPS_DURABLE_CRASH", "wal-mid:0");
    EXPECT_THROW(durability::arm_crash_from_env(), InvalidInputError);
  }
}

TEST(ServeDurable, DurabilityOffByDefaultAndStatsSaySo) {
  CleanDurableEnv env;
  const auto a = make_matrix(11);
  Engine engine(test_config());
  const auto h = engine.register_matrix(a);
  EXPECT_EQ(engine.submit_spmv(h, random_x(a, 1)).get().y,
            direct_spmv(a, random_x(a, 1)));
  engine.shutdown();
  const auto s = engine.stats();
  EXPECT_FALSE(s.durability.enabled);
  EXPECT_FALSE(engine.recovery_info().attempted);
  EXPECT_EQ(s.durability.wal_appends, 0);
}

}  // namespace
}  // namespace mps::serve

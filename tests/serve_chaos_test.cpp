// Tests for the serving engine's fault-tolerance layer (docs/robustness.md):
// device-loss failover, bounded retry budgets with modeled backoff, the
// per-matrix circuit breaker, load shedding, and degraded mode.
//
// The load-bearing invariant everywhere is the chaos harness's: faults may
// delay or fail individual requests, but every admitted request settles
// (value or typed error, never abandoned) and every SUCCESS is bitwise
// identical to the fault-free run — the fault layer is allowed to cost
// modeled time, never answers.
#include <gtest/gtest.h>

#include <chrono>
#include <cstdint>
#include <cstdlib>
#include <cstring>
#include <future>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "core/spmv.hpp"
#include "serve/engine.hpp"
#include "serve/trace.hpp"
#include "sparse/convert.hpp"
#include "test_matrices.hpp"
#include "util/rng.hpp"
#include "vgpu/chaos.hpp"
#include "vgpu/device.hpp"
#include "vgpu/memory_model.hpp"

namespace mps::serve {
namespace {

using sparse::coo_to_csr;
using sparse::CsrD;

// Scoped setenv/unsetenv that restores the previous value (same idiom as
// tests/fault_injection_test.cpp).
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

// Engines resolve fault and tuning knobs from the environment; these tests
// need a clean slate regardless of what the invoking shell exported.
class CleanFaultEnv {
 public:
  CleanFaultEnv() {
    static const char* const kVars[] = {
        "MPS_CHAOS_SCRIPT",        "MPS_CHAOS_SEED",
        "MPS_FAULT_ALLOC_N",       "MPS_FAULT_BYTE_LIMIT",
        "MPS_FAULT_BITFLIP_ALLOC", "MPS_FAULT_BITFLIP_MASK",
        "MPS_FAULT_CAPACITY",      "MPS_INTEGRITY_CHECK",
        "MPS_SERVE_RETRIES",       "MPS_SERVE_BACKOFF_MS",
        "MPS_SERVE_BACKOFF_MAX_MS", "MPS_SERVE_BREAKER_THRESHOLD",
        "MPS_SERVE_BREAKER_COOLDOWN_MS", "MPS_SERVE_SHED_WATERMARK",
        "MPS_SERVE_MAX_FAILOVERS", "MPS_SERVE_DEGRADE_CACHE_FRAC",
        "MPS_SERVE_DEGRADE_RECOVERY", "MPS_AUTOTUNE",
        "MPS_SERVE_DEVICES",       "MPS_SERVE_DEVICE_SPEC",
        "MPS_SHARD_MAX",           "MPS_SHARD_MIN_NNZ",
        "MPS_SHARD_PLACEMENT",     "MPS_SHARD_REPLICATE_HOT",
        "MPS_SHARD_2D_NNZ",
    };
    for (const char* v : kVars) {
      guards_.push_back(std::make_unique<EnvVarGuard>(v, nullptr));
    }
  }

 private:
  std::vector<std::unique_ptr<EnvVarGuard>> guards_;
};

CsrD make_matrix(std::uint64_t seed) {
  util::Rng rng(seed);
  return coo_to_csr(testing::random_coo(rng, 400, 400, 4800));
}

std::vector<double> random_x(const CsrD& a, std::uint64_t seed) {
  util::Rng rng(seed);
  std::vector<double> x(static_cast<std::size_t>(a.num_cols));
  for (auto& v : x) v = rng.uniform_double(-1, 1);
  return x;
}

EngineConfig test_config(unsigned threads, int batch_window,
                         std::size_t queue_cap = 1024) {
  EngineConfig cfg;
  cfg.threads = threads;
  cfg.batch_window = batch_window;
  cfg.queue_capacity = queue_cap;
  cfg.plan_cache_bytes = 64u << 20;
  cfg.autotune = 0;
  // Explicit fault-layer defaults so nothing resolves from the (already
  // sanitized) environment mid-test.
  cfg.retry.max_attempts = 2;
  cfg.retry.backoff_base_ms = 0.5;
  cfg.retry.backoff_max_ms = 8.0;
  cfg.breaker.failure_threshold = 0;  // off unless the test arms it
  cfg.breaker.cooldown_ms = 250.0;
  cfg.shed_watermark = 0.0;           // off unless the test arms it
  cfg.max_failovers = 8;
  cfg.degrade_cache_frac = 0.25;
  cfg.degrade_recovery = 0;           // off unless the test arms it
  cfg.chaos_enabled = 0;
  return cfg;
}

template <typename T>
std::uint64_t hash_span(const std::vector<T>& v,
                        std::uint64_t h = 1469598103934665603ull) {
  const auto* p = reinterpret_cast<const unsigned char*>(v.data());
  for (std::size_t i = 0; i < v.size() * sizeof(T); ++i) {
    h ^= p[i];
    h *= 1099511628211ull;
  }
  return h;
}

// Direct one-shot reference on a fresh fault-free device.
std::vector<double> direct_spmv(const CsrD& a, const std::vector<double>& x) {
  vgpu::Device dev;
  std::vector<double> y(static_cast<std::size_t>(a.num_rows));
  core::merge::spmv(dev, a, x, y);
  return y;
}

// ---------------------------------------------------------------------------
// Device-loss failover.

TEST(ServeChaos, DeviceLossFailoverPreservesAnswersBitwise) {
  CleanFaultEnv env;
  const auto a = make_matrix(5);
  auto cfg = test_config(/*threads=*/1, /*batch_window=*/1);
  cfg.chaos = vgpu::ChaosSchedule::parse("lose:dev=0@launch=1");
  cfg.chaos_enabled = 1;
  Engine engine(cfg);
  const MatrixHandle h = engine.register_matrix(a);

  constexpr std::size_t kRequests = 6;
  std::vector<std::future<SpmvResult>> futures;
  for (std::size_t j = 0; j < kRequests; ++j) {
    futures.push_back(engine.submit_spmv(h, random_x(a, 100 + j)));
  }
  for (std::size_t j = 0; j < kRequests; ++j) {
    const SpmvResult r = futures[j].get();  // must not throw: failover covers
    EXPECT_EQ(r.y, direct_spmv(a, random_x(a, 100 + j)))
        << "request " << j << " diverged after failover";
  }
  engine.shutdown();
  const auto s = engine.stats();
  EXPECT_EQ(s.completed, static_cast<long long>(kRequests));
  EXPECT_EQ(s.failed, 0);
  EXPECT_EQ(s.failovers, 1) << "the lone armed loss quarantines one device";
}

TEST(ServeChaos, FailoverBudgetExhaustionSettlesTheBatchAndRecovers) {
  CleanFaultEnv env;
  const auto a = make_matrix(6);
  auto cfg = test_config(1, 1);
  cfg.chaos = vgpu::ChaosSchedule::parse("lose@launch=1");  // every device
  cfg.chaos_enabled = 1;
  cfg.max_failovers = 0;  // first loss exhausts the budget
  Engine engine(cfg);
  const MatrixHandle h = engine.register_matrix(a);

  auto f1 = engine.submit_spmv(h, random_x(a, 1));
  EXPECT_THROW(f1.get(), vgpu::DeviceLostError)
      << "with no failover budget the loss settles the batch";

  // The worker was still re-provisioned: service recovers for later
  // requests (replacements are never re-armed with the schedule).
  auto f2 = engine.submit_spmv(h, random_x(a, 2));
  EXPECT_EQ(f2.get().y, direct_spmv(a, random_x(a, 2)));

  engine.shutdown();
  const auto s = engine.stats();
  EXPECT_EQ(s.failed, 1);
  EXPECT_EQ(s.completed, 1);
  EXPECT_EQ(s.failovers, 1);
}

TEST(ServeChaos, ShardedFleetSurvivesPermanentDeviceLoss) {
  // 4-device fleet, every device armed to die permanently at its 3rd
  // kernel launch: a shard's plan build, then one launch per execute, so
  // the loss lands on the second request the device serves.  Shards are re-placed by slot replacement, so every
  // admitted request must still settle with the bitwise fault-free
  // answer and zero drops — the chaos harness invariant, now across a
  // fleet instead of one worker pool.
  CleanFaultEnv env;
  const auto a = make_matrix(21);
  const auto b = make_matrix(22);
  auto cfg = test_config(2, 1);
  cfg.devices = 4;
  cfg.shard_min_nnz = 1024;  // 4800 nnz shards 2-wide
  cfg.max_failovers = 8;
  cfg.chaos = vgpu::ChaosSchedule::parse("lose@launch=3");
  cfg.chaos_enabled = 1;
  Engine engine(cfg);
  const MatrixHandle ha = engine.register_matrix(a);
  const MatrixHandle hb = engine.register_matrix(b);
  {
    const auto s = engine.stats();
    ASSERT_EQ(s.devices.size(), 4u);
    EXPECT_EQ(s.sharded_matrices, 2);
  }

  constexpr std::size_t kRequests = 24;
  std::vector<std::future<SpmvResult>> futures;
  for (std::size_t j = 0; j < kRequests; ++j) {
    const bool first = (j % 2 == 0);
    futures.push_back(engine.submit_spmv(first ? ha : hb,
                                         random_x(first ? a : b, 300 + j)));
  }
  for (std::size_t j = 0; j < kRequests; ++j) {
    const bool first = (j % 2 == 0);
    const SpmvResult r = futures[j].get();  // failover must cover the loss
    EXPECT_EQ(r.y, direct_spmv(first ? a : b, random_x(first ? a : b, 300 + j)))
        << "request " << j << " diverged after sharded failover";
  }
  engine.shutdown();

  const auto s = engine.stats();
  EXPECT_EQ(s.completed, static_cast<long long>(kRequests));
  EXPECT_EQ(s.failed, 0) << "every admitted request settles with a value";
  EXPECT_GE(s.failovers, 1) << "the armed losses must actually fire";
  EXPECT_LE(s.failovers, 8);
  long long lost = 0;
  for (const auto& d : s.devices) lost += d.lost;
  EXPECT_EQ(lost, s.failovers) << "per-device loss counters track failovers";
}

// ---------------------------------------------------------------------------
// Retry budgets + modeled backoff.

TEST(ServeChaos, RetryBudgetBoundsTransientFaults) {
  CleanFaultEnv env;
  const auto a = make_matrix(7);

  {  // Budget of one attempt: the injected OOM settles the request.
    auto cfg = test_config(1, 1);
    cfg.chaos = vgpu::ChaosSchedule::parse("oom@alloc=1");
    cfg.chaos_enabled = 1;
    cfg.retry.max_attempts = 1;
    Engine engine(cfg);
    const MatrixHandle h = engine.register_matrix(a);
    auto f = engine.submit_spmv(h, random_x(a, 3));
    EXPECT_THROW(f.get(), vgpu::DeviceOomError);
    engine.shutdown();
    const auto s = engine.stats();
    EXPECT_EQ(s.retries, 0);
    EXPECT_EQ(s.failed, 1);
  }
  {  // One retry in the budget: the same fault is absorbed transparently.
    auto cfg = test_config(1, 1);
    cfg.chaos = vgpu::ChaosSchedule::parse("oom@alloc=1");
    cfg.chaos_enabled = 1;
    cfg.retry.max_attempts = 2;
    Engine engine(cfg);
    const MatrixHandle h = engine.register_matrix(a);
    auto f = engine.submit_spmv(h, random_x(a, 3));
    EXPECT_EQ(f.get().y, direct_spmv(a, random_x(a, 3)));
    engine.shutdown();
    const auto s = engine.stats();
    EXPECT_EQ(s.retries, 1);
    EXPECT_EQ(s.completed, 1);
    EXPECT_EQ(s.failed, 0);
  }
}

TEST(ServeChaos, BackoffIsChargedIntoModeledTimeExactly) {
  CleanFaultEnv env;
  const auto a = make_matrix(8);
  auto cfg = test_config(1, 1);
  cfg.retry.max_attempts = 4;
  cfg.retry.backoff_base_ms = 0.5;
  cfg.retry.backoff_multiplier = 2.0;
  cfg.retry.backoff_max_ms = 8.0;
  cfg.retry.jitter_frac = 0.25;

  auto ref_cfg = cfg;  // fault-free twin
  Engine ref(ref_cfg);
  const MatrixHandle h = ref.register_matrix(a);
  const SpmvResult r_ref = ref.submit_spmv(h, random_x(a, 4)).get();
  ref.shutdown();

  cfg.chaos = vgpu::ChaosSchedule::parse("oom@alloc=1");
  cfg.chaos_enabled = 1;
  Engine engine(cfg);
  ASSERT_EQ(engine.register_matrix(a), h) << "handles are content-addressed";
  const SpmvResult r = engine.submit_spmv(h, random_x(a, 4)).get();
  engine.shutdown();

  EXPECT_EQ(r.y, r_ref.y);
  // The first admitted request's jitter salt is its handle (admit_seq 0),
  // so the exact modeled surcharge is reproducible from the policy alone.
  const double expected_backoff = cfg.retry.backoff_ms(1, h);
  EXPECT_GT(expected_backoff, 0.0);
  EXPECT_EQ(r.modeled_ms, r_ref.modeled_ms + expected_backoff)
      << "backoff must be charged into modeled time, bit for bit";
  EXPECT_EQ(engine.stats().retries, 1);
}

TEST(ServeChaos, DeadlineIsRecheckedBeforeEachRetry) {
  CleanFaultEnv env;
  // Integrity guards on: a repeating bit flip corrupts every allocation's
  // window, so every attempt fails verification and the retry loop spins
  // until the request's deadline — the re-check must convert it to
  // RequestTimeoutError instead of burning the (huge) remaining budget.
  EnvVarGuard integrity("MPS_INTEGRITY_CHECK", "1");
  const auto a = make_matrix(9);
  auto cfg = test_config(1, 1);
  cfg.chaos = vgpu::ChaosSchedule::parse("flip@alloc=1,every=1");
  cfg.chaos_enabled = 1;
  cfg.retry.max_attempts = 1000000;  // deadline, not budget, must stop it
  cfg.retry.backoff_base_ms = 0.001;
  cfg.retry.backoff_max_ms = 0.001;
  Engine engine(cfg);
  const MatrixHandle h = engine.register_matrix(a);

  SubmitOptions opts;
  opts.request_timeout = std::chrono::milliseconds(25);
  auto f = engine.submit_spmv(h, random_x(a, 5), opts);
  EXPECT_THROW(f.get(), RequestTimeoutError);
  engine.shutdown();
  const auto s = engine.stats();
  EXPECT_EQ(s.timed_out, 1);
  EXPECT_EQ(s.completed, 0);
  EXPECT_EQ(s.failed, 0) << "a deadline conversion is a timeout, not a failure";
  EXPECT_GE(s.retries, 1) << "the fault was retried before the deadline hit";
}

TEST(ServeChaos, OneShotCorruptionIsRetriedToABitwiseCleanAnswer) {
  CleanFaultEnv env;
  EnvVarGuard integrity("MPS_INTEGRITY_CHECK", "1");
  const auto a = make_matrix(10);
  auto cfg = test_config(1, 1);
  cfg.chaos = vgpu::ChaosSchedule::parse("flip@alloc=1");
  cfg.chaos_enabled = 1;
  cfg.retry.max_attempts = 4;
  Engine engine(cfg);
  const MatrixHandle h = engine.register_matrix(a);
  auto f = engine.submit_spmv(h, random_x(a, 6));
  EXPECT_EQ(f.get().y, direct_spmv(a, random_x(a, 6)))
      << "a retried corruption must never leak into the answer";
  engine.shutdown();
  EXPECT_EQ(engine.stats().completed, 1);
  EXPECT_EQ(engine.stats().failed, 0);
}

// ---------------------------------------------------------------------------
// Circuit breaker.

TEST(CircuitBreakerUnit, StateMachineTripsProbesAndRecloses) {
  CleanFaultEnv env;
  CircuitBreakerConfig cfg;
  cfg.failure_threshold = 2;
  cfg.cooldown_ms = 100.0;
  CircuitBreaker b(cfg);
  ASSERT_TRUE(b.enabled());
  const std::uint64_t key = 7;

  EXPECT_NO_THROW(b.admit(key, 0.0));
  EXPECT_FALSE(b.on_failure(key, 0.0));  // 1 of 2
  EXPECT_TRUE(b.on_failure(key, 0.0));   // trips open
  EXPECT_EQ(b.state(key), CircuitBreaker::State::kOpen);
  EXPECT_THROW(b.admit(key, 50.0), CircuitOpenError);
  EXPECT_THROW(b.admit(key, 99.9), CircuitOpenError);

  EXPECT_NO_THROW(b.admit(key, 100.0));  // cooldown elapsed: the probe
  EXPECT_EQ(b.state(key), CircuitBreaker::State::kHalfOpen);
  EXPECT_THROW(b.admit(key, 150.0), CircuitOpenError)
      << "only one probe is in flight";
  EXPECT_TRUE(b.on_failure(key, 150.0)) << "a failed probe reopens";
  EXPECT_EQ(b.state(key), CircuitBreaker::State::kOpen);
  EXPECT_THROW(b.admit(key, 249.9), CircuitOpenError);

  EXPECT_NO_THROW(b.admit(key, 250.0));  // second probe
  EXPECT_TRUE(b.on_success(key)) << "a healthy probe recloses";
  EXPECT_EQ(b.state(key), CircuitBreaker::State::kClosed);
  EXPECT_NO_THROW(b.admit(key, 250.0));

  const auto s = b.stats();
  EXPECT_EQ(s.opened, 2);
  EXPECT_EQ(s.probes, 2);
  EXPECT_EQ(s.reclosed, 1);
  EXPECT_EQ(s.fail_fast, 4);
}

TEST(ServeChaos, BreakerFailsFastAtAdmissionWhileOpen) {
  CleanFaultEnv env;
  const auto a = make_matrix(11);
  auto cfg = test_config(1, 1);
  cfg.chaos = vgpu::ChaosSchedule::parse("oom@alloc=1");
  cfg.chaos_enabled = 1;
  cfg.retry.max_attempts = 1;        // the OOM settles the first request
  cfg.breaker.failure_threshold = 1;  // ... and trips the breaker
  cfg.breaker.cooldown_ms = 1e9;      // modeled clock will never reach it
  Engine engine(cfg);
  const MatrixHandle h = engine.register_matrix(a);

  auto f = engine.submit_spmv(h, random_x(a, 7));
  EXPECT_THROW(f.get(), vgpu::DeviceOomError);
  // Settlement is asynchronous only up to the future: once it resolved,
  // the breaker has been fed.
  EXPECT_THROW(engine.submit_spmv(h, random_x(a, 8)), CircuitOpenError)
      << "an open breaker rejects synchronously at admission";
  engine.shutdown();
  const auto s = engine.stats();
  EXPECT_EQ(s.breaker.opened, 1);
  EXPECT_GE(s.breaker.fail_fast, 1);
}

TEST(ServeChaos, BreakerProbeReclosesAfterCooldown) {
  CleanFaultEnv env;
  const auto a = make_matrix(12);
  auto cfg = test_config(1, 1);
  cfg.chaos = vgpu::ChaosSchedule::parse("oom@alloc=1");
  cfg.chaos_enabled = 1;
  cfg.retry.max_attempts = 1;
  cfg.breaker.failure_threshold = 1;
  cfg.breaker.cooldown_ms = 0.0;  // instantly eligible for the probe
  Engine engine(cfg);
  const MatrixHandle h = engine.register_matrix(a);

  auto f = engine.submit_spmv(h, random_x(a, 9));
  EXPECT_THROW(f.get(), vgpu::DeviceOomError);
  // The injected fault was one-shot, so the probe comes back healthy and
  // recloses the breaker.
  auto probe = engine.submit_spmv(h, random_x(a, 10));
  EXPECT_EQ(probe.get().y, direct_spmv(a, random_x(a, 10)));
  engine.shutdown();
  const auto s = engine.stats();
  EXPECT_EQ(s.breaker.opened, 1);
  EXPECT_EQ(s.breaker.probes, 1);
  EXPECT_EQ(s.breaker.reclosed, 1);
}

// ---------------------------------------------------------------------------
// Load shedding.

TEST(ServeChaos, LowPriorityShedsPastTheWatermark) {
  CleanFaultEnv env;
  const auto a = make_matrix(13);
  auto cfg = test_config(2, 1, /*queue_cap=*/8);
  cfg.shed_watermark = 0.5;  // shed threshold: depth 4
  cfg.start_paused = true;   // build the queue state deterministically
  Engine engine(cfg);
  const MatrixHandle h = engine.register_matrix(a);

  SubmitOptions low;
  low.priority = Priority::kLow;
  SubmitOptions high;
  high.priority = Priority::kHigh;

  std::vector<std::future<SpmvResult>> futures;
  // Below the watermark kLow admits like anyone else.
  futures.push_back(engine.submit_spmv(h, random_x(a, 0), low));
  for (std::uint64_t j = 1; j <= 3; ++j) {
    futures.push_back(engine.submit_spmv(h, random_x(a, j)));
  }
  // Depth 4 == watermark: kLow sheds, kNormal and kHigh still admit.
  EXPECT_THROW(engine.submit_spmv(h, random_x(a, 4), low), LoadShedError);
  futures.push_back(engine.submit_spmv(h, random_x(a, 5)));
  futures.push_back(engine.submit_spmv(h, random_x(a, 6), high));

  engine.resume();
  for (auto& f : futures) EXPECT_NO_THROW(f.get());
  engine.shutdown();
  const auto s = engine.stats();
  EXPECT_EQ(s.shed, 1);
  EXPECT_EQ(s.completed, static_cast<long long>(futures.size()));
}

// ---------------------------------------------------------------------------
// Degraded mode under memory pressure.

TEST(ServeChaos, MemoryPressureEntersDegradedMode) {
  CleanFaultEnv env;
  const auto a = make_matrix(14);
  auto cfg = test_config(1, 1);
  cfg.chaos = vgpu::ChaosSchedule::parse("oom@alloc=1");
  cfg.chaos_enabled = 1;
  cfg.degrade_recovery = 100;  // won't recover within this test
  Engine engine(cfg);
  const MatrixHandle h = engine.register_matrix(a);

  auto f = engine.submit_spmv(h, random_x(a, 11));
  EXPECT_EQ(f.get().y, direct_spmv(a, random_x(a, 11)))
      << "the degraded plan-less path must stay bitwise-identical";
  const auto s = engine.stats();
  EXPECT_TRUE(s.degraded);
  EXPECT_EQ(s.degraded_entered, 1);
  EXPECT_EQ(s.plan_cache.capacity_bytes, (64u << 20) / 4)
      << "degraded mode shrinks the plan cache to degrade_cache_frac";
  engine.shutdown();
}

TEST(ServeChaos, DegradedModeRecoversAfterConsecutiveSuccesses) {
  CleanFaultEnv env;
  const auto a = make_matrix(15);
  auto cfg = test_config(1, 1);
  cfg.chaos = vgpu::ChaosSchedule::parse("oom@alloc=1");
  cfg.chaos_enabled = 1;
  cfg.degrade_recovery = 2;
  Engine engine(cfg);
  const MatrixHandle h = engine.register_matrix(a);

  for (std::uint64_t j = 0; j < 3; ++j) {
    auto f = engine.submit_spmv(h, random_x(a, 20 + j));
    EXPECT_EQ(f.get().y, direct_spmv(a, random_x(a, 20 + j)));
  }
  engine.shutdown();
  const auto s = engine.stats();
  EXPECT_FALSE(s.degraded) << "recovery streak must exit degraded mode";
  EXPECT_EQ(s.degraded_entered, 1);
  EXPECT_EQ(s.plan_cache.capacity_bytes, 64u << 20)
      << "recovery restores the full plan-cache budget";
  EXPECT_EQ(s.completed, 3);
}

// ---------------------------------------------------------------------------
// Trace determinism (serve/trace): identically-seeded synthetic traces are
// bitwise-stable across runs and across generating threads, and replaying
// one through differently-shaped engines yields bitwise-identical results.

bool traces_equal(const std::vector<TraceOp>& a, const std::vector<TraceOp>& b) {
  if (a.size() != b.size()) return false;
  for (std::size_t i = 0; i < a.size(); ++i) {
    if (a[i].kind != b[i].kind || a[i].matrix != b[i].matrix ||
        a[i].matrix_b != b[i].matrix_b || a[i].x_seed != b[i].x_seed) {
      return false;
    }
  }
  return true;
}

TEST(TraceDeterminism, SyntheticTraceIsStableAcrossRunsAndThreads) {
  TraceConfig cfg;
  cfg.requests = 300;
  cfg.spadd_percent = 6;
  cfg.spgemm_percent = 2;
  cfg.seed = 123;
  const auto reference = synthetic_trace(cfg, 5);
  ASSERT_EQ(reference.size(), cfg.requests);

  EXPECT_TRUE(traces_equal(reference, synthetic_trace(cfg, 5)))
      << "same seed, same trace — repeated calls";

  std::vector<std::vector<TraceOp>> from_threads(4);
  {
    std::vector<std::thread> threads;
    for (auto& out : from_threads) {
      threads.emplace_back([&cfg, &out] { out = synthetic_trace(cfg, 5); });
    }
    for (auto& t : threads) t.join();
  }
  for (const auto& trace : from_threads) {
    EXPECT_TRUE(traces_equal(reference, trace))
        << "trace generation must not depend on the generating thread";
  }

  auto other = cfg;
  other.seed = 124;
  EXPECT_FALSE(traces_equal(reference, synthetic_trace(other, 5)))
      << "a different seed must actually change the trace";
}

TEST(TraceDeterminism, ReplayIsBitwiseStableAcrossEngineShapes) {
  CleanFaultEnv env;
  std::vector<CsrD> tenants;
  for (std::uint64_t seed = 1; seed <= 3; ++seed) {
    tenants.push_back(make_matrix(seed));
  }
  TraceConfig tcfg;
  tcfg.requests = 120;
  tcfg.spadd_percent = 6;
  tcfg.spgemm_percent = 2;
  tcfg.seed = 9;
  const auto trace = synthetic_trace(tcfg, tenants.size());

  std::vector<std::uint64_t> reference;
  for (const auto& [threads, window] :
       std::vector<std::pair<unsigned, int>>{{1, 1}, {4, 8}}) {
    Engine engine(test_config(threads, window));
    std::vector<MatrixHandle> handles;
    for (const auto& a : tenants) handles.push_back(engine.register_matrix(a));

    std::vector<std::future<SpmvResult>> spmv_futs;
    std::vector<std::future<MatrixResult>> mat_futs;
    for (const auto& op : trace) {
      switch (op.kind) {
        case OpKind::kSpmv:
          spmv_futs.push_back(engine.submit_spmv(
              handles[op.matrix], random_x(tenants[op.matrix], op.x_seed)));
          break;
        case OpKind::kSpadd:
          mat_futs.push_back(
              engine.submit_spadd(handles[op.matrix], handles[op.matrix_b]));
          break;
        case OpKind::kSpgemm:
          mat_futs.push_back(
              engine.submit_spgemm(handles[op.matrix], handles[op.matrix_b]));
          break;
      }
    }
    std::vector<std::uint64_t> hashes;
    std::size_t si = 0, mi = 0;
    for (const auto& op : trace) {
      if (op.kind == OpKind::kSpmv) {
        hashes.push_back(hash_span(spmv_futs[si++].get().y));
      } else {
        const MatrixResult r = mat_futs[mi++].get();
        std::uint64_t h = hash_span(r.c.row_offsets);
        h = hash_span(r.c.col, h);
        hashes.push_back(hash_span(r.c.val, h));
      }
    }
    engine.shutdown();
    if (reference.empty()) {
      reference = std::move(hashes);
    } else {
      EXPECT_EQ(hashes, reference)
          << "threads=" << threads << " window=" << window
          << " diverged from the single-threaded replay";
    }
  }
}

}  // namespace
}  // namespace mps::serve

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
#include <cstring>
#include <future>
#include <string>
#include <thread>
#include <vector>

#include "core/spadd.hpp"
#include "core/spgemm.hpp"
#include "core/spmv.hpp"
#include "env_guard.hpp"
#include "oracle.hpp"
#include "resilience/integrity.hpp"
#include "serve/engine.hpp"
#include "serve/trace.hpp"
#include "sparse/convert.hpp"
#include "test_matrices.hpp"
#include "util/rng.hpp"
#include "vgpu/chaos.hpp"
#include "vgpu/device.hpp"
#include "vgpu/memory_model.hpp"
#include "workloads/suite.hpp"

namespace mps::serve {
namespace {

using sparse::coo_to_csr;
using sparse::CsrD;
using testing::EnvVarGuard;

// The engine's devices read the fault-injection and integrity knobs from
// the environment; these tests need a clean slate regardless of what the
// invoking shell exported.
constexpr const char* kFaultEnvVars[] = {
    "MPS_FAULT_ALLOC_N",       "MPS_FAULT_BYTE_LIMIT",
    "MPS_FAULT_BITFLIP_ALLOC", "MPS_FAULT_BITFLIP_MASK",
    "MPS_FAULT_CAPACITY",      "MPS_INTEGRITY_CHECK",
    "MPS_AUTOTUNE",
};

class CleanFaultEnv {
 public:
  CleanFaultEnv() : guards_(kFaultEnvVars, nullptr) {}

 private:
  testing::EnvVarGuards guards_;
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
  // Fault-layer values spelled out: the tests below arm only the
  // mechanism they exercise.
  cfg.retry.max_attempts = 2;
  cfg.retry.backoff_base_ms = 0.5;
  cfg.retry.backoff_max_ms = 8.0;
  cfg.breaker.failure_threshold = 0;  // off unless the test arms it
  cfg.breaker.cooldown_ms = 250.0;
  cfg.shed_watermark = 0.0;           // off unless the test arms it
  cfg.max_failovers = 8;
  cfg.degrade_recovery = 0;           // off unless the test arms it
  cfg.chaos_enabled = 0;
  return cfg;
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
  // Both SpMV request shapes retry: a lone SpMV and a coalesced batch
  // (one spmm whose modeled time, surcharge included, splits evenly over
  // its requests).  A served SpAdd absorbs the same fault in its kernel
  // (SpaddAbsorbsInjectedOomWithoutRetry below).
  CleanFaultEnv env;
  const auto a = make_matrix(8);
  enum class Shape { kLone, kBatch };
  for (const Shape shape : {Shape::kLone, Shape::kBatch}) {
    SCOPED_TRACE(shape == Shape::kLone ? "lone spmv" : "coalesced spmv batch");
    // A power-of-two batch keeps the per-request split exact, so the
    // expectation below can undo it bit for bit.
    const std::size_t n = shape == Shape::kBatch ? 4 : 1;
    auto cfg = test_config(1, static_cast<int>(n));
    cfg.retry.max_attempts = 4;
    cfg.retry.backoff_base_ms = 0.5;
    cfg.retry.backoff_multiplier = 2.0;
    cfg.retry.backoff_max_ms = 8.0;
    cfg.retry.jitter_frac = 0.25;
    cfg.start_paused = true;  // the batch forms before anything runs

    struct Run {
      MatrixHandle h = 0;
      std::vector<std::vector<double>> y;  // SpMV answers
      std::vector<double> modeled_ms;      // one per request
      long long retries = 0;
    };
    const auto run = [&](const EngineConfig& run_cfg) {
      Run out;
      Engine engine(run_cfg);
      out.h = engine.register_matrix(a);
      std::vector<std::future<SpmvResult>> futures;
      for (std::size_t j = 0; j < n; ++j) {
        futures.push_back(engine.submit_spmv(out.h, random_x(a, 4 + j)));
      }
      engine.resume();
      for (auto& f : futures) {
        SpmvResult r = f.get();
        EXPECT_EQ(r.batch_size, static_cast<int>(n));
        out.y.push_back(std::move(r.y));
        out.modeled_ms.push_back(r.modeled_ms);
      }
      engine.shutdown();
      out.retries = engine.stats().retries;
      return out;
    };

    const Run ref = run(cfg);  // fault-free twin
    cfg.chaos = vgpu::ChaosSchedule::parse("oom@alloc=1");
    cfg.chaos_enabled = 1;
    const Run got = run(cfg);

    ASSERT_EQ(got.h, ref.h) << "handles are content-addressed";
    EXPECT_EQ(got.y, ref.y);
    EXPECT_EQ(ref.retries, 0);
    EXPECT_EQ(got.retries, 1);
    // The first admitted request's jitter salt is its handle (admit_seq
    // 0), and a batch backs off with its head's salt, so the exact
    // modeled surcharge is reproducible from the policy alone.
    const double expected_backoff = cfg.retry.backoff_ms(1, ref.h);
    EXPECT_GT(expected_backoff, 0.0);
    ASSERT_EQ(got.modeled_ms.size(), n);
    ASSERT_EQ(ref.modeled_ms.size(), n);
    const double dn = static_cast<double>(n);
    for (std::size_t j = 0; j < n; ++j) {
      EXPECT_EQ(got.modeled_ms[j],
                (ref.modeled_ms[j] * dn + expected_backoff) / dn)
          << "backoff must be charged into modeled time, bit for bit";
    }
  }
}

// A served SpAdd absorbs a one-shot injected OOM inside its kernel: the
// row block steps down to row chunks (core::merge::spadd_row_block), so
// the engine neither retries nor charges backoff, and C is bitwise the
// fault-free twin's.  The fault lands on the block's first reservation,
// before any launch, so the modeled time is the twin's too.
TEST(ServeChaos, SpaddAbsorbsInjectedOomWithoutRetry) {
  CleanFaultEnv env;
  const auto a = make_matrix(8);
  const auto b = make_matrix(18);
  auto cfg = test_config(1, 1);
  cfg.start_paused = true;
  struct Run {
    MatrixResult r;
    long long retries = 0;
  };
  const auto run = [&](const EngineConfig& run_cfg) {
    Run out;
    Engine engine(run_cfg);
    const MatrixHandle h = engine.register_matrix(a);
    auto f = engine.submit_spadd(h, engine.register_matrix(b));
    engine.resume();
    out.r = f.get();
    engine.shutdown();
    out.retries = engine.stats().retries;
    return out;
  };
  const Run ref = run(cfg);
  cfg.chaos = vgpu::ChaosSchedule::parse("oom@alloc=1");
  cfg.chaos_enabled = 1;
  const Run got = run(cfg);
  EXPECT_TRUE(testing::bitwise_equal(got.r.c, ref.r.c));
  EXPECT_EQ(ref.retries, 0);
  EXPECT_EQ(got.retries, 0);
  EXPECT_EQ(got.r.modeled_ms, ref.r.modeled_ms);
}

// A fault the row-block step-down cannot absorb goes through the engine's
// retry.  The devices are capped (MPS_FAULT_CAPACITY) below the whole
// block's footprint, so every attempt's block overflows on its first
// reservation and steps down to row chunks; the injected OOM then lands
// on the first chunk's first reservation (allocation 2), where no
// further step-down exists.  The engine retries once, the second attempt
// steps down like the fault-free twin, and C and modeled time are the
// twin's, the latter plus exactly the policy's backoff.
TEST(ServeChaos, MatrixOpOomInsideStepDownIsRetriedWithExactBackoff) {
  CleanFaultEnv env;
  EnvVarGuard capacity("MPS_FAULT_CAPACITY", "65536");
  const auto a = make_matrix(8);
  const auto b = make_matrix(18);
  for (const bool spgemm : {false, true}) {
    SCOPED_TRACE(spgemm ? "spgemm" : "spadd");
    auto cfg = test_config(1, 1);
    cfg.start_paused = true;
    cfg.retry.max_attempts = 3;
    cfg.retry.jitter_frac = 0.25;
    struct Run {
      MatrixHandle h = 0;
      MatrixResult r;
      long long retries = 0;
    };
    const auto run = [&](const EngineConfig& run_cfg) {
      Run out;
      Engine engine(run_cfg);
      out.h = engine.register_matrix(a);
      const MatrixHandle hb = engine.register_matrix(b);
      auto f = spgemm ? engine.submit_spgemm(out.h, hb)
                      : engine.submit_spadd(out.h, hb);
      engine.resume();
      out.r = f.get();
      engine.shutdown();
      out.retries = engine.stats().retries;
      return out;
    };
    const Run ref = run(cfg);
    cfg.chaos = vgpu::ChaosSchedule::parse("oom@alloc=2");
    cfg.chaos_enabled = 1;
    const Run got = run(cfg);
    ASSERT_EQ(got.h, ref.h);
    EXPECT_EQ(ref.retries, 0) << "the twin's overflow is absorbed in-kernel";
    EXPECT_EQ(got.retries, 1);
    EXPECT_TRUE(testing::bitwise_equal(got.r.c, ref.r.c));
    const double expected_backoff = cfg.retry.backoff_ms(1, ref.h);
    EXPECT_GT(expected_backoff, 0.0);
    EXPECT_EQ(got.r.modeled_ms, ref.r.modeled_ms + expected_backoff)
        << "backoff must be charged into modeled time, bit for bit";
  }
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
      << "degraded mode shrinks the plan cache to a quarter of its budget";
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

// Served SpGEMM under memory pressure: Cantilever at scale 0.01 (2.5M
// intermediate products) overflows an 8 MiB device as one flat block,
// and a 4 MiB slot as one placement block.  Each block steps down to row
// chunks on its own device, so the request completes bitwise equal to
// flat on a roomy device, with no failure and no degraded-mode entry.
TEST(ServeChaos, SpgemmCompletesUnderMemoryPressure) {
  CleanFaultEnv env;
  const CsrD a = workloads::suite_entry("Cantilever", 0.01).matrix;
  CsrD flat;
  {
    vgpu::Device roomy;
    core::merge::spgemm(roomy, a, a, flat);
  }
  const std::pair<int, const char*> cases[] = {{0, "8388608"},
                                               {4, "4194304"}};
  for (const auto& [devices, capacity] : cases) {
    SCOPED_TRACE("devices " + std::to_string(devices) + ", capacity " +
                 capacity);
    // The cap applies when the engine constructs its devices.
    EnvVarGuard cap("MPS_FAULT_CAPACITY", capacity);
    auto cfg = test_config(/*threads=*/1, /*batch_window=*/1);
    cfg.devices = devices;
    Engine engine(cfg);
    const MatrixHandle h = engine.register_matrix(a);
    const MatrixResult r = engine.submit_spgemm(h, h).get();
    EXPECT_TRUE(testing::bitwise_equal(r.c, flat));
    engine.shutdown();
    const auto s = engine.stats();
    EXPECT_EQ(s.failed, 0);
    EXPECT_EQ(s.degraded_entered, 0);
  }
}

// SpAdd's memory-pressure rule end to end: a served A + A whose flat
// block overflows the device steps down to row chunks on its own device,
// unsharded and on a fleet, bitwise equal to flat on a roomy device.
TEST(ServeChaos, SpaddCompletesUnderMemoryPressure) {
  CleanFaultEnv env;
  const CsrD a = workloads::suite_entry("Cantilever", 0.01).matrix;
  CsrD flat;
  {
    vgpu::Device roomy;
    core::merge::spadd_csr(roomy, a, a, flat);
  }
  const std::pair<int, const char*> cases[] = {{0, "1048576"},
                                               {4, "262144"}};
  for (const auto& [devices, capacity] : cases) {
    SCOPED_TRACE("devices " + std::to_string(devices) + ", capacity " +
                 capacity);
    // The cap applies when the engine constructs its devices.
    EnvVarGuard cap("MPS_FAULT_CAPACITY", capacity);
    auto cfg = test_config(/*threads=*/1, /*batch_window=*/1);
    cfg.devices = devices;
    Engine engine(cfg);
    const MatrixHandle h = engine.register_matrix(a);
    const MatrixResult r = engine.submit_spadd(h, h).get();
    EXPECT_TRUE(testing::bitwise_equal(r.c, flat));
    engine.shutdown();
    const auto s = engine.stats();
    EXPECT_EQ(s.failed, 0);
    EXPECT_EQ(s.degraded_entered, 0);
  }
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
        hashes.push_back(
            resilience::checksum_span<double>(spmv_futs[si++].get().y));
      } else {
        const MatrixResult r = mat_futs[mi++].get();
        std::uint64_t h = resilience::checksum_span<index_t>(r.c.row_offsets);
        h = resilience::checksum_span<index_t>(r.c.col, h);
        hashes.push_back(resilience::checksum_span<double>(r.c.val, h));
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

// Tests for mps::serve — the concurrent batched serving engine.
//
// The load-bearing guarantee is differential: answers produced through
// the engine (any thread count, any batch window, any arrival order)
// must be BIT-identical to direct one-shot kernel calls, on every
// structural regime the fuzz suite covers.  Around that sit the
// operational contracts: the plan cache charges real bytes and evicts
// LRU, the bounded queue never exceeds its cap, timed-out requests fail
// without running, injected faults are retried once, and shutdown
// settles every admitted request with a value or a typed error.
#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <cmath>
#include <cstdlib>
#include <future>
#include <iterator>
#include <optional>
#include <span>
#include <sstream>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include "baselines/seq.hpp"
#include "telemetry/span.hpp"
#include "core/spadd.hpp"
#include "core/spgemm.hpp"
#include "core/spmv.hpp"
#include "serve/engine.hpp"
#include "serve/plan_cache.hpp"
#include "serve/trace.hpp"
#include "sparse/convert.hpp"
#include "test_matrices.hpp"
#include "vgpu/device.hpp"
#include "workloads/generators.hpp"

namespace mps::serve {
namespace {

using sparse::coo_to_csr;
using sparse::CsrD;

// The structural regimes of tests/fuzz_ops_test.cpp.
enum class Regime {
  kUniform,
  kBanded,
  kPowerLaw,
  kHypersparse,
  kNearDense,
  kRectWide,
  kRectTall,
};

const char* regime_name(Regime r) {
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

CsrD make_matrix(Regime r, std::uint64_t seed) {
  util::Rng rng(seed);
  switch (r) {
    case Regime::kUniform:
      return coo_to_csr(testing::random_coo(rng, 400, 400, 4800));
    case Regime::kBanded:
      return workloads::fem_banded(500, 18.0, 4.0, seed);
    case Regime::kPowerLaw:
      return testing::random_powerlaw_csr(rng, 500, 500, 6.0);
    case Regime::kHypersparse:
      return coo_to_csr(testing::random_coo(rng, 2000, 2000, 300));
    case Regime::kNearDense:
      return coo_to_csr(testing::random_coo(rng, 60, 60, 2800));
    case Regime::kRectWide:
      return coo_to_csr(testing::random_coo(rng, 64, 3000, 2500));
    case Regime::kRectTall:
      return coo_to_csr(testing::random_coo(rng, 3000, 64, 2500));
  }
  return {};
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
  cfg.autotune = 0;  // static merge path unless a test opts in
  return cfg;
}

// ---------------------------------------------------------------------------
// Differential: engine output vs direct kernel calls, bitwise.

class ServeDifferentialTest : public ::testing::TestWithParam<Regime> {};

TEST_P(ServeDifferentialTest, BatchedAndUnbatchedBitIdenticalToDirectSpmv) {
  const Regime regime = GetParam();
  const auto a = make_matrix(regime, 5);
  constexpr std::size_t kRequests = 11;  // one full window + a remainder

  // Direct one-shot references, one per distinct input vector.
  vgpu::Device ref_dev;
  std::vector<std::vector<double>> xs, refs;
  for (std::size_t j = 0; j < kRequests; ++j) {
    xs.push_back(random_x(a, 100 + j));
    std::vector<double> y(static_cast<std::size_t>(a.num_rows));
    core::merge::spmv(ref_dev, a, xs.back(), y);
    refs.push_back(std::move(y));
  }

  for (const int window : {1, 8}) {
    auto cfg = test_config(/*threads=*/2, window);
    cfg.start_paused = true;  // queue everything, then release: the
                              // dispatcher sees a full coalescing window
    Engine engine(cfg);
    const MatrixHandle h = engine.register_matrix(a);
    std::vector<std::future<SpmvResult>> futures;
    for (std::size_t j = 0; j < kRequests; ++j) {
      futures.push_back(engine.submit_spmv(h, xs[j]));
    }
    engine.resume();
    int max_batch_seen = 1;
    for (std::size_t j = 0; j < kRequests; ++j) {
      SpmvResult r = futures[j].get();
      // Bit-identical: EXPECT_EQ on doubles, not NEAR.  spmm shares
      // spmv's tile geometry and accumulation order, so batching must
      // not perturb a single bit.
      ASSERT_EQ(r.y, refs[j]) << regime_name(regime) << " window " << window
                              << " request " << j;
      max_batch_seen = std::max(max_batch_seen, r.batch_size);
      if (window == 1) {
        EXPECT_EQ(r.batch_size, 1);
      }
    }
    if (window > 1) {
      // All requests were queued before release, so coalescing must
      // actually have happened — this is the batched code path.
      EXPECT_GT(max_batch_seen, 1) << regime_name(regime);
      EXPECT_GE(engine.stats().batches, 1);
    }
  }

  // Anchor to the sequential reference so both paths being wrong the
  // same way is ruled out.
  std::vector<double> seq(refs[0].size());
  baselines::seq::spmv(a, xs[0], seq);
  for (std::size_t i = 0; i < seq.size(); ++i) {
    ASSERT_NEAR(refs[0][i], seq[i], 1e-10) << regime_name(regime);
  }
}

INSTANTIATE_TEST_SUITE_P(
    Grid, ServeDifferentialTest,
    ::testing::Values(Regime::kUniform, Regime::kBanded, Regime::kPowerLaw,
                      Regime::kHypersparse, Regime::kNearDense,
                      Regime::kRectWide, Regime::kRectTall),
    [](const ::testing::TestParamInfo<Regime>& pinfo) {
      return regime_name(pinfo.param);
    });

TEST(ServeEngine, SpaddAndSpgemmMatchDirectKernels) {
  util::Rng rng(71);
  const auto a = coo_to_csr(testing::random_coo(rng, 300, 300, 3600));
  const auto b = coo_to_csr(testing::random_coo(rng, 300, 300, 3000));

  vgpu::Device dev;
  CsrD add_ref, gemm_ref;
  core::merge::spadd_csr(dev, a, b, add_ref);
  core::merge::spgemm(dev, a, b, gemm_ref);

  Engine engine(test_config(2, 4));
  const auto ha = engine.register_matrix(a);
  const auto hb = engine.register_matrix(b);
  auto add_f = engine.submit_spadd(ha, hb);
  auto gemm_f = engine.submit_spgemm(ha, hb);
  const CsrD add = add_f.get().c;
  const CsrD gemm = gemm_f.get().c;

  EXPECT_EQ(add.row_offsets, add_ref.row_offsets);
  EXPECT_EQ(add.col, add_ref.col);
  EXPECT_EQ(add.val, add_ref.val);
  EXPECT_EQ(gemm.row_offsets, gemm_ref.row_offsets);
  EXPECT_EQ(gemm.col, gemm_ref.col);
  EXPECT_EQ(gemm.val, gemm_ref.val);
}

// ---------------------------------------------------------------------------
// Concurrent plan sharing (satellite): one SpmvPlan, N executing threads.

TEST(ServePlanSharing, ConcurrentExecutesBitIdenticalToSerial) {
  const auto a = make_matrix(Regime::kPowerLaw, 31);
  constexpr int kThreads = 8;

  vgpu::Device build_dev;
  const auto plan = core::merge::spmv_plan(build_dev, a);
  ASSERT_TRUE(plan.valid());

  // Serial references through the same plan.
  std::vector<std::vector<double>> xs, refs;
  for (int t = 0; t < kThreads; ++t) {
    xs.push_back(random_x(a, 500 + static_cast<std::uint64_t>(t)));
    std::vector<double> y(static_cast<std::size_t>(a.num_rows));
    core::merge::spmv_execute(build_dev, a, xs.back(), y, plan);
    refs.push_back(std::move(y));
  }

  // N threads share the plan read-only, each with its own Device (the
  // engine's workers do exactly this via the plan cache).
  std::vector<std::vector<double>> ys(kThreads);
  std::vector<std::thread> threads;
  std::atomic<int> failures{0};
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&, t] {
      try {
        vgpu::Device dev;
        ys[t].resize(static_cast<std::size_t>(a.num_rows));
        for (int rep = 0; rep < 5; ++rep) {
          core::merge::spmv_execute(dev, a, xs[t], ys[t], plan);
        }
      } catch (...) {
        failures.fetch_add(1);
      }
    });
  }
  for (auto& th : threads) th.join();
  EXPECT_EQ(failures.load(), 0);
  for (int t = 0; t < kThreads; ++t) {
    ASSERT_EQ(ys[t], refs[t]) << "thread " << t;
  }
}

// ---------------------------------------------------------------------------
// Plan cache

TEST(PlanCache, HitsMissesEvictionsAndOversize) {
  vgpu::Device dev;
  util::Rng rng(91);
  const auto a = coo_to_csr(testing::random_coo(rng, 400, 400, 4000));
  const auto b = coo_to_csr(testing::random_coo(rng, 500, 500, 5000));

  // Entries charge TunedPlan::bytes(): the winner's plan arrays or
  // converted storage plus the decision record.
  const std::size_t a_bytes = autotune::TunedPlan(dev, a).bytes();
  const std::size_t b_bytes = autotune::TunedPlan(dev, b).bytes();

  // Capacity fits either plan alone but not both: B's insertion evicts A.
  PlanCache cache(std::max(a_bytes, b_bytes) + 16);
  bool hit = false;
  auto p1 = cache.get_or_build(dev, a, 1, &hit);
  EXPECT_FALSE(hit);
  EXPECT_EQ(cache.stats().bytes_in_use, a_bytes);
  auto p2 = cache.get_or_build(dev, a, 1, &hit);
  EXPECT_TRUE(hit);
  EXPECT_EQ(p1.get(), p2.get());  // the same cached plan, not a rebuild

  auto p3 = cache.get_or_build(dev, b, 2, &hit);
  EXPECT_FALSE(hit);
  auto s = cache.stats();
  EXPECT_EQ(s.hits, 1);
  EXPECT_EQ(s.misses, 2);
  EXPECT_EQ(s.evictions, 1);
  EXPECT_EQ(s.entries, 1u);
  EXPECT_EQ(s.bytes_in_use, b_bytes);  // exact after the eviction
  // The evicted plan survives through the caller's shared_ptr.
  EXPECT_EQ(p1->bytes(), a_bytes);

  // A plan larger than the whole capacity is served but never resident.
  PlanCache tiny(8);
  auto p4 = tiny.get_or_build(dev, a, 1, &hit);
  EXPECT_EQ(p4->bytes(), a_bytes);
  EXPECT_EQ(tiny.stats().oversize, 1);
  EXPECT_EQ(tiny.stats().entries, 0u);
  EXPECT_EQ(tiny.stats().bytes_in_use, 0u);

  // invalidate drops the entry; the next lookup rebuilds.
  cache.invalidate(2);
  EXPECT_EQ(cache.stats().entries, 0u);
  EXPECT_EQ(cache.stats().bytes_in_use, 0u);
  cache.get_or_build(dev, b, 2, &hit);
  EXPECT_FALSE(hit);

  // A one-candidate cache (autotune off) builds the merge default
  // without a trial and charges exactly its SpmvPlan, so a given budget
  // evicts exactly as a cache of bare merge plans would.
  const std::size_t a_plan = core::merge::spmv_plan(dev, a).bytes();
  const std::size_t b_plan = core::merge::spmv_plan(dev, b).bytes();
  PlanCache one(std::max(a_plan, b_plan) + 16, /*candidates=*/1);
  const auto p5 = one.get_or_build(dev, a, 1, &hit);
  EXPECT_STREQ(p5->choice().name, "merge(128x7)");
  EXPECT_TRUE(p5->trials().empty());
  EXPECT_EQ(p5->bytes(), a_plan);
  EXPECT_EQ(one.stats().bytes_in_use, a_plan);
  one.get_or_build(dev, b, 2, &hit);
  s = one.stats();
  EXPECT_EQ(s.evictions, 1);
  EXPECT_EQ(s.entries, 1u);
  EXPECT_EQ(s.bytes_in_use, b_plan);
}

TEST(ServeEngine, ChangedPatternReRegistrationNeverServesStaleTunedPlan) {
  // Registering a structurally different matrix yields a new handle; the
  // tuned entry built for the old pattern must never serve it (the
  // TunedPlan fingerprint guard backs the cache keying), and the new
  // handle's first request re-tunes from scratch.
  auto cfg = test_config(/*threads=*/1, /*batch_window=*/1);
  cfg.autotune = 1;
  Engine engine(cfg);

  const auto a = workloads::poisson2d(24, 24);
  const auto h1 = engine.register_matrix(a);
  const auto x = random_x(a, 5);
  const auto r1 = engine.submit_spmv(h1, x).get();
  EXPECT_FALSE(r1.plan_cache_hit);

  // Same dims, different pattern (so the same x vector applies).
  const auto b = workloads::fem_banded(a.num_rows, 5.0, 2.0, 7);
  ASSERT_EQ(b.num_cols, a.num_cols);
  const auto h2 = engine.register_matrix(b);
  EXPECT_NE(h1, h2);
  const auto r2 = engine.submit_spmv(h2, x).get();
  EXPECT_FALSE(r2.plan_cache_hit);  // re-tuned, not served from h1's entry

  std::vector<double> y_ref(static_cast<std::size_t>(b.num_rows), -999.0);
  baselines::seq::spmv(b, x, y_ref);
  ASSERT_EQ(r2.y.size(), y_ref.size());
  for (std::size_t i = 0; i < y_ref.size(); ++i) {
    ASSERT_EQ(r2.y[i], y_ref[i]) << i;
  }
  // The old registration still serves correctly from its own entry.
  EXPECT_TRUE(engine.submit_spmv(h1, x).get().plan_cache_hit);
}

TEST(ServeEngine, PlanCacheHitReportedThroughResults) {
  auto cfg = test_config(/*threads=*/1, /*batch_window=*/1);
  Engine engine(cfg);
  util::Rng rng(97);
  const auto a = coo_to_csr(testing::random_coo(rng, 300, 300, 3000));
  const auto h = engine.register_matrix(a);

  EXPECT_FALSE(engine.submit_spmv(h, random_x(a, 1)).get().plan_cache_hit);
  EXPECT_TRUE(engine.submit_spmv(h, random_x(a, 2)).get().plan_cache_hit);
  const auto s = engine.stats();
  EXPECT_EQ(s.plan_cache.misses, 1);
  EXPECT_EQ(s.plan_cache.hits, 1);
  EXPECT_GT(s.plan_cache.bytes_in_use, 0u);
}

// ---------------------------------------------------------------------------
// Admission control

TEST(ServeEngine, BackpressureQueueNeverExceedsCap) {
  constexpr std::size_t kCap = 4;
  auto cfg = test_config(/*threads=*/1, /*batch_window=*/1, kCap);
  cfg.start_paused = true;
  Engine engine(cfg);
  util::Rng rng(101);
  const auto a = coo_to_csr(testing::random_coo(rng, 200, 200, 2000));
  const auto h = engine.register_matrix(a);
  const auto x = random_x(a, 3);

  std::vector<std::future<SpmvResult>> futures;
  for (std::size_t i = 0; i < kCap; ++i) {
    auto f = engine.try_submit_spmv(h, x);
    ASSERT_TRUE(f.has_value()) << i;
    futures.push_back(std::move(*f));
  }
  // Queue full: non-blocking admission refuses...
  EXPECT_FALSE(engine.try_submit_spmv(h, x).has_value());
  // ...and a bounded blocking submit times out with the typed error.
  SubmitOptions opts;
  opts.admission_timeout = std::chrono::milliseconds(20);
  EXPECT_THROW(engine.submit_spmv(h, x, opts), QueueFullError);

  auto s = engine.stats();
  EXPECT_EQ(s.queue_depth, kCap);
  EXPECT_EQ(s.peak_queue_depth, kCap);  // never exceeded the cap
  EXPECT_EQ(s.rejected_full, 2);

  engine.resume();
  for (auto& f : futures) EXPECT_NO_THROW(f.get());
  s = engine.stats();
  EXPECT_EQ(s.completed, static_cast<long long>(kCap));
  EXPECT_LE(s.peak_queue_depth, kCap);
}

TEST(ServeEngine, OverloadTimesOutQueuedRequestsInsteadOfBuffering) {
  // One worker, no batching: the dispatcher may keep at most one batch
  // in flight, so a burst waits in the bounded queue where per-request
  // deadlines are enforced.  (Without capacity gating the dispatcher
  // would drain the queue straight into the pool's unbounded task
  // deque, and queue-wait timeouts could never fire under load.)  The
  // burst queues while the engine is paused: a head with no deadline,
  // then a tail whose 5 ms deadline has passed before resume().
  auto cfg = test_config(/*threads=*/1, /*batch_window=*/1, /*queue_cap=*/1024);
  cfg.start_paused = true;
  Engine engine(cfg);
  util::Rng rng(137);
  const auto a = coo_to_csr(testing::random_coo(rng, 1500, 1500, 60000));
  const auto h = engine.register_matrix(a);
  const auto x = random_x(a, 7);

  constexpr int kHead = 40;
  constexpr int kTail = 360;
  SubmitOptions patient;
  patient.request_timeout = std::chrono::milliseconds(-1);  // no deadline
  SubmitOptions doomed;
  doomed.request_timeout = std::chrono::milliseconds(5);
  std::vector<std::future<SpmvResult>> futures;
  for (int i = 0; i < kHead + kTail; ++i) {
    futures.push_back(engine.submit_spmv(h, x, i < kHead ? patient : doomed));
  }
  std::this_thread::sleep_for(std::chrono::milliseconds(30));
  engine.resume();

  long long ok = 0, late = 0;
  for (int i = 0; i < kHead + kTail; ++i) {
    try {
      futures[static_cast<std::size_t>(i)].get();
      EXPECT_LT(i, kHead) << "an expired request ran";
      ++ok;
    } catch (const RequestTimeoutError&) {
      EXPECT_GE(i, kHead) << "a request with no deadline timed out";
      ++late;
    }
  }
  EXPECT_EQ(ok, kHead);    // the head ran
  EXPECT_EQ(late, kTail);  // the tail expired while queued, never ran
  const auto s = engine.stats();
  EXPECT_EQ(s.timed_out, kTail);
  EXPECT_EQ(s.completed, kHead);
}

TEST(ServeEngine, RequestTimeoutFailsWithoutRunning) {
  auto cfg = test_config(/*threads=*/1, /*batch_window=*/4);
  cfg.start_paused = true;
  Engine engine(cfg);
  util::Rng rng(103);
  const auto a = coo_to_csr(testing::random_coo(rng, 200, 200, 2000));
  const auto h = engine.register_matrix(a);

  SubmitOptions opts;
  opts.request_timeout = std::chrono::milliseconds(5);
  auto doomed = engine.submit_spmv(h, random_x(a, 4), opts);
  auto healthy = engine.submit_spmv(h, random_x(a, 5));
  std::this_thread::sleep_for(std::chrono::milliseconds(30));
  engine.resume();

  EXPECT_THROW(doomed.get(), RequestTimeoutError);
  EXPECT_NO_THROW(healthy.get());
  const auto s = engine.stats();
  EXPECT_EQ(s.timed_out, 1);
  EXPECT_EQ(s.completed, 1);
}

// ---------------------------------------------------------------------------
// Fault handling

TEST(ServeEngine, RetriesOnceOnInjectedDeviceOom) {
  // The injector arms at Device construction, so the env must be set
  // while the engine builds its worker devices.
  ::setenv("MPS_FAULT_ALLOC_N", "1", 1);
  auto cfg = test_config(/*threads=*/1, /*batch_window=*/1);
  Engine engine(cfg);
  ::unsetenv("MPS_FAULT_ALLOC_N");

  util::Rng rng(107);
  const auto a = coo_to_csr(testing::random_coo(rng, 300, 300, 3000));
  const auto h = engine.register_matrix(a);
  // First submission hits the armed fault during plan build; the engine
  // retries transparently and the client sees only the value.
  SpmvResult r = engine.submit_spmv(h, random_x(a, 6)).get();
  std::vector<double> ref(static_cast<std::size_t>(a.num_rows));
  baselines::seq::spmv(a, random_x(a, 6), ref);
  for (std::size_t i = 0; i < ref.size(); ++i) {
    ASSERT_NEAR(r.y[i], ref[i], 1e-10);
  }
  const auto s = engine.stats();
  EXPECT_GE(s.retries, 1);
  EXPECT_EQ(s.failed, 0);
  EXPECT_EQ(s.completed, 1);
}

// ---------------------------------------------------------------------------
// Shutdown

TEST(ServeEngine, ShutdownDrainSettlesEveryAdmittedRequest) {
  auto cfg = test_config(/*threads=*/3, /*batch_window=*/4);
  Engine engine(cfg);
  util::Rng rng(109);
  const auto a = coo_to_csr(testing::random_coo(rng, 300, 300, 3000));
  const auto h = engine.register_matrix(a);

  constexpr int kRequests = 48;
  std::vector<std::future<SpmvResult>> futures;
  for (int i = 0; i < kRequests; ++i) {
    futures.push_back(
        engine.submit_spmv(h, random_x(a, static_cast<std::uint64_t>(i))));
  }
  engine.shutdown(Engine::ShutdownMode::kDrain);

  for (auto& f : futures) EXPECT_NO_THROW(f.get());  // all ran to a value
  const auto s = engine.stats();
  EXPECT_EQ(s.completed, kRequests);
  EXPECT_EQ(s.accepted, kRequests);
  EXPECT_EQ(s.rejected_shutdown, 0);
  EXPECT_EQ(s.queue_depth, 0u);
  // Latency percentiles cover every completed request.
  EXPECT_EQ(s.latency_ms.n, static_cast<std::size_t>(kRequests));
  EXPECT_GE(s.latency_p99_ms, s.latency_p50_ms);

  // Admission is closed: blocking submit throws, try_submit declines.
  EXPECT_THROW(engine.submit_spmv(h, random_x(a, 1)), ShutdownError);
  EXPECT_FALSE(engine.try_submit_spmv(h, random_x(a, 1)).has_value());
  engine.shutdown();  // idempotent
}

TEST(ServeEngine, ShutdownRejectFailsQueuedRequestsWithTypedError) {
  auto cfg = test_config(/*threads=*/1, /*batch_window=*/1);
  cfg.start_paused = true;  // nothing dispatches: all 10 sit in the queue
  Engine engine(cfg);
  util::Rng rng(113);
  const auto a = coo_to_csr(testing::random_coo(rng, 200, 200, 2000));
  const auto h = engine.register_matrix(a);

  constexpr int kRequests = 10;
  std::vector<std::future<SpmvResult>> futures;
  for (int i = 0; i < kRequests; ++i) {
    futures.push_back(
        engine.submit_spmv(h, random_x(a, static_cast<std::uint64_t>(i))));
  }
  engine.shutdown(Engine::ShutdownMode::kReject);

  // Settled, not abandoned: every future throws the typed error.
  for (auto& f : futures) EXPECT_THROW(f.get(), ShutdownError);
  const auto s = engine.stats();
  EXPECT_EQ(s.rejected_shutdown, kRequests);
  EXPECT_EQ(s.completed, 0);
  EXPECT_EQ(s.queue_depth, 0u);
}

// ---------------------------------------------------------------------------
// Registration + validation

TEST(ServeEngine, InvalidSubmissionsThrowSynchronously) {
  Engine engine(test_config(1, 1));
  util::Rng rng(127);
  const auto square = coo_to_csr(testing::random_coo(rng, 100, 100, 800));
  const auto wide = coo_to_csr(testing::random_coo(rng, 40, 200, 600));
  const auto h = engine.register_matrix(square);
  const auto hw = engine.register_matrix(wide);

  EXPECT_THROW(engine.submit_spmv(/*h=*/0xdead, random_x(square, 1)),
               InvalidInputError);
  EXPECT_THROW(engine.submit_spmv(h, std::vector<double>(7)),
               InvalidInputError);
  EXPECT_THROW(engine.submit_spadd(h, hw), InvalidInputError);   // shape
  EXPECT_THROW(engine.submit_spgemm(hw, hw), InvalidInputError); // dims
}

TEST(ServeEngine, SamePatternRegistersToSameHandle) {
  Engine engine(test_config(1, 1));
  util::Rng rng(131);
  auto a = coo_to_csr(testing::random_coo(rng, 100, 100, 800));
  const auto h1 = engine.register_matrix(a);
  EXPECT_EQ(pattern_fingerprint(a), h1);
  for (auto& v : a.val) v *= 2.0;  // same pattern, new values
  const auto h2 = engine.register_matrix(a);
  EXPECT_EQ(h1, h2);
  // The refreshed values are what requests see.
  std::vector<double> ref(static_cast<std::size_t>(a.num_rows));
  baselines::seq::spmv(a, std::vector<double>(100, 1.0), ref);
  const auto r = engine.submit_spmv(h1, std::vector<double>(100, 1.0)).get();
  for (std::size_t i = 0; i < ref.size(); ++i) {
    ASSERT_NEAR(r.y[i], ref[i], 1e-10);
  }
}

TEST(ServeEngine, DistinctColumnStructureGetsDistinctHandles) {
  // Same dims, same nnz, same row offsets — only the column indices
  // differ.  The handles must differ, or one registration would
  // silently replace the other and submits would compute against the
  // wrong matrix.
  Engine engine(test_config(1, 1));
  CsrD a(2, 2);
  a.row_offsets = {0, 1, 2};
  a.col = {0, 1};  // identity
  a.val = {1.0, 1.0};
  CsrD b = a;
  b.col = {1, 0};  // anti-diagonal
  ASSERT_TRUE(a.is_valid());
  ASSERT_TRUE(b.is_valid());

  const auto ha = engine.register_matrix(a);
  const auto hb = engine.register_matrix(b);
  EXPECT_NE(ha, hb);
  // Each tenant is served from its own matrix.
  const std::vector<double> x{2.0, 3.0};
  EXPECT_EQ(engine.submit_spmv(ha, x).get().y, (std::vector<double>{2.0, 3.0}));
  EXPECT_EQ(engine.submit_spmv(hb, x).get().y, (std::vector<double>{3.0, 2.0}));
}

/// Sets each named variable to `value` for the guard's lifetime, then
/// restores whatever the invoking shell had.
class EnvOverride {
 public:
  EnvOverride(std::span<const char* const> names, const char* value) {
    for (const char* n : names) {
      const char* old = std::getenv(n);
      saved_.emplace_back(n, old ? std::optional<std::string>(old) : std::nullopt);
      ::setenv(n, value, 1);
    }
  }
  ~EnvOverride() {
    for (const auto& [name, old] : saved_) {
      if (old) {
        ::setenv(name, old->c_str(), 1);
      } else {
        ::unsetenv(name);
      }
    }
  }
  EnvOverride(const EnvOverride&) = delete;
  EnvOverride& operator=(const EnvOverride&) = delete;

 private:
  std::vector<std::pair<const char*, std::optional<std::string>>> saved_;
};

TEST(ServeEngine, DefaultConfigIgnoresEnvironment) {
  // Every serving, sharding, durability, chaos and SLO variable the
  // engine once fell back to, plus the retired repeating-bit-flip knob.
  // EngineConfig is the only configuration surface now: garbage in all
  // of them must change nothing.
  static const char* const kRetired[] = {
      "MPS_SERVE_THREADS",          "MPS_SERVE_QUEUE_CAP",
      "MPS_SERVE_BATCH_WINDOW",     "MPS_SERVE_PLAN_CACHE_MB",
      "MPS_SERVE_RETRIES",          "MPS_SERVE_BACKOFF_MS",
      "MPS_SERVE_BACKOFF_MAX_MS",   "MPS_SERVE_BREAKER_THRESHOLD",
      "MPS_SERVE_BREAKER_COOLDOWN_MS", "MPS_SERVE_SHED_WATERMARK",
      "MPS_SERVE_MAX_FAILOVERS",    "MPS_SERVE_DEGRADE_RECOVERY",
      "MPS_SERVE_DEVICES",          "MPS_SERVE_DEVICE_SPEC",
      "MPS_SHARD_MAX",              "MPS_SHARD_MIN_NNZ",
      "MPS_SHARD_PLACEMENT",        "MPS_SHARD_REPLICATE_HOT",
      "MPS_SHARD_2D_NNZ",           "MPS_DURABLE_DIR",
      "MPS_DURABLE_SNAPSHOT_EVERY", "MPS_DURABLE_WARM",
      "MPS_DURABLE_FSYNC",          "MPS_DURABLE_CRASH",
      "MPS_CHAOS_SCRIPT",           "MPS_CHAOS_SEED",
      "MPS_SLO",                    "MPS_SLO_LATENCY_MS",
      "MPS_SLO_OBJECTIVE",          "MPS_SLO_SHORT_WINDOW",
      "MPS_SLO_LONG_WINDOW",        "MPS_SLO_BURN_ALERT",
      "MPS_FAULT_BITFLIP_EVERY",
  };
  static_assert(std::size(kRetired) == 33);
  const EnvOverride garbage(kRetired, "banana");

  // The documented defaults (docs/serving.md).
  const EngineConfig cfg;
  EXPECT_EQ(cfg.threads, 4u);
  EXPECT_EQ(cfg.queue_capacity, 1024u);
  EXPECT_EQ(cfg.batch_window, 8);
  EXPECT_EQ(cfg.plan_cache_bytes, std::size_t{64} << 20);
  EXPECT_EQ(cfg.retry.max_attempts, 2);
  EXPECT_EQ(cfg.retry.backoff_base_ms, 0.5);
  EXPECT_EQ(cfg.retry.backoff_max_ms, 8.0);
  EXPECT_EQ(cfg.breaker.failure_threshold, 5);
  EXPECT_EQ(cfg.breaker.cooldown_ms, 250.0);
  EXPECT_EQ(cfg.shed_watermark, 0.75);
  EXPECT_EQ(cfg.max_failovers, 8);
  EXPECT_EQ(cfg.degrade_recovery, 64);
  EXPECT_TRUE(cfg.chaos.empty());
  EXPECT_EQ(cfg.durable_enabled, 0);
  EXPECT_EQ(cfg.durable_snapshot_every, 64);
  EXPECT_EQ(cfg.durable_warm, 0);
  EXPECT_EQ(cfg.durable_fsync, 0);
  EXPECT_EQ(cfg.devices, 0);
  EXPECT_EQ(cfg.device_spec, "");
  EXPECT_EQ(cfg.shard_max, 8);
  EXPECT_EQ(cfg.shard_min_nnz, 2048);
  EXPECT_EQ(cfg.shard_placement, "weighted");
  EXPECT_EQ(cfg.shard_replicate_hot, 0.5);
  EXPECT_EQ(cfg.shard_2d_nnz, 0);
  EXPECT_EQ(cfg.slo_enabled, 0);

  Engine engine(cfg);
  const auto a = make_matrix(Regime::kPowerLaw, 9);
  const auto x = random_x(a, 3);
  std::vector<double> ref(static_cast<std::size_t>(a.num_rows));
  baselines::seq::spmv(a, x, ref);
  EXPECT_EQ(engine.submit_spmv(engine.register_matrix(a), x).get().y, ref);
  engine.shutdown();
  const auto s = engine.stats();
  EXPECT_EQ(s.queue_capacity, 1024u);
  EXPECT_EQ(s.plan_cache.capacity_bytes, std::size_t{64} << 20);
  EXPECT_EQ(s.devices.size(), 4u);  // legacy mode: one slot per worker
  EXPECT_EQ(s.sharded_matrices, 0);
  EXPECT_FALSE(s.durability.enabled);
  EXPECT_FALSE(s.slo.enabled);
  EXPECT_EQ(s.retries, 0);
}

// ---------------------------------------------------------------------------
// Trace generator

TEST(ServeTrace, DeterministicSkewedAndMixed) {
  TraceConfig cfg;
  cfg.requests = 4000;
  const auto t1 = synthetic_trace(cfg, 6);
  const auto t2 = synthetic_trace(cfg, 6);
  ASSERT_EQ(t1.size(), cfg.requests);
  for (std::size_t i = 0; i < t1.size(); ++i) {
    EXPECT_EQ(t1[i].matrix, t2[i].matrix);
    EXPECT_EQ(static_cast<int>(t1[i].kind), static_cast<int>(t2[i].kind));
    EXPECT_EQ(t1[i].x_seed, t2[i].x_seed);
  }
  std::vector<int> per_matrix(6, 0);
  int spmv = 0;
  for (const auto& op : t1) {
    ASSERT_LT(op.matrix, 6u);
    ++per_matrix[op.matrix];
    if (op.kind == OpKind::kSpmv) ++spmv;
  }
  // Zipf skew: the hottest tenant dominates the coldest.
  EXPECT_GT(per_matrix[0], per_matrix[5] * 2);
  // The op mix is mostly SpMV with a heavy-op sprinkle.
  EXPECT_GT(spmv, static_cast<int>(cfg.requests) * 8 / 10);
  EXPECT_LT(spmv, static_cast<int>(cfg.requests));
}

// ---------------------------------------------------------------------------
// Latency reservoir: a bounded ring of the most recent kLatencyWindow
// completions.

TEST(ServeStats, LatencyRingAtExactlyAndOverCapacity) {
  auto cfg = test_config(/*threads=*/4, /*batch_window=*/8,
                         /*queue_cap=*/Engine::kLatencyWindow + 128);
  Engine engine(cfg);
  util::Rng rng(211);
  const auto a = coo_to_csr(testing::random_coo(rng, 24, 24, 96));
  const auto h = engine.register_matrix(a);
  const auto x = random_x(a, 7);

  const auto submit_and_settle = [&](std::size_t n) {
    std::vector<std::future<SpmvResult>> futures;
    futures.reserve(n);
    for (std::size_t i = 0; i < n; ++i) {
      futures.push_back(engine.submit_spmv(h, x));
    }
    for (auto& f : futures) f.get();
  };

  // Exactly at capacity: the ring holds every completion.
  submit_and_settle(Engine::kLatencyWindow);
  auto s = engine.stats();
  EXPECT_EQ(s.completed, static_cast<long long>(Engine::kLatencyWindow));
  EXPECT_EQ(s.latency_ms.n, Engine::kLatencyWindow);
  EXPECT_TRUE(std::isfinite(s.latency_p50_ms));
  EXPECT_TRUE(std::isfinite(s.latency_p99_ms));
  EXPECT_GE(s.latency_p99_ms, s.latency_p50_ms);

  // Over capacity: completions keep counting, the reservoir stays capped
  // at the window (oldest samples overwritten, not grown).
  submit_and_settle(64);
  s = engine.stats();
  EXPECT_EQ(s.completed, static_cast<long long>(Engine::kLatencyWindow + 64));
  EXPECT_EQ(s.latency_ms.n, Engine::kLatencyWindow);
  EXPECT_TRUE(std::isfinite(s.latency_p99_ms));
  engine.shutdown();
}

// ---------------------------------------------------------------------------
// Observability: the engine's correlated Perfetto timeline.

TEST(ServeTrace, WriteTraceCorrelatesRequestPhasesAndKernels) {
  telemetry::tracer().clear();
  telemetry::tracer().enable();
  auto cfg = test_config(/*threads=*/2, /*batch_window=*/4);
  Engine engine(cfg);
  util::Rng rng(223);
  const auto a = coo_to_csr(testing::random_coo(rng, 200, 200, 2000));
  const auto h = engine.register_matrix(a);
  std::vector<std::future<SpmvResult>> futures;
  for (int i = 0; i < 12; ++i) {
    futures.push_back(
        engine.submit_spmv(h, random_x(a, static_cast<std::uint64_t>(i))));
  }
  for (auto& f : futures) f.get();
  engine.shutdown(Engine::ShutdownMode::kDrain);
  telemetry::tracer().disable();

  std::ostringstream os;
  engine.write_trace(os);
  const std::string s = os.str();
  const auto spans = telemetry::tracer().snapshot();
  telemetry::tracer().clear();

  // Request lanes, host phases, and device kernels are all present...
  EXPECT_NE(s.find("serve.request"), std::string::npos);
  EXPECT_NE(s.find("serve.execute"), std::string::npos);
  EXPECT_NE(s.find("\"process_name\""), std::string::npos);
  EXPECT_NE(s.find("vgpu worker"), std::string::npos);
  // ...and at least one request trace id reappears on a kernel event
  // (spmv kernels carry nnz-ish args; find a trace id that occurs with
  // both a span name and device_cycles nearby is overkill here — the
  // span snapshot gives us the ids directly).
  bool correlated = false;
  for (const auto& rec : spans) {
    if (rec.name != "serve.request") continue;
    const std::string tag = "\"trace_id\":" + std::to_string(rec.trace_id);
    std::size_t hits = 0;
    for (std::size_t pos = s.find(tag); pos != std::string::npos;
         pos = s.find(tag, pos + tag.size())) {
      ++hits;
    }
    if (hits >= 2) correlated = true;  // the request span + a child/kernel
  }
  EXPECT_TRUE(correlated);
}

TEST(ServeTrace, DeviceKernelLogsStayBoundedWhileNotTracing) {
  // Every launch appends a KernelStats to its device's log.  With the
  // tracer off the engine drops a lease's entries when it releases the
  // lease, so a long-running worker's log stays bounded.  write_trace is
  // the seam: its "kernels" total counts every entry of every device log.
  telemetry::tracer().disable();
  telemetry::tracer().clear();
  Engine engine(test_config(/*threads=*/2, /*batch_window=*/4));
  util::Rng rng(227);
  const auto a = coo_to_csr(testing::random_coo(rng, 200, 200, 2000));
  const auto h = engine.register_matrix(a);
  constexpr int kRequests = 2048;
  constexpr int kChunk = 64;
  for (int done = 0; done < kRequests; done += kChunk) {
    std::vector<std::future<SpmvResult>> futures;
    for (int i = 0; i < kChunk; ++i) {
      futures.push_back(engine.submit_spmv(
          h, random_x(a, static_cast<std::uint64_t>(done + i))));
    }
    for (auto& f : futures) f.get();
  }
  // write_trace needs quiescent devices: read the logs after shutdown.
  engine.shutdown();
  EXPECT_EQ(engine.stats().completed, kRequests);
  std::ostringstream os;
  engine.write_trace(os);
  const std::string s = os.str();
  const std::string key = "\"kernels\":";
  const std::size_t pos = s.rfind(key);
  ASSERT_NE(pos, std::string::npos);
  // Every request launched at least once, so an unbounded log would hold
  // thousands of entries; settled work leaves none behind.
  EXPECT_EQ(std::stoll(s.substr(pos + key.size())), 0);
}

}  // namespace
}  // namespace mps::serve

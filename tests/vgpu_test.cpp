// Unit tests for the virtual-GPU substrate.
#include <gtest/gtest.h>

#include <unistd.h>

#include <atomic>
#include <chrono>
#include <cstdio>
#include <future>
#include <numeric>
#include <string>
#include <thread>
#include <vector>

#include "telemetry/profile.hpp"
#include "vgpu/chaos.hpp"
#include "vgpu/cpu_model.hpp"
#include "vgpu/device.hpp"
#include "vgpu/memory_model.hpp"
#include "vgpu/thread_pool.hpp"
#include "vgpu/timing.hpp"

namespace mps::vgpu {
namespace {

TEST(ThreadPool, CoversAllIndices) {
  ThreadPool pool(4);
  std::vector<std::atomic<int>> hits(1000);
  pool.parallel_for(1000, [&](std::size_t i) { hits[i].fetch_add(1); });
  for (auto& h : hits) EXPECT_EQ(h.load(), 1);
}

TEST(ThreadPool, ZeroAndOneIterations) {
  ThreadPool pool(4);
  int calls = 0;
  pool.parallel_for(0, [&](std::size_t) { ++calls; });
  EXPECT_EQ(calls, 0);
  pool.parallel_for(1, [&](std::size_t) { ++calls; });
  EXPECT_EQ(calls, 1);
}

TEST(ThreadPool, PropagatesException) {
  ThreadPool pool(4);
  EXPECT_THROW(pool.parallel_for(100,
                                 [&](std::size_t i) {
                                   if (i == 37) throw std::runtime_error("boom");
                                 }),
               std::runtime_error);
}

TEST(ThreadPool, ChunkedClaimsCoverEachIndexOnce) {
  for (const unsigned threads : {1u, 2u, 4u, 7u}) {
    ThreadPool pool(threads);
    for (const std::size_t n : {1u, 2u, 7u, 31u, 32u, 33u, 257u, 4097u}) {
      std::vector<std::atomic<int>> hits(n);
      pool.parallel_for(n, [&](std::size_t i) { hits[i].fetch_add(1); });
      for (std::size_t i = 0; i < n; ++i) {
        ASSERT_EQ(hits[i].load(), 1)
            << "index " << i << " of " << n << ", " << threads << " threads";
      }
    }
  }
}

TEST(ThreadPool, PropagatesExceptionFromMidChunk) {
  // 4096 indices on 4 threads claim chunks of 4096 / 32 = 128: index 448
  // is the middle of the chunk [384, 512).  The throw skips the rest of
  // that chunk, and the pool stays usable.
  ThreadPool pool(4);
  std::vector<std::atomic<int>> hits(4096);
  EXPECT_THROW(pool.parallel_for(4096,
                                 [&](std::size_t i) {
                                   if (i == 448) throw std::runtime_error("boom");
                                   hits[i].fetch_add(1);
                                 }),
               std::runtime_error);
  EXPECT_EQ(hits[447].load(), 1);  // earlier in the same chunk
  for (std::size_t i = 449; i < 512; ++i) EXPECT_EQ(hits[i].load(), 0) << i;
  std::atomic<int> after{0};
  pool.parallel_for(100, [&](std::size_t) { after.fetch_add(1); });
  EXPECT_EQ(after.load(), 100);
}

TEST(ThreadPool, ReusableAcrossJobs) {
  ThreadPool pool(3);
  for (int rep = 0; rep < 20; ++rep) {
    std::atomic<long long> sum{0};
    pool.parallel_for(257, [&](std::size_t i) { sum += static_cast<long long>(i); });
    EXPECT_EQ(sum.load(), 257LL * 256 / 2);
  }
}

TEST(ThreadPool, TryPostRunsTask) {
  ThreadPool pool(4);
  std::promise<int> done;
  ASSERT_TRUE(pool.try_post([&] { done.set_value(42); }));
  EXPECT_EQ(done.get_future().get(), 42);
}

TEST(ThreadPool, TryPostInlineWithoutWorkers) {
  ThreadPool pool(1);  // the caller is the only participant
  bool ran = false;
  ASSERT_TRUE(pool.try_post([&] { ran = true; }));
  EXPECT_TRUE(ran);  // ran inline, before try_post returned
}

TEST(ThreadPool, ShutdownDrainsAcceptedTasksThenRejects) {
  // The ordering contract: every task accepted before shutdown() runs to
  // completion; every try_post after shutdown() began is rejected
  // deterministically.  Nothing is dropped.
  ThreadPool pool(4);
  std::atomic<int> ran{0};
  constexpr int kTasks = 64;
  int accepted = 0;
  for (int i = 0; i < kTasks; ++i) {
    if (pool.try_post([&] {
          std::this_thread::sleep_for(std::chrono::microseconds(100));
          ran.fetch_add(1);
        })) {
      ++accepted;
    }
  }
  EXPECT_EQ(accepted, kTasks);
  EXPECT_FALSE(pool.stopping());
  pool.shutdown();
  EXPECT_EQ(ran.load(), kTasks);  // drained, not dropped
  EXPECT_TRUE(pool.stopping());
  EXPECT_FALSE(pool.try_post([&] { ran.fetch_add(1); }));
  EXPECT_EQ(ran.load(), kTasks);  // the rejected task never ran
  pool.shutdown();                // idempotent
}

TEST(ThreadPool, PostsRacingShutdownAreRunOrRejectedNeverDropped) {
  // Hammer try_post from several threads while shutdown runs: each post
  // either returns true (and the task runs) or false (and it does not).
  for (int rep = 0; rep < 10; ++rep) {
    ThreadPool pool(4);
    std::atomic<int> accepted{0}, ran{0};
    std::vector<std::thread> posters;
    std::atomic<bool> go{false};
    for (int t = 0; t < 4; ++t) {
      posters.emplace_back([&] {
        while (!go.load()) std::this_thread::yield();
        for (int i = 0; i < 50; ++i) {
          if (pool.try_post([&] { ran.fetch_add(1); })) accepted.fetch_add(1);
        }
      });
    }
    go.store(true);
    pool.shutdown();
    for (auto& p : posters) p.join();
    EXPECT_EQ(ran.load(), accepted.load()) << "rep " << rep;
  }
}

TEST(ThreadPool, ParallelForAfterShutdownRunsInline) {
  ThreadPool pool(4);
  pool.shutdown();
  std::vector<int> hits(100, 0);
  pool.parallel_for(100, [&](std::size_t i) { hits[i] += 1; });
  for (const int h : hits) EXPECT_EQ(h, 1);
}

TEST(Counters, CycleModelMonotone) {
  DeviceProperties p;
  CtaCounters a;
  a.global_bytes = 1000;
  CtaCounters b = a;
  b.warp_iters = 500;
  EXPECT_GT(b.cycles(p), a.cycles(p));
  CtaCounters c = b;
  c.syncs = 10;
  EXPECT_GT(c.cycles(p), b.cycles(p));
}

TEST(Counters, Accumulate) {
  CtaCounters a, b;
  a.global_bytes = 10;
  a.shared_ops = 2;
  b.global_bytes = 5;
  b.syncs = 1;
  a += b;
  EXPECT_EQ(a.global_bytes, 15u);
  EXPECT_EQ(a.shared_ops, 2u);
  EXPECT_EQ(a.syncs, 1u);
}

TEST(Timing, EmptyGridIsLaunchOverheadOnly) {
  DeviceProperties p;
  EXPECT_DOUBLE_EQ(schedule_cycles(p, {}), p.kernel_launch_cycles);
}

TEST(Timing, BalancedGridScalesWithWork) {
  DeviceProperties p;
  const int slots = p.num_sms * p.ctas_per_sm;
  std::vector<double> one_wave(static_cast<std::size_t>(slots), 100.0);
  std::vector<double> two_waves(static_cast<std::size_t>(2 * slots), 100.0);
  const double t1 = schedule_cycles(p, one_wave) - p.kernel_launch_cycles;
  const double t2 = schedule_cycles(p, two_waves) - p.kernel_launch_cycles;
  EXPECT_DOUBLE_EQ(t1, 100.0);
  EXPECT_DOUBLE_EQ(t2, 200.0);
}

TEST(Timing, ImbalancedCtaDominates) {
  DeviceProperties p;
  // One huge CTA among many small: makespan ~ the huge one.
  std::vector<double> cycles(200, 10.0);
  cycles[0] = 5000.0;
  const double t = schedule_cycles(p, cycles) - p.kernel_launch_cycles;
  EXPECT_GE(t, 5000.0);
  EXPECT_LT(t, 5100.0);  // backfilling keeps the rest off the critical path
}

TEST(Device, LaunchAggregatesCounters) {
  Device dev;
  auto stats = dev.launch("k", 10, 128, [&](Cta& cta) {
    cta.charge_global(100);
    cta.charge_sync();
  });
  EXPECT_EQ(stats.num_ctas, 10);
  EXPECT_EQ(stats.totals.global_bytes, 1000u);
  EXPECT_EQ(stats.totals.syncs, 10u);
  EXPECT_GT(stats.modeled_ms, 0.0);
  EXPECT_EQ(dev.log().size(), 1u);
  EXPECT_EQ(dev.log()[0].name, "k");
}

TEST(Device, LaunchRunsEveryCta) {
  Device dev;
  std::vector<int> touched(333, 0);
  dev.launch("touch", 333, 64, [&](Cta& cta) { touched[static_cast<std::size_t>(cta.cta_id())] = 1; });
  EXPECT_EQ(std::accumulate(touched.begin(), touched.end(), 0), 333);
}

TEST(Device, ModeledTimeIsDeterministic) {
  auto run = [] {
    Device dev;
    auto s = dev.launch("k", 100, 128, [&](Cta& cta) {
      cta.charge_global(static_cast<std::size_t>(cta.cta_id()) * 64);
      cta.charge_alu_uniform(1000);
    });
    return s.modeled_ms;
  };
  EXPECT_DOUBLE_EQ(run(), run());
}

TEST(Device, RejectsBadBlockSize) {
  Device dev;
  EXPECT_THROW(dev.launch("k", 1, 0, [](Cta&) {}), mps::InvalidInputError);
  EXPECT_THROW(dev.launch("k", 1, 4096, [](Cta&) {}), mps::InvalidInputError);
}

// ---------------------------------------------------------------------------
// Launch tails: a serialized fix-up run once after the whole grid.

/// Uneven grid work: CTA i moves 64*(i % 7 + 1) bytes and runs i % 5 + 1
/// uniform warp-steps.
void tail_test_grid(Cta& cta) {
  const auto i = static_cast<std::size_t>(cta.cta_id());
  cta.charge_global(64 * (i % 7 + 1));
  cta.charge_alu_uniform(32 * (i % 5 + 1));
  cta.charge_flops(10);
}

/// The fix-up: a fixed carry fold over 40 records.
void tail_test_fixup(Cta& cta) {
  cta.charge_global(40 * 12);
  cta.charge_shared_elems(40);
  cta.charge_alu_uniform(40);
  cta.charge_flops(7);
}

Device tail_test_device() {
  Device dev;
  dev.fault_injector().disarm();
  return dev;
}

TEST(DeviceTail, ModeledCyclesAreMakespanPlusTailPlusOneFloor) {
  Device dev = tail_test_device();
  const DeviceProperties& p = dev.props();
  constexpr int kCtas = 300;  // more than one wave on a titan
  const KernelStats fused =
      dev.launch("fused", kCtas, 128, tail_test_grid, tail_test_fixup);

  // Independent reconstruction: each grid CTA pays its own work plus one
  // 4-byte arrival; the tail's cycles follow the makespan.
  std::vector<double> cycles;
  for (int i = 0; i < kCtas; ++i) {
    CtaCounters c;
    const auto u = static_cast<std::size_t>(i);
    c.global_bytes = 64 * (u % 7 + 1) + 4;
    c.warp_iters = u % 5 + 1;
    cycles.push_back(c.cycles(p));
  }
  CtaCounters tail;
  tail.global_bytes = 40 * 12;
  tail.shared_ops = 2;  // ceil(40 / 32)
  tail.warp_iters = 2;
  const double makespan = schedule_cycles(p, cycles) - p.kernel_launch_cycles;
  EXPECT_EQ(fused.tail_cycles, tail.cycles(p));
  EXPECT_EQ(fused.device_cycles - p.kernel_launch_cycles - fused.tail_cycles,
            makespan);
  EXPECT_EQ(fused.device_cycles,
            schedule_cycles(p, cycles) + tail.cycles(p));
  EXPECT_EQ(fused.tail_ms, p.cycles_to_ms(fused.tail_cycles));
  EXPECT_DOUBLE_EQ(fused.modeled_ms, p.cycles_to_ms(fused.device_cycles));
  EXPECT_EQ(dev.log().size(), 1u);

  // The same work as two plain launches pays a second floor: the fused
  // launch equals grid-with-arrivals + separate fix-up - one floor.
  const KernelStats grid = dev.launch("grid", kCtas, 128, [](Cta& cta) {
    tail_test_grid(cta);
    cta.charge_global(4);
  });
  const KernelStats fix = dev.launch("fix", 1, 128, tail_test_fixup);
  EXPECT_EQ(grid.tail_cycles, 0.0);
  EXPECT_EQ(grid.tail_ms, 0.0);
  EXPECT_DOUBLE_EQ(fused.device_cycles,
                   grid.device_cycles + fix.device_cycles -
                       p.kernel_launch_cycles);
  EXPECT_DOUBLE_EQ(fused.modeled_ms,
                   grid.modeled_ms + fix.modeled_ms -
                       p.cycles_to_ms(p.kernel_launch_cycles));
}

TEST(DeviceTail, TailCountersLandInTotalsAndOneProfiledLaunch) {
  telemetry::profiler().disable();
  telemetry::profiler().clear();
  telemetry::profiler().enable();
  Device dev = tail_test_device();
  constexpr int kCtas = 50;
  const KernelStats s =
      dev.launch("tail_profiled", kCtas, 128, tail_test_grid, tail_test_fixup);
  const auto rep = telemetry::profiler().report();
  telemetry::profiler().disable();
  telemetry::profiler().clear();

  std::uint64_t grid_bytes = 0;
  for (std::size_t i = 0; i < kCtas; ++i) grid_bytes += 64 * (i % 7 + 1);
  const std::uint64_t bytes = grid_bytes + 4 * kCtas + 40 * 12;
  EXPECT_EQ(s.totals.global_bytes, bytes);
  EXPECT_EQ(s.totals.flops, 10u * kCtas + 7u);
  EXPECT_EQ(s.totals.shared_ops, 2u);  // the tail's only shared traffic
  ASSERT_EQ(rep.by_op.count("tail_profiled"), 1u);
  const auto& agg = rep.by_op.at("tail_profiled");
  EXPECT_EQ(agg.launches, 1);
  EXPECT_EQ(agg.bytes, static_cast<double>(bytes));
  EXPECT_EQ(agg.flops, static_cast<double>(10u * kCtas + 7u));
  EXPECT_EQ(agg.modeled_ms, s.modeled_ms);
}

TEST(DeviceTail, ChaosStragglerScalesTheWholeLaunch) {
  Device base = tail_test_device();
  const KernelStats b =
      base.launch("fused", 120, 128, tail_test_grid, tail_test_fixup);
  Device slow = tail_test_device();
  slow.fault_injector().arm_chaos(
      ChaosSchedule::parse("straggle@launch=1,x=2,every=1"), 0);
  const KernelStats s =
      slow.launch("fused", 120, 128, tail_test_grid, tail_test_fixup);
  // Factor 2 scales doubles exactly: grid and tail both stretch.
  EXPECT_EQ(s.device_cycles, 2.0 * b.device_cycles);
  EXPECT_EQ(s.modeled_ms, 2.0 * b.modeled_ms);
  EXPECT_EQ(s.tail_cycles, 2.0 * b.tail_cycles);
  EXPECT_EQ(s.tail_ms, 2.0 * b.tail_ms);
  EXPECT_EQ(slow.modeled_total_ms(), 2.0 * base.modeled_total_ms());
  EXPECT_EQ(slow.fault_injector().stragglers_injected(), 1);
}

TEST(DeviceTail, EmptyGridStillRunsTheTailOnce) {
  Device dev = tail_test_device();
  int grid_runs = 0;
  int tail_runs = 0;
  int tail_grid = -1;
  const KernelStats s = dev.launch(
      "empty", 0, 128, [&](Cta&) { ++grid_runs; },
      [&](Cta& cta) {
        ++tail_runs;
        tail_grid = cta.num_ctas();
        tail_test_fixup(cta);
      });
  EXPECT_EQ(grid_runs, 0);
  EXPECT_EQ(tail_runs, 1);
  EXPECT_EQ(tail_grid, 1);  // the tail runs on its own one-CTA context
  const DeviceProperties& p = dev.props();
  EXPECT_EQ(s.num_ctas, 0);
  EXPECT_GT(s.tail_cycles, 0.0);
  EXPECT_EQ(s.device_cycles, p.kernel_launch_cycles + s.tail_cycles);
  EXPECT_EQ(s.totals.global_bytes, 40u * 12u);  // no arrivals charged
  EXPECT_EQ(dev.log().size(), 1u);
}

TEST(DeviceTail, PoolProbe) {
  // Prints the exact modeled figures of two launches for the pool-size
  // comparison below.  CTAs finish in a host-schedule-dependent order
  // (later CTAs sleep less), which the tail's charge must not see.  The
  // second launch charges hundreds of times per CTA over enough CTAs
  // that pool threads claim chunks of several: each CTA's counters must
  // land in its own slot whole, whichever thread ran it.
  Device dev = tail_test_device();
  const KernelStats s = dev.launch(
      "probe", 64, 128,
      [](Cta& cta) {
        std::this_thread::sleep_for(
            std::chrono::microseconds(64 - cta.cta_id()));
        tail_test_grid(cta);
      },
      tail_test_fixup);
  const KernelStats m = dev.launch(
      "probe_many", 600, 128,
      [](Cta& cta) {
        const auto id = static_cast<std::size_t>(cta.cta_id());
        for (std::size_t j = 0; j < 200 + id % 13; ++j) {
          cta.charge_global(8 * (j % 5 + 1));
          cta.charge_gather(j % 3);
          cta.charge_shared_elems(id % 40 + j);
          cta.charge_alu_uniform(j + id);
          cta.charge_flops(2);
        }
        cta.charge_sync();
      },
      tail_test_fixup);
  CtaCounters totals;
  for (const KernelStats& k : dev.log()) totals += k.totals;
  std::printf(
      "tail-probe pool=%u cycles=%a ms=%a tail=%a many=%a/%a totals=%llu/%llu/"
      "%llu/%llu/%llu/%llu\n",
      global_pool().num_threads(), s.device_cycles, s.modeled_ms, s.tail_ms,
      m.device_cycles, m.modeled_ms,
      static_cast<unsigned long long>(totals.global_bytes),
      static_cast<unsigned long long>(totals.gather_bytes),
      static_cast<unsigned long long>(totals.shared_ops),
      static_cast<unsigned long long>(totals.warp_iters),
      static_cast<unsigned long long>(totals.syncs),
      static_cast<unsigned long long>(totals.flops));
}

TEST(DeviceTail, ModeledTimeIdenticalAtPoolSizes1And4) {
  char self[4096];
  const ssize_t len = ::readlink("/proc/self/exe", self, sizeof(self) - 1);
  ASSERT_GT(len, 0);
  self[len] = '\0';
  auto probe = [&](int threads) {
    const std::string cmd = "MPS_THREADS=" + std::to_string(threads) + " '" +
                            self + "' --gtest_filter=DeviceTail.PoolProbe";
    FILE* pipe = ::popen(cmd.c_str(), "r");
    EXPECT_NE(pipe, nullptr);
    std::string line;
    if (pipe == nullptr) return line;
    char buf[512];
    while (std::fgets(buf, sizeof(buf), pipe) != nullptr) {
      const std::string l(buf);
      if (l.rfind("tail-probe ", 0) == 0) line = l;
    }
    EXPECT_EQ(::pclose(pipe), 0);
    return line;
  };
  const std::string one = probe(1);
  const std::string four = probe(4);
  ASSERT_EQ(one.rfind("tail-probe pool=1 ", 0), 0u) << one;
  ASSERT_EQ(four.rfind("tail-probe pool=4 ", 0), 0u) << four;
  // Everything after the pool size is the modeled figures, bit for bit.
  EXPECT_EQ(one.substr(one.find(" cycles=")), four.substr(four.find(" cycles=")));
}

TEST(Cta, WarpDivergentChargesMax) {
  Device dev;
  auto s = dev.launch("k", 1, 64, [&](Cta& cta) {
    // Two warps: lanes with trips 1..32 (max 32) and all-5 (max 5).
    std::vector<std::uint32_t> lanes(64, 5);
    for (int i = 0; i < 32; ++i) lanes[static_cast<std::size_t>(i)] = static_cast<std::uint32_t>(i + 1);
    cta.charge_warp_divergent(lanes);
  });
  EXPECT_EQ(s.totals.warp_iters, 32u + 5u);
}

TEST(Cta, UniformChargePacksWarps) {
  Device dev;
  auto s = dev.launch("k", 1, 128, [&](Cta& cta) { cta.charge_alu_uniform(100); });
  EXPECT_EQ(s.totals.warp_iters, 4u);  // ceil(100/32)
}

TEST(SharedMemory, AllocAndOverflow) {
  SharedMemory shm(1024);
  auto a = shm.alloc<double>(64);
  EXPECT_EQ(a.size(), 64u);
  EXPECT_THROW(shm.alloc<double>(128), mps::InvalidInputError);
  shm.reset();
  EXPECT_NO_THROW(shm.alloc<double>(128));
}

TEST(MemoryModel, TracksAndThrows) {
  MemoryModel m(1000);
  m.reserve(600);
  EXPECT_EQ(m.in_use(), 600u);
  EXPECT_THROW(m.reserve(500), DeviceOomError);
  m.release(600);
  EXPECT_EQ(m.in_use(), 0u);
  EXPECT_EQ(m.peak(), 600u);
}

TEST(MemoryModel, ScopedAllocReleases) {
  MemoryModel m(1000);
  {
    ScopedDeviceAlloc a(m, 400);
    EXPECT_EQ(m.in_use(), 400u);
  }
  EXPECT_EQ(m.in_use(), 0u);
}

TEST(CpuModel, RooflineBehaviour) {
  CpuCost cost;
  cost.charge_ops(1000);
  const double t_compute = cost.modeled_ms();
  cost.charge_stream(1 << 20);
  EXPECT_GT(cost.modeled_ms(), t_compute);
  CpuCost rnd;
  rnd.charge_random(100);
  EXPECT_EQ(rnd.bytes(), 100u * rnd.props().cache_line_bytes);
}

}  // namespace
}  // namespace mps::vgpu

// Tests for the performance-explainability surface: the roofline
// attribution profiler, the flight recorder and its debug bundles, the
// per-tenant SLO burn-rate tracker, and Engine::explain
// (docs/observability.md).
//
// The profiler is a process-wide singleton like the tracer, so every
// test restores the default state (disabled, cleared, default
// thresholds).  Flight-recorder ring tests construct LOCAL
// FlightRecorder instances and note from a fresh thread each — the
// per-thread ring cache is thread-local, so a dedicated thread binds its
// ring to the instance under test instead of whichever recorder the main
// thread touched first.
#include <gtest/gtest.h>

#include <cmath>
#include <cstdlib>
#include <fstream>
#include <map>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

#include "core/spmv.hpp"
#include "serve/engine.hpp"
#include "serve/slo.hpp"
#include "sparse/convert.hpp"
#include "telemetry/flight.hpp"
#include "telemetry/metrics.hpp"
#include "telemetry/profile.hpp"
#include "telemetry/span.hpp"
#include "test_matrices.hpp"
#include "util/env.hpp"
#include "util/error.hpp"
#include "vgpu/device.hpp"

namespace mps {
namespace {

/// Restore the profiler's default state (and scrub the knob variables)
/// on entry and exit so tests compose in any order.
struct ProfilerReset {
  ProfilerReset() { reset(); }
  ~ProfilerReset() { reset(); }
  static void reset() {
    telemetry::profiler().disable();
    telemetry::profiler().clear();
    telemetry::profiler().set_imbalance_threshold_pct(50.0);
    telemetry::profiler().set_roofline_frac(0.35);
    telemetry::metrics().reset();
    for (const char* knob :
         {"MPS_PROFILE", "MPS_PROFILE_IMBALANCE_PCT",
          "MPS_PROFILE_ROOFLINE_FRAC", "MPS_FLIGHT_RING", "MPS_FLIGHT_DIR",
          "MPS_SLO_LATENCY_MS", "MPS_SLO_OBJECTIVE", "MPS_SLO_SHORT_WINDOW",
          "MPS_SLO_LONG_WINDOW", "MPS_SLO_BURN_ALERT"}) {
      ::unsetenv(knob);
    }
  }
};

/// Minimal JSON well-formedness check: braces/brackets balance outside
/// string literals and the document is one object.
bool json_balanced(const std::string& s) {
  int depth = 0;
  bool in_string = false, escaped = false;
  for (char c : s) {
    if (in_string) {
      if (escaped) {
        escaped = false;
      } else if (c == '\\') {
        escaped = true;
      } else if (c == '"') {
        in_string = false;
      }
      continue;
    }
    if (c == '"') in_string = true;
    if (c == '{' || c == '[') ++depth;
    if (c == '}' || c == ']') {
      if (--depth < 0) return false;
    }
  }
  return depth == 0 && !in_string && !s.empty() && s.front() == '{';
}

sparse::CsrD small_matrix(std::uint64_t seed = 7) {
  util::Rng rng(seed);
  return sparse::coo_to_csr(testing::random_coo(rng, 300, 300, 4000));
}

std::vector<double> ones_x(const sparse::CsrD& a) {
  return std::vector<double>(static_cast<std::size_t>(a.num_cols), 1.0);
}

serve::EngineConfig engine_config(unsigned threads = 1, int window = 1) {
  serve::EngineConfig cfg;
  cfg.threads = threads;
  cfg.batch_window = window;
  cfg.queue_capacity = 256;
  cfg.plan_cache_bytes = 64u << 20;
  cfg.autotune = 0;
  cfg.chaos_enabled = 0;
  cfg.durable_enabled = 0;
  cfg.slo_enabled = 0;
  cfg.devices = 0;  // legacy single-device mode unless a test opts in
  return cfg;
}

// ---------------------------------------------------------------------------
// RooflineAgg arithmetic

TEST(Roofline, AggregateArithmetic) {
  telemetry::RooflineAgg a;
  EXPECT_DOUBLE_EQ(a.achieved_frac(), 0.0);  // no capacity: defined as 0
  EXPECT_DOUBLE_EQ(a.intensity(), 0.0);      // no bytes: defined as 0
  a.launches = 1;
  a.bytes = 300.0;
  a.flops = 600.0;
  a.modeled_ms = 2.0;
  a.capacity_bytes = 1000.0;
  EXPECT_DOUBLE_EQ(a.achieved_frac(), 0.3);
  EXPECT_DOUBLE_EQ(a.intensity(), 2.0);

  telemetry::RooflineAgg b;
  b.launches = 2;
  b.bytes = 700.0;
  b.flops = 400.0;
  b.modeled_ms = 3.0;
  b.capacity_bytes = 1000.0;
  a += b;
  EXPECT_EQ(a.launches, 3);
  EXPECT_DOUBLE_EQ(a.bytes, 1000.0);
  EXPECT_DOUBLE_EQ(a.modeled_ms, 5.0);
  EXPECT_DOUBLE_EQ(a.achieved_frac(), 0.5);
  EXPECT_DOUBLE_EQ(a.intensity(), 1.0);
}

// ---------------------------------------------------------------------------
// Profiler: recording, attribution axes, roofline classification

TEST(Profiler, DisabledRecordsNothing) {
  ProfilerReset guard;
  vgpu::Device dev;
  dev.launch("untracked.kernel", 2, 64,
             [](vgpu::Cta& cta) { cta.charge_global(4096); });
  const auto rep = telemetry::profiler().report();
  EXPECT_TRUE(rep.by_op.empty());
  EXPECT_TRUE(rep.by_phase.empty());
  EXPECT_TRUE(rep.by_device.empty());
  EXPECT_EQ(rep.shard_batches, 0);
}

TEST(Profiler, CapacityAggregateIndependentOfRecordOrder) {
  // Concurrent workers record launches in host-schedule order.  These
  // three launches' unrounded capacities (8892356.2..., 10535870.8,
  // 11273844.4 bytes) sum to different doubles forward and backward; the
  // whole-byte aggregate must not.
  ProfilerReset guard;
  auto& prof = telemetry::profiler();
  prof.enable();
  const double ms[] = {0.031522, 0.037348, 0.039964};
  for (const double m : ms) prof.record_kernel("fwd", 0.0, 0.0, m, 282.1);
  for (int i = 2; i >= 0; --i) {
    prof.record_kernel("rev", 0.0, 0.0, ms[i], 282.1);
  }
  const auto rep = prof.report();
  EXPECT_EQ(rep.by_op.at("fwd").capacity_bytes,
            rep.by_op.at("rev").capacity_bytes);
}

TEST(Profiler, RecordKernelAggregatesAlongAllAxes) {
  ProfilerReset guard;
  auto& prof = telemetry::profiler();
  prof.enable();

  {
    telemetry::ProfAttr attr;
    attr.tenant = 0xabc;
    attr.shard = 2;
    attr.device = 1;
    attr.phase = "unit.merge";
    telemetry::ProfAttrScope scope(attr);
    // peak 100 bytes/ns, 1e-3 ms = 1e3 ns -> capacity 1e5 bytes.
    prof.record_kernel("op.a", 5e4, 1e3, 1e-3, 100.0);
    prof.record_kernel("op.a", 3e4, 0.0, 1e-3, 100.0);
  }
  // Unattributed launch: default axes (tenant 0, device -1, no phase).
  prof.record_kernel("op.b", 1e4, 0.0, 1e-3, 100.0);
  prof.disable();

  const auto rep = prof.report();
  ASSERT_EQ(rep.by_op.count("op.a"), 1u);
  const auto& a = rep.by_op.at("op.a");
  EXPECT_EQ(a.launches, 2);
  EXPECT_DOUBLE_EQ(a.bytes, 8e4);
  EXPECT_DOUBLE_EQ(a.capacity_bytes, 2e5);
  EXPECT_DOUBLE_EQ(a.achieved_frac(), 0.4);

  ASSERT_EQ(rep.by_phase.count("unit.merge"), 1u);
  EXPECT_EQ(rep.by_phase.at("unit.merge").launches, 2);
  ASSERT_EQ(rep.by_phase.count("(none)"), 1u);  // unattributed bucket
  EXPECT_EQ(rep.by_phase.at("(none)").launches, 1);

  ASSERT_EQ(rep.by_device.count(1), 1u);
  EXPECT_EQ(rep.by_device.at(1).launches, 2);
  ASSERT_EQ(rep.by_device.count(-1), 1u);

  ASSERT_EQ(rep.by_tenant.count(0xabc), 1u);
  EXPECT_EQ(rep.by_tenant.at(0xabc).launches, 2);
  EXPECT_EQ(rep.by_tenant.count(0), 0u);  // tenant 0 is "no tenant"

  const auto shard_key = std::make_pair(std::uint64_t{0xabc}, 2);
  ASSERT_EQ(rep.by_shard.count(shard_key), 1u);
  EXPECT_EQ(rep.by_shard.at(shard_key).launches, 2);
}

TEST(Profiler, AttrScopeRestoresOnExit) {
  ProfilerReset guard;
  telemetry::current_prof_attr() = telemetry::ProfAttr{};
  {
    telemetry::ProfAttr attr;
    attr.tenant = 9;
    attr.phase = "scoped";
    telemetry::ProfAttrScope scope(attr);
    EXPECT_EQ(telemetry::current_prof_attr().tenant, 9u);
    {
      telemetry::ProfAttr inner;
      inner.tenant = 11;
      telemetry::ProfAttrScope nested(inner);
      EXPECT_EQ(telemetry::current_prof_attr().tenant, 11u);
    }
    EXPECT_EQ(telemetry::current_prof_attr().tenant, 9u);
    EXPECT_STREQ(telemetry::current_prof_attr().phase, "scoped");
  }
  EXPECT_EQ(telemetry::current_prof_attr().tenant, 0u);
}

TEST(Profiler, LaunchIntegrationChargesDeviceTraffic) {
  ProfilerReset guard;
  telemetry::profiler().enable();
  vgpu::Device dev;
  const auto stats = dev.launch("unit.traffic", 4, 128, [](vgpu::Cta& cta) {
    cta.charge_global(1 << 16);
  });
  telemetry::profiler().disable();

  const auto rep = telemetry::profiler().report();
  ASSERT_EQ(rep.by_op.count("unit.traffic"), 1u);
  const auto& agg = rep.by_op.at("unit.traffic");
  EXPECT_EQ(agg.launches, 1);
  EXPECT_DOUBLE_EQ(agg.bytes,
                   static_cast<double>(stats.totals.global_bytes +
                                       stats.totals.gather_bytes));
  EXPECT_DOUBLE_EQ(agg.modeled_ms, stats.modeled_ms);
  // Capacity is modeled time at the launching device's peak bandwidth,
  // so the achieved fraction can never exceed 1 for a pure-traffic kernel.
  EXPECT_GT(agg.capacity_bytes, 0.0);
  EXPECT_GT(agg.achieved_frac(), 0.0);
  EXPECT_LE(agg.achieved_frac(), 1.0 + 1e-9);
}

TEST(Profiler, BelowRooflineListsOnlyLowFractionOps) {
  ProfilerReset guard;
  auto& prof = telemetry::profiler();
  prof.enable();
  prof.record_kernel("op.bound", 9e4, 0.0, 1e-3, 100.0);    // frac 0.9
  prof.record_kernel("op.latency", 1e4, 0.0, 1e-3, 100.0);  // frac 0.1
  prof.disable();
  const auto rep = prof.report();
  ASSERT_EQ(rep.below_roofline.size(), 1u);
  EXPECT_EQ(rep.below_roofline[0], "op.latency");
  // The threshold is live: raising it reclassifies the bound op too.
  prof.set_roofline_frac(0.95);
  EXPECT_EQ(prof.report().below_roofline.size(), 2u);
}

// ---------------------------------------------------------------------------
// Profiler: shard imbalance detection

std::vector<telemetry::ShardSample> four_device_batch(double slow_ms) {
  // Shards 0..3 on devices 0..3; device 3 is the straggler.
  return {{0, 0, 1.0}, {1, 1, 1.0}, {2, 2, 1.0}, {3, 3, slow_ms}};
}

TEST(Profiler, ImbalanceFlagsNameTheStraggler) {
  ProfilerReset guard;
  auto& prof = telemetry::profiler();
  // Busy 1,1,1,3: mean 1.5, critical path 3.0 -> 100% above, flagged.
  const auto samples = four_device_batch(3.0);
  EXPECT_TRUE(prof.note_shard_batch(0x51, samples));
  const auto rep = prof.report();
  EXPECT_EQ(rep.shard_batches, 1);
  EXPECT_EQ(rep.imbalance_total, 1);
  ASSERT_EQ(rep.imbalance_flags.size(), 1u);
  const auto& flag = rep.imbalance_flags[0];
  EXPECT_EQ(flag.tenant, 0x51u);
  EXPECT_EQ(flag.straggler_device, 3);
  EXPECT_EQ(flag.straggler_shard, 3u);
  EXPECT_DOUBLE_EQ(flag.straggler_ms, 3.0);
  EXPECT_DOUBLE_EQ(flag.mean_ms, 1.5);
  EXPECT_DOUBLE_EQ(flag.ratio, 2.0);
}

TEST(Profiler, ImbalanceBelowThresholdNotFlagged) {
  ProfilerReset guard;
  auto& prof = telemetry::profiler();
  // Busy 1,1,1,1.6: mean 1.15, critical 1.6 -> 39% above, under the 50%
  // default threshold.
  EXPECT_FALSE(prof.note_shard_batch(1, four_device_batch(1.6)));
  // The same batch trips a tightened threshold.
  prof.set_imbalance_threshold_pct(25.0);
  EXPECT_TRUE(prof.note_shard_batch(1, four_device_batch(1.6)));
  const auto rep = prof.report();
  EXPECT_EQ(rep.shard_batches, 2);
  EXPECT_EQ(rep.imbalance_total, 1);
}

TEST(Profiler, ImbalanceNeedsTwoActiveDevices) {
  ProfilerReset guard;
  auto& prof = telemetry::profiler();
  // Two shards on ONE device: there is no fleet to be imbalanced against.
  const std::vector<telemetry::ShardSample> one_dev{{0, 0, 1.0}, {1, 0, 9.0}};
  EXPECT_FALSE(prof.note_shard_batch(1, one_dev));
  EXPECT_FALSE(
      prof.note_shard_batch(1, std::vector<telemetry::ShardSample>{}));
  const auto rep = prof.report();
  EXPECT_EQ(rep.shard_batches, 1);  // empty batches are not examined
  EXPECT_EQ(rep.imbalance_total, 0);
}

TEST(Profiler, ImbalanceFlagRingIsBounded) {
  ProfilerReset guard;
  auto& prof = telemetry::profiler();
  const auto samples = four_device_batch(4.0);
  for (int i = 0; i < 300; ++i) {
    ASSERT_TRUE(prof.note_shard_batch(static_cast<std::uint64_t>(i + 1),
                                      samples));
  }
  const auto rep = prof.report();
  EXPECT_EQ(rep.imbalance_total, 300);
  EXPECT_EQ(rep.imbalance_flags.size(), 256u);  // kMaxFlags, recent kept
}

TEST(Profiler, WriteJsonIsWellFormed) {
  ProfilerReset guard;
  auto& prof = telemetry::profiler();
  prof.enable();
  {
    telemetry::ProfAttr attr;
    attr.tenant = 3;
    attr.shard = 0;
    attr.device = 0;
    attr.phase = "json.phase";
    telemetry::ProfAttrScope scope(attr);
    prof.record_kernel("json.op", 1e4, 2e3, 1e-3, 100.0);
  }
  prof.note_shard_batch(3, four_device_batch(3.0));
  prof.disable();
  std::ostringstream os;
  prof.write_json(os);
  const std::string s = os.str();
  EXPECT_TRUE(json_balanced(s)) << s;
  EXPECT_NE(s.find("\"by_op\""), std::string::npos);
  EXPECT_NE(s.find("\"json.op\""), std::string::npos);
  EXPECT_NE(s.find("\"imbalance_flags\""), std::string::npos);
  EXPECT_NE(s.find("\"straggler_device\":3"), std::string::npos);
}

TEST(Profiler, EnvKnobsStrictParse) {
  ProfilerReset guard;
  ::setenv("MPS_PROFILE", "1", 1);
  ::setenv("MPS_PROFILE_IMBALANCE_PCT", "75", 1);
  ::setenv("MPS_PROFILE_ROOFLINE_FRAC", "0.5", 1);
  EXPECT_TRUE(telemetry::profiler().configure_from_env());
  EXPECT_DOUBLE_EQ(telemetry::profiler().imbalance_threshold_pct(), 75.0);
  EXPECT_DOUBLE_EQ(telemetry::profiler().roofline_frac(), 0.5);
  ProfilerReset::reset();

  ::setenv("MPS_PROFILE", "2", 1);  // out of [0, 1]
  EXPECT_THROW(telemetry::profiler().configure_from_env(), InvalidInputError);
  ::unsetenv("MPS_PROFILE");
  ::setenv("MPS_PROFILE_IMBALANCE_PCT", "lots", 1);
  EXPECT_THROW(telemetry::profiler().configure_from_env(), InvalidInputError);
  ::unsetenv("MPS_PROFILE_IMBALANCE_PCT");
  ::setenv("MPS_PROFILE_ROOFLINE_FRAC", "-0.2", 1);
  EXPECT_THROW(telemetry::profiler().configure_from_env(), InvalidInputError);
}

// ---------------------------------------------------------------------------
// Strict path knobs (MPS_TRACE_OUT / MPS_FLIGHT_DIR both go through this)

TEST(EnvPath, UnsetEmptyAndSetSemantics) {
  ::unsetenv("MPS_TEST_PATH_KNOB");
  EXPECT_EQ(util::env_path_checked("MPS_TEST_PATH_KNOB"), "");
  ::setenv("MPS_TEST_PATH_KNOB", "/tmp/somewhere.json", 1);
  EXPECT_EQ(util::env_path_checked("MPS_TEST_PATH_KNOB"),
            "/tmp/somewhere.json");
  // Set-but-empty is a shell quoting accident, not "disable": it throws
  // instead of silently dropping the artifact the caller asked for.
  ::setenv("MPS_TEST_PATH_KNOB", "", 1);
  EXPECT_THROW(util::env_path_checked("MPS_TEST_PATH_KNOB"),
               InvalidInputError);
  ::unsetenv("MPS_TEST_PATH_KNOB");
}

// ---------------------------------------------------------------------------
// Flight recorder

TEST(Flight, RingIsBoundedAndKeepsTheMostRecent) {
  ProfilerReset guard;
  ::setenv("MPS_FLIGHT_RING", "16", 1);
  telemetry::FlightRecorder fr;
  ::unsetenv("MPS_FLIGHT_RING");
  EXPECT_EQ(fr.ring_capacity(), 16u);
  // Note from a fresh thread so the thread-local ring binds to THIS
  // recorder (the main thread's ring may belong to the global one).
  std::thread writer([&fr] {
    for (int i = 0; i < 40; ++i) {
      fr.note("unit", "event" + std::to_string(i));
    }
  });
  writer.join();
  const auto events = fr.snapshot();
  ASSERT_EQ(events.size(), 16u);  // bounded: only the ring survives
  for (std::size_t i = 1; i < events.size(); ++i) {
    EXPECT_LT(events[i - 1].seq, events[i].seq);  // global order kept
  }
  bool saw_last = false, saw_first = false;
  for (const auto& ev : events) {
    EXPECT_EQ(ev.kind, "unit");
    if (ev.name == "event39") saw_last = true;
    if (ev.name == "event0") saw_first = true;
  }
  EXPECT_TRUE(saw_last);    // the most recent event is retained
  EXPECT_FALSE(saw_first);  // the oldest was overwritten
  fr.clear();
  EXPECT_TRUE(fr.snapshot().empty());
}

TEST(Flight, KnobsStrictParse) {
  ProfilerReset guard;
  ::setenv("MPS_FLIGHT_RING", "many", 1);
  EXPECT_THROW(telemetry::FlightRecorder{}, InvalidInputError);
  ::setenv("MPS_FLIGHT_RING", "8", 1);  // below the [16, 1M] floor
  EXPECT_THROW(telemetry::FlightRecorder{}, InvalidInputError);
  ::unsetenv("MPS_FLIGHT_RING");
  ::setenv("MPS_FLIGHT_DIR", "", 1);  // set-but-empty path
  EXPECT_THROW(telemetry::FlightRecorder{}, InvalidInputError);
  ::unsetenv("MPS_FLIGHT_DIR");
}

TEST(Flight, BundleJsonEmbedsEventsMetricsProfileAndState) {
  ProfilerReset guard;
  telemetry::FlightRecorder fr;
  std::thread writer([&fr] {
    fr.note("request", "unit.settle", "latency=1.5ms");
    fr.note("failover", "quote\"back\\slash\nnewline");  // must be escaped
  });
  writer.join();
  telemetry::metrics().counter("flight.test.counter").add(5);
  const int ok_id = fr.register_state_provider(
      "unit.engine", [](std::ostream& os) { os << "{\"live\":true}"; });
  fr.register_state_provider("unit.broken", [](std::ostream&) {
    throw std::runtime_error("provider died");
  });

  std::ostringstream os;
  fr.write_bundle(os, "unit \"reason\"");
  const std::string s = os.str();
  EXPECT_TRUE(json_balanced(s)) << s;
  EXPECT_NE(s.find("\"bundle\":\"mps-flight\""), std::string::npos);
  EXPECT_NE(s.find("\"schema\":1"), std::string::npos);
  EXPECT_NE(s.find("\"reason\":\"unit \\\"reason\\\"\""), std::string::npos);
  EXPECT_NE(s.find("\"unit.settle\""), std::string::npos);
  EXPECT_NE(s.find("latency=1.5ms"), std::string::npos);
  EXPECT_NE(s.find("quote\\\"back\\\\slash\\nnewline"), std::string::npos);
  EXPECT_NE(s.find("\"flight.test.counter\":5"), std::string::npos);
  EXPECT_NE(s.find("\"profile\":{"), std::string::npos);
  EXPECT_NE(s.find("\"unit.engine\":{\"live\":true}"), std::string::npos);
  // A throwing provider degrades to null without losing the bundle.
  EXPECT_NE(s.find("\"unit.broken\":null"), std::string::npos);

  fr.unregister_state_provider(ok_id);
  std::ostringstream os2;
  fr.write_bundle(os2, "after-unregister");
  EXPECT_EQ(os2.str().find("\"unit.engine\""), std::string::npos);
  EXPECT_TRUE(json_balanced(os2.str()));
}

TEST(Flight, DumpBundleIsGatedOnFlightDir) {
  ProfilerReset guard;
  {
    telemetry::FlightRecorder fr;  // MPS_FLIGHT_DIR unset
    EXPECT_EQ(fr.dump_dir(), "");
    EXPECT_EQ(fr.dump_bundle("no-dir"), "");  // no uninvited files
  }
  const std::string dir = ::testing::TempDir();
  ::setenv("MPS_FLIGHT_DIR", dir.c_str(), 1);
  telemetry::FlightRecorder fr;
  ::unsetenv("MPS_FLIGHT_DIR");
  const std::string path = fr.dump_bundle("unit test!");
  ASSERT_FALSE(path.empty());
  // The reason is sanitized into the filename.
  EXPECT_NE(path.find("flight_bundle_unit-test-.json"), std::string::npos);
  std::ifstream in(path);
  ASSERT_TRUE(in.good());
  std::string contents((std::istreambuf_iterator<char>(in)),
                       std::istreambuf_iterator<char>());
  EXPECT_NE(contents.find("\"reason\":\"unit test!\""), std::string::npos);
  std::remove(path.c_str());
}

// ---------------------------------------------------------------------------
// SLO tracker: burn-rate math, window retirement, alert edges

serve::SloConfig slo_config(double latency = 1.0, double objective = 0.9,
                            int short_w = 2, int long_w = 4,
                            double burn = 2.0) {
  serve::SloConfig cfg;
  cfg.latency_ms = latency;
  cfg.objective = objective;
  cfg.short_window = short_w;
  cfg.long_window = long_w;
  cfg.burn_alert = burn;
  return cfg;
}

TEST(Slo, GoodRequestsBurnNothing) {
  serve::SloTracker t(slo_config());
  serve::TenantSlo snap;
  for (int i = 0; i < 10; ++i) {
    EXPECT_FALSE(t.observe(1, 0.5, true, &snap));
  }
  EXPECT_EQ(snap.total, 10);
  EXPECT_EQ(snap.bad, 0);
  EXPECT_DOUBLE_EQ(snap.burn_short, 0.0);
  EXPECT_DOUBLE_EQ(snap.burn_long, 0.0);
  EXPECT_DOUBLE_EQ(snap.budget_remaining, 1.0);
  EXPECT_FALSE(snap.alerting);
  EXPECT_TRUE(t.alerting().empty());
}

TEST(Slo, SlowAndFailedRequestsAreBothBad) {
  serve::SloTracker t(slo_config(/*latency=*/1.0));
  serve::TenantSlo snap;
  t.observe(1, 5.0, true, &snap);   // slow but successful
  EXPECT_EQ(snap.bad, 1);
  t.observe(1, 0.1, false, &snap);  // fast but failed
  EXPECT_EQ(snap.bad, 2);
  t.observe(1, 1.0, true, &snap);   // exactly at threshold: good
  EXPECT_EQ(snap.bad, 2);
}

TEST(Slo, BurnRateMathOnPartialWindows) {
  // objective 0.9 -> budget 0.1; short 2, long 4.
  serve::SloTracker t(slo_config());
  serve::TenantSlo snap;
  t.observe(7, 0.1, true, &snap);
  t.observe(7, 9.0, true, &snap);  // bad
  // Window contents: long [good, bad] -> bad_frac 1/2, burn 5; short
  // (trailing 2) identical.
  EXPECT_DOUBLE_EQ(snap.burn_long, 5.0);
  EXPECT_DOUBLE_EQ(snap.burn_short, 5.0);
  EXPECT_DOUBLE_EQ(snap.budget_remaining, 1.0 - 5.0);
  t.observe(7, 0.1, true, &snap);
  t.observe(7, 0.1, true, &snap);
  // long [g,b,g,g] -> burn 2.5; short [g,g] -> burn 0.
  EXPECT_DOUBLE_EQ(snap.burn_long, 2.5);
  EXPECT_DOUBLE_EQ(snap.burn_short, 0.0);
}

TEST(Slo, LongWindowRetiresOldMarks) {
  serve::SloTracker t(slo_config());
  serve::TenantSlo snap;
  t.observe(1, 9.0, false, &snap);  // bad, will be retired
  for (int i = 0; i < 4; ++i) t.observe(1, 0.1, true, &snap);
  // The bad mark left the long ring (capacity 4): burn is clean again.
  EXPECT_DOUBLE_EQ(snap.burn_long, 0.0);
  EXPECT_DOUBLE_EQ(snap.budget_remaining, 1.0);
  EXPECT_EQ(snap.bad, 1);    // lifetime counter keeps it
  EXPECT_EQ(snap.total, 5);
}

TEST(Slo, AlertIsAnEdgeAndNeedsBothWindows) {
  // burn_alert 2.0 with budget 0.1: a single bad mark in both windows
  // exceeds it, so the first bad observation is the transition.
  serve::SloTracker t(slo_config());
  serve::TenantSlo snap;
  EXPECT_FALSE(t.observe(1, 0.1, true, &snap));
  EXPECT_TRUE(t.observe(1, 9.0, true, &snap));  // enters alerting: edge
  EXPECT_TRUE(snap.alerting);
  EXPECT_EQ(snap.alerts, 1);
  // Still alerting: observe returns false (level, not edge).
  EXPECT_FALSE(t.observe(1, 9.0, true, &snap));
  EXPECT_TRUE(snap.alerting);
  EXPECT_EQ(snap.alerts, 1);
  EXPECT_EQ(t.alerting(), std::vector<std::uint64_t>{1});

  // Two goods clear the SHORT window; the long window still holds both
  // bad marks, but the alert needs BOTH windows above the rate.
  t.observe(1, 0.1, true, &snap);
  EXPECT_FALSE(t.observe(1, 0.1, true, &snap));
  EXPECT_FALSE(snap.alerting);
  EXPECT_GT(snap.burn_long, 2.0);  // long alone does not page

  // A fresh bad puts BOTH windows back above the rate (short [g,b] and
  // long [b,b,g,...,b] both burn 5): a second alert edge is counted.
  EXPECT_TRUE(t.observe(1, 9.0, true, &snap));
  EXPECT_TRUE(snap.alerting);
  EXPECT_EQ(snap.alerts, 2);
}

TEST(Slo, TenantsAreIndependentAndUnknownIsZero) {
  serve::SloTracker t(slo_config());
  t.observe(1, 9.0, false);
  t.observe(2, 0.1, true);
  EXPECT_EQ(t.tenant(1).bad, 1);
  EXPECT_EQ(t.tenant(2).bad, 0);
  EXPECT_EQ(t.tenant(42).total, 0);  // unknown: zero-value snapshot
  EXPECT_EQ(t.report().size(), 2u);
  EXPECT_EQ(t.report()[0].tenant, 1u);  // keyed order
  EXPECT_EQ(t.report()[1].tenant, 2u);
}

TEST(Slo, FromEnvDefaultsAndStrictParse) {
  ProfilerReset guard;
  const auto cfg = serve::SloConfig::from_env();
  EXPECT_DOUBLE_EQ(cfg.latency_ms, 50.0);
  EXPECT_DOUBLE_EQ(cfg.objective, 0.999);
  EXPECT_EQ(cfg.short_window, 256);
  EXPECT_EQ(cfg.long_window, 4096);
  EXPECT_DOUBLE_EQ(cfg.burn_alert, 2.0);

  ::setenv("MPS_SLO_OBJECTIVE", "1.5", 1);  // outside (0, 1)
  EXPECT_THROW(serve::SloConfig::from_env(), InvalidInputError);
  ::setenv("MPS_SLO_OBJECTIVE", "nine-nines", 1);
  EXPECT_THROW(serve::SloConfig::from_env(), InvalidInputError);
  ::unsetenv("MPS_SLO_OBJECTIVE");
  ::setenv("MPS_SLO_LATENCY_MS", "-5", 1);
  EXPECT_THROW(serve::SloConfig::from_env(), InvalidInputError);
  ::unsetenv("MPS_SLO_LATENCY_MS");
  ::setenv("MPS_SLO_SHORT_WINDOW", "0", 1);  // below the floor of 1
  EXPECT_THROW(serve::SloConfig::from_env(), InvalidInputError);
  ::unsetenv("MPS_SLO_SHORT_WINDOW");
  ::setenv("MPS_SLO_SHORT_WINDOW", "64", 1);
  ::setenv("MPS_SLO_LONG_WINDOW", "32", 1);  // long < short
  EXPECT_THROW(serve::SloConfig::from_env(), InvalidInputError);
  ::unsetenv("MPS_SLO_SHORT_WINDOW");
  ::unsetenv("MPS_SLO_LONG_WINDOW");
  ::setenv("MPS_SLO_BURN_ALERT", "fast", 1);
  EXPECT_THROW(serve::SloConfig::from_env(), InvalidInputError);
}

// ---------------------------------------------------------------------------
// Engine integration: explain(), SLO stats, sharded imbalance attribution

TEST(EngineExplain, ColdResidentAndUnknownHandles) {
  ProfilerReset guard;
  serve::Engine engine(engine_config());
  EXPECT_FALSE(engine.explain(0xdead).registered);

  const auto a = small_matrix();
  const auto h = engine.register_matrix(a);
  auto ex = engine.explain(h);
  EXPECT_TRUE(ex.registered);
  EXPECT_EQ(ex.handle, h);
  EXPECT_FALSE(ex.plan_resident);  // nothing submitted yet
  EXPECT_TRUE(ex.choice.empty());
  EXPECT_FALSE(ex.sharded);

  engine.submit_spmv(h, ones_x(a)).get();
  ex = engine.explain(h);
  EXPECT_TRUE(ex.plan_resident);
  EXPECT_GT(ex.plan_bytes, 0u);
  // Autotune off: the one-candidate tune, the static merge default
  // built without a trial.
  EXPECT_EQ(ex.choice, "merge(128x7)");
  EXPECT_TRUE(ex.trials.empty());
  EXPECT_EQ(ex.steady_ms, 0.0);
}

TEST(EngineExplain, AutotuneOffLaunchesExactlyPlanPlusExecute) {
  // Autotune off is the one-candidate tune: the first unbatched SpMV in a
  // legacy engine must cost exactly spmv_plan + spmv_execute on a titan,
  // and launch exactly that pair's kernels — no trial may run.
  ProfilerReset guard;
  const auto a = small_matrix();
  const auto x = ones_x(a);

  vgpu::Device ref_dev(vgpu::gtx_titan());
  std::vector<double> y_ref(static_cast<std::size_t>(a.num_rows));
  const auto plan = core::merge::spmv_plan(ref_dev, a);
  const auto exec = core::merge::spmv_execute(ref_dev, a, x, y_ref, plan);
  std::map<std::string, long long> ref_launches;
  for (const auto& k : ref_dev.log()) ++ref_launches[k.name];
  // The pair is the partition launch plus ONE execute launch: the carry
  // update is the reduce launch's tail.
  EXPECT_EQ(ref_launches["merge.spmv_partition"], 1);
  EXPECT_EQ(ref_launches["merge.spmv_reduce"], 1);
  EXPECT_EQ(ref_launches.count("merge.spmv_update"), 0u);

  telemetry::profiler().enable();
  serve::Engine engine(engine_config());
  const auto h = engine.register_matrix(a);
  const auto r = engine.submit_spmv(h, x).get();
  engine.shutdown();
  const auto rep = telemetry::profiler().report();

  EXPECT_FALSE(r.plan_cache_hit);
  EXPECT_EQ(r.modeled_ms, exec.modeled_ms());  // bit-equal
  EXPECT_EQ(r.y, y_ref);
  std::map<std::string, long long> engine_launches;
  for (const auto& [name, agg] : rep.by_op) {
    engine_launches[name] = agg.launches;
  }
  EXPECT_EQ(engine_launches, ref_launches);
  ASSERT_EQ(rep.by_tenant.count(h), 1u);
  EXPECT_EQ(rep.by_tenant.at(h).launches,
            static_cast<long long>(ref_dev.log().size()));
  EXPECT_EQ(telemetry::metrics().counter("autotune.trials").value(), 0);
  EXPECT_EQ(telemetry::metrics().counter("autotune.tunes").value(), 1);
}

TEST(EngineExplain, TunedDispatchRecordsTrialsAndChoice) {
  ProfilerReset guard;
  auto cfg = engine_config();
  cfg.autotune = 1;
  serve::Engine engine(cfg);
  const auto a = small_matrix();
  const auto h = engine.register_matrix(a);
  engine.submit_spmv(h, ones_x(a)).get();

  const auto ex = engine.explain(h);
  EXPECT_TRUE(ex.plan_resident);
  EXPECT_FALSE(ex.choice.empty());
  EXPECT_FALSE(ex.trials.empty());  // the full decision record
  EXPECT_GT(ex.steady_ms, 0.0);
  EXPECT_GT(ex.tune_ms, 0.0);
  EXPECT_EQ(ex.features.nnz, a.nnz());
  EXPECT_EQ(ex.features.rows, a.num_rows);
  // The winner's steady cost is the minimum over the trials it beat.
  double best = 1e300;
  for (const auto& trial : ex.trials) best = std::min(best, trial.modeled_ms);
  EXPECT_DOUBLE_EQ(ex.steady_ms, best);
}

TEST(EngineExplain, ShardedLayoutIsReported) {
  ProfilerReset guard;
  auto cfg = engine_config();
  cfg.devices = 4;
  cfg.shard_max = 4;
  cfg.shard_min_nnz = 1;
  cfg.shard_placement = "uniform";
  serve::Engine engine(cfg);
  const auto a = small_matrix();
  const auto h = engine.register_matrix(a);

  auto ex = engine.explain(h);
  ASSERT_TRUE(ex.sharded);
  EXPECT_GE(ex.shards, 2);
  EXPECT_EQ(ex.shard_devices.size(), static_cast<std::size_t>(ex.shards));
  ASSERT_EQ(ex.shard_plans.size(), static_cast<std::size_t>(ex.shards));
  for (const auto& plan : ex.shard_plans) EXPECT_EQ(plan, "cold");

  engine.submit_spmv(h, ones_x(a)).get();
  engine.drain();
  ex = engine.explain(h);
  bool any_resident = false;
  for (const auto& plan : ex.shard_plans) {
    if (plan != "cold") any_resident = true;
  }
  EXPECT_TRUE(any_resident);
}

TEST(EngineSlo, StatsTrackTenantsAndAlerts) {
  ProfilerReset guard;
  // Generous threshold: every request is good.
  ::setenv("MPS_SLO_LATENCY_MS", "1000000", 1);
  auto cfg = engine_config();
  cfg.slo_enabled = 1;
  {
    serve::Engine engine(cfg);
    const auto a = small_matrix();
    const auto h = engine.register_matrix(a);
    for (int i = 0; i < 5; ++i) engine.submit_spmv(h, ones_x(a)).get();
    const auto stats = engine.stats();
    ASSERT_TRUE(stats.slo.enabled);
    EXPECT_DOUBLE_EQ(stats.slo.latency_ms, 1000000.0);
    ASSERT_EQ(stats.slo.tenants.size(), 1u);
    EXPECT_EQ(stats.slo.tenants[0].tenant, h);
    EXPECT_EQ(stats.slo.tenants[0].total, 5);
    EXPECT_EQ(stats.slo.tenants[0].bad, 0);
    EXPECT_EQ(stats.slo.alerting_now, 0);
  }
  // Zero threshold: every request (wall latency > 0) violates, and the
  // default 0.999 objective pages on the first violation in both windows.
  ::setenv("MPS_SLO_LATENCY_MS", "0", 1);
  {
    serve::Engine engine(cfg);
    const auto a = small_matrix();
    const auto h = engine.register_matrix(a);
    for (int i = 0; i < 5; ++i) engine.submit_spmv(h, ones_x(a)).get();
    const auto stats = engine.stats();
    ASSERT_TRUE(stats.slo.enabled);
    ASSERT_EQ(stats.slo.tenants.size(), 1u);
    EXPECT_EQ(stats.slo.tenants[0].bad, 5);
    EXPECT_TRUE(stats.slo.tenants[0].alerting);
    EXPECT_GE(stats.slo.tenants[0].alerts, 1);
    EXPECT_EQ(stats.slo.alerting_now, 1);
  }
  ::unsetenv("MPS_SLO_LATENCY_MS");
}

TEST(EngineSlo, DisabledLeavesStatsEmpty) {
  ProfilerReset guard;
  serve::Engine engine(engine_config());
  const auto a = small_matrix();
  const auto h = engine.register_matrix(a);
  engine.submit_spmv(h, ones_x(a)).get();
  const auto stats = engine.stats();
  EXPECT_FALSE(stats.slo.enabled);
  EXPECT_TRUE(stats.slo.tenants.empty());
}

TEST(EngineImbalance, HeterogeneousFleetFlagsTheSlowDevice) {
  // The acceptance scenario: a 4-device fleet with one slow part and
  // UNIFORM placement (equal diagonal spans) must produce an imbalance
  // flag naming the slow device as the straggler — its ~0.39x bandwidth
  // puts its busy time far above the fleet mean.  The matrix must be
  // large enough that per-shard kernel time is bandwidth-dominated: on a
  // small one the fixed launch overhead dominates and the slow device
  // only trails by the clock ratio (~1.46x), under the 50% threshold.
  ProfilerReset guard;
  telemetry::profiler().enable();
  auto cfg = engine_config();
  cfg.devices = 4;
  cfg.device_spec = "titan*3,slow*1";
  cfg.shard_max = 4;
  cfg.shard_min_nnz = 1;
  cfg.shard_placement = "uniform";
  serve::Engine engine(cfg);
  util::Rng rng(7);
  const auto a =
      sparse::coo_to_csr(testing::random_coo(rng, 2000, 2000, 1000000));
  const auto h = engine.register_matrix(a);
  for (int i = 0; i < 3; ++i) engine.submit_spmv(h, ones_x(a)).get();
  engine.drain();
  telemetry::profiler().disable();

  const auto rep = telemetry::profiler().report();
  EXPECT_GE(rep.shard_batches, 3);
  ASSERT_GT(rep.imbalance_total, 0);
  ASSERT_FALSE(rep.imbalance_flags.empty());
  const auto& flag = rep.imbalance_flags.back();
  EXPECT_EQ(flag.tenant, h);
  EXPECT_EQ(flag.straggler_device, 3);  // the slow slot in the spec
  EXPECT_GT(flag.ratio, 1.5);

  // The launches were attributed along the serve axes too.
  EXPECT_EQ(rep.by_phase.count("serve.spmv"), 1u);
  EXPECT_EQ(rep.by_tenant.count(h), 1u);
  bool shard_buckets = false;
  for (const auto& [key, agg] : rep.by_shard) {
    if (key.first == h && agg.launches > 0) shard_buckets = true;
  }
  EXPECT_TRUE(shard_buckets);
}

}  // namespace
}  // namespace mps

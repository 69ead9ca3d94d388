// Chaos-schedule tests: the script grammar, the seeded generator, and
// the launch-side fault classes (device loss, stragglers) they drive.
//
// The determinism contract under test: a chaos schedule is data, not
// randomness at fire time — the same schedule armed on the same device
// produces the same faults at the same launch ordinals, and a disarmed
// (or empty) schedule leaves modeled results bitwise-identical to a
// device with no chaos layer at all.

#include <gtest/gtest.h>

#include <string>
#include <vector>

#include "core/spmv.hpp"
#include "sparse/convert.hpp"
#include "test_matrices.hpp"
#include "util/rng.hpp"
#include "vgpu/chaos.hpp"
#include "vgpu/device.hpp"

namespace {

using namespace mps;
using vgpu::ChaosEvent;
using vgpu::ChaosSchedule;

vgpu::Device make_clean_device() {
  vgpu::Device dev;
  dev.fault_injector().disarm();
  dev.fault_injector().reset_counters();
  return dev;
}

/// A no-cost kernel launch: advances the launch ordinal without any
/// modeled time, so launch-triggered events can be stepped one by one.
void noop_launch(vgpu::Device& dev) {
  dev.launch("chaos_test_noop", 1, 32, [](vgpu::Cta&) {});
}

// ---------------------------------------------------------------------------
// Script grammar.

TEST(ChaosScript, ParsesEveryVerbAndRoundTrips) {
  const std::string script =
      "lose:dev=1@launch=40; straggle:dev=0@launch=4,x=8,every=16; "
      "oom@alloc=12; flip:dev=2@alloc=16,offset=3,mask=0x80,every=64";
  const ChaosSchedule sched = ChaosSchedule::parse(script);
  ASSERT_EQ(sched.events.size(), 4u);

  EXPECT_EQ(sched.events[0].kind, ChaosEvent::Kind::kDeviceLoss);
  EXPECT_EQ(sched.events[0].device, 1);
  EXPECT_EQ(sched.events[0].at_launch, 40);

  EXPECT_EQ(sched.events[1].kind, ChaosEvent::Kind::kStraggler);
  EXPECT_EQ(sched.events[1].device, 0);
  EXPECT_EQ(sched.events[1].factor, 8.0);
  EXPECT_EQ(sched.events[1].every, 16);

  EXPECT_EQ(sched.events[2].kind, ChaosEvent::Kind::kAllocFail);
  EXPECT_EQ(sched.events[2].device, -1);  // no :dev= → every device
  EXPECT_EQ(sched.events[2].at_alloc, 12);

  EXPECT_EQ(sched.events[3].kind, ChaosEvent::Kind::kBitFlip);
  EXPECT_EQ(sched.events[3].offset, 3u);
  EXPECT_EQ(sched.events[3].mask, 0x80);
  EXPECT_EQ(sched.events[3].every, 64);

  // to_script() → parse() is the identity on the canonical form.
  const std::string canonical = sched.to_script();
  EXPECT_EQ(ChaosSchedule::parse(canonical).to_script(), canonical);
}

TEST(ChaosScript, LossByModeledTimeParses) {
  const ChaosSchedule sched = ChaosSchedule::parse("lose@ms=2.5");
  ASSERT_EQ(sched.events.size(), 1u);
  EXPECT_EQ(sched.events[0].at_modeled_ms, 2.5);
  EXPECT_EQ(sched.events[0].at_launch, 0);
}

TEST(ChaosScript, MalformedScriptsAreRejectedNamingTheSource) {
  const char* bad[] = {
      "explode@launch=1",          // unknown verb
      "lose",                      // no trigger section
      "lose@",                     // empty trigger
      "lose@launch=zero",          // non-numeric
      "lose@launch=0",             // ordinals are 1-based
      "straggle@launch=4,x=0.5",   // factor must be >= 1
      "straggle@x=4",              // missing trigger
      "oom@launch=3",              // wrong trigger for the verb
      "flip@alloc=1,mask=0x1FF",   // mask exceeds one byte
      "flip@alloc=1,color=red",    // unknown parameter
  };
  for (const char* script : bad) {
    SCOPED_TRACE(script);
    try {
      ChaosSchedule::parse(script, "test source");
      FAIL() << "expected InvalidInputError for: " << script;
    } catch (const InvalidInputError& e) {
      EXPECT_NE(std::string(e.what()).find("test source"), std::string::npos)
          << e.what();
    }
  }
}

// ---------------------------------------------------------------------------
// Seeded schedules.

TEST(ChaosEnv, SeededScheduleIsDeterministic) {
  const ChaosSchedule a = ChaosSchedule::seeded(7, 4);
  const ChaosSchedule b = ChaosSchedule::seeded(7, 4);
  EXPECT_EQ(a.to_script(), b.to_script());
  // One loss + (straggler, oom, flip) per device.
  EXPECT_EQ(a.events.size(), 1u + 3u * 4u);
  const ChaosSchedule c = ChaosSchedule::seeded(8, 4);
  EXPECT_NE(a.to_script(), c.to_script());
}

// ---------------------------------------------------------------------------
// Device loss.

TEST(DeviceLoss, LaunchOrdinalTriggerIsPermanent) {
  auto dev = make_clean_device();
  dev.fault_injector().arm_chaos(ChaosSchedule::parse("lose@launch=3"), 0);
  noop_launch(dev);
  noop_launch(dev);
  EXPECT_THROW(noop_launch(dev), vgpu::DeviceLostError);
  // Permanence: every later launch AND every later allocation refuses.
  EXPECT_THROW(noop_launch(dev), vgpu::DeviceLostError);
  EXPECT_THROW(vgpu::ScopedDeviceAlloc(dev.memory(), 64),
               vgpu::DeviceLostError);
  EXPECT_TRUE(dev.fault_injector().lost());
  EXPECT_EQ(dev.fault_injector().losses_injected(), 1);
}

TEST(DeviceLoss, ModeledTimeTriggerFires) {
  // ms=0 trips on the first launch (cumulative modeled time 0 >= 0); a
  // real workload uses this to schedule losses by timeline position.
  auto dev = make_clean_device();
  dev.fault_injector().arm_chaos(ChaosSchedule::parse("lose@ms=0"), 0);
  EXPECT_THROW(noop_launch(dev), vgpu::DeviceLostError);
  EXPECT_TRUE(dev.fault_injector().lost());
}

TEST(DeviceLoss, DisarmRestoresService) {
  auto dev = make_clean_device();
  dev.fault_injector().lose_now();
  EXPECT_THROW(noop_launch(dev), vgpu::DeviceLostError);
  dev.fault_injector().disarm_chaos();
  noop_launch(dev);  // healthy again
  EXPECT_FALSE(dev.fault_injector().lost());
}

TEST(DeviceLoss, PerDeviceArmingFiltersByOrdinal) {
  const ChaosSchedule sched = ChaosSchedule::parse("lose:dev=1@launch=1");
  auto dev0 = make_clean_device();
  dev0.fault_injector().arm_chaos(sched, /*device_ordinal=*/0);
  EXPECT_FALSE(dev0.fault_injector().chaos_armed());
  noop_launch(dev0);  // unaffected

  auto dev1 = make_clean_device();
  dev1.fault_injector().arm_chaos(sched, /*device_ordinal=*/1);
  EXPECT_TRUE(dev1.fault_injector().chaos_armed());
  EXPECT_THROW(noop_launch(dev1), vgpu::DeviceLostError);
}

// ---------------------------------------------------------------------------
// Stragglers.

TEST(Straggler, InflatesModeledTimeByExactFactor) {
  util::Rng rng(31);
  const auto a = sparse::coo_to_csr(mps::testing::random_coo(rng, 120, 120, 900));
  std::vector<double> x(static_cast<std::size_t>(a.num_cols), 1.0);

  // Baseline: per-launch modeled times on a fault-free device.
  auto base = make_clean_device();
  std::vector<double> y_base(static_cast<std::size_t>(a.num_rows), 0.0);
  core::merge::spmv(base, a, x, y_base);
  ASSERT_FALSE(base.log().empty());

  // Same workload with EVERY launch slowed 2x (factor 2 scales doubles
  // exactly, so the comparison below is bitwise, not tolerance).
  auto slow = make_clean_device();
  slow.fault_injector().arm_chaos(
      ChaosSchedule::parse("straggle@launch=1,x=2,every=1"), 0);
  std::vector<double> y_slow(static_cast<std::size_t>(a.num_rows), 0.0);
  core::merge::spmv(slow, a, x, y_slow);

  // Results are untouched — stragglers bend the clock, never the data.
  EXPECT_EQ(y_base, y_slow);
  ASSERT_EQ(base.log().size(), slow.log().size());
  for (std::size_t i = 0; i < base.log().size(); ++i) {
    EXPECT_EQ(slow.log()[i].modeled_ms, 2.0 * base.log()[i].modeled_ms)
        << "launch " << i << " (" << base.log()[i].name << ")";
  }
  EXPECT_EQ(slow.modeled_total_ms(), 2.0 * base.modeled_total_ms());
  EXPECT_EQ(slow.fault_injector().stragglers_injected(),
            static_cast<long long>(slow.log().size()));
}

TEST(Straggler, EveryKRepeatsFromTheTriggerOrdinal) {
  auto dev = make_clean_device();
  dev.fault_injector().arm_chaos(
      ChaosSchedule::parse("straggle@launch=2,x=4,every=3"), 0);
  for (int i = 0; i < 8; ++i) noop_launch(dev);
  // Fires at launches 2, 5, 8.
  EXPECT_EQ(dev.fault_injector().stragglers_injected(), 3);
  EXPECT_EQ(dev.fault_injector().launches_observed(), 8);
}

TEST(Straggler, OneShotWithoutEvery) {
  auto dev = make_clean_device();
  dev.fault_injector().arm_chaos(ChaosSchedule::parse("straggle@launch=2,x=4"),
                                 0);
  for (int i = 0; i < 6; ++i) noop_launch(dev);
  EXPECT_EQ(dev.fault_injector().stragglers_injected(), 1);
}

TEST(Straggler, OverlappingFactorsMultiply) {
  util::Rng rng(37);
  const auto a = sparse::coo_to_csr(mps::testing::random_coo(rng, 80, 80, 500));
  std::vector<double> x(static_cast<std::size_t>(a.num_cols), 1.0);

  auto base = make_clean_device();
  std::vector<double> y(static_cast<std::size_t>(a.num_rows), 0.0);
  core::merge::spmv(base, a, x, y);

  auto slow = make_clean_device();
  slow.fault_injector().arm_chaos(
      ChaosSchedule::parse(
          "straggle@launch=1,x=2,every=1;straggle@launch=1,x=4,every=1"),
      0);
  core::merge::spmv(slow, a, x, y);
  // Both events match every launch: 2 * 4 = 8x, exactly.
  EXPECT_EQ(slow.modeled_total_ms(), 8.0 * base.modeled_total_ms());
}

// ---------------------------------------------------------------------------
// Reserve-side chaos events route onto the existing injector machinery.

TEST(ChaosReserveEvents, OomAndFlipArmTheInjector) {
  const ChaosSchedule sched =
      ChaosSchedule::parse("oom@alloc=2;flip@alloc=1,offset=0,mask=0x01");
  auto dev = make_clean_device();
  dev.fault_injector().arm_chaos(sched, 0);
  EXPECT_TRUE(dev.fault_injector().armed());

  // Allocation 1 succeeds but its window is corrupted; allocation 2 OOMs.
  std::vector<double> window(8, 1.0);
  vgpu::ScopedDeviceAlloc a1(dev.memory(), 64, window.data(), 64);
  EXPECT_EQ(dev.fault_injector().bitflips_injected(), 1);
  EXPECT_NE(window[0], 1.0);  // low byte of the first double XORed
  EXPECT_THROW(vgpu::ScopedDeviceAlloc(dev.memory(), 64),
               vgpu::DeviceOomError);
}

TEST(ChaosReserveEvents, ChaosAllocOrdinalsAreRelativeToArming) {
  // Arming after N allocations schedules the event N+at_alloc absolute —
  // "the 2nd allocation from now", matching how the serving engine arms
  // devices that already carry resident matrices.
  auto dev = make_clean_device();
  vgpu::ScopedDeviceAlloc pre(dev.memory(), 32);  // 1st absolute
  dev.fault_injector().arm_chaos(ChaosSchedule::parse("oom@alloc=2"), 0);
  vgpu::ScopedDeviceAlloc ok(dev.memory(), 32);  // 1st after arming
  EXPECT_THROW(vgpu::ScopedDeviceAlloc(dev.memory(), 32),
               vgpu::DeviceOomError);
}

}  // namespace

#pragma once
// Deterministic fault injection for the device memory model.
//
// A FaultInjector attached to a MemoryModel observes every device
// allocation (reserve) and can inject two classes of fault:
//
// Allocation failures (throw DeviceOomError):
//   * fail-the-Nth-allocation — the Nth reserve() on the model throws,
//     all others succeed.  Sweeping N = 1..total exercises every
//     allocation site of a kernel (the exception-safety sweep in
//     tests/fault_injection_test.cpp);
//   * fail-at-byte-threshold — the first reserve() that pushes the
//     cumulative reserved-byte counter past the threshold throws.
//
// Silent data corruption (bit flips):
//   * flip-at-allocation — when the Nth reserve() registers a live host
//     window for the buffer (ScopedDeviceAlloc's data pointer), one byte
//     of that window is XORed with a mask.  The flip is silent: the
//     allocation succeeds and no error is raised — detection is the job
//     of the integrity layer (src/resilience/integrity.hpp).  A
//     repeat-every-N mode re-fires the flip on every further Nth
//     allocation, modeling transient faults that keep recurring.
//     Reservations that carry no window (pure accounting) are counted as
//     missed flips, never corrupted.
//
// Alloc-failure triggers fire exactly once and then disarm, so a caller
// that catches the error and retries (core::merge::spgemm_row_block's
// step-down to row chunks, the engine's retry policy) runs clean
// afterwards.  Counters are per-injector and deterministic:
// the functional layer performs the same allocations in the same order
// regardless of host thread count.
//
// Environment configuration (read by Device's constructor, util/env):
//   MPS_FAULT_ALLOC_N        — fail the Nth device allocation (1-based)
//   MPS_FAULT_BYTE_LIMIT     — fail the allocation that crosses this many
//                              cumulative reserved bytes
//   MPS_FAULT_CAPACITY       — cap device capacity at this many bytes
//                              (applied to DeviceProperties, not here)
//   MPS_FAULT_BITFLIP_ALLOC  — flip a bit in the Nth allocation's window
//   MPS_FAULT_BITFLIP_OFFSET — byte offset of the flip (mod window size)
//   MPS_FAULT_BITFLIP_MASK   — XOR mask for the byte (decimal or 0x hex;
//                              default 0x01)
//
// The env flip fires once; repeating flips (bitflip_every) come from a
// chaos script's "flip@alloc=N,every=K".
//
// All MPS_FAULT_* values parse strictly (util::env_*_checked): a
// malformed or out-of-range value throws InvalidInputError naming the
// variable rather than silently running fault-free.
//
// Chaos schedules (chaos.hpp) extend the injector with two launch-side
// fault classes, armed per device via arm_chaos():
//   * device loss — once the trigger fires (launch ordinal via
//     on_launch(), or cumulative modeled time), lost() turns true
//     PERMANENTLY; Device::launch and MemoryModel::reserve turn that
//     into DeviceLostError on every subsequent call;
//   * stragglers — on_launch() reports a modeled-latency multiplier for
//     scheduled launch ordinals (optionally repeating every K launches).
// Alloc-failure / bit-flip chaos events reuse the reserve-side machinery
// above.  chaos_armed() is a plain bool so the disarmed launch path adds
// exactly one predictable branch (zero-overhead-when-off contract).

#include <cstddef>
#include <cstdint>
#include <vector>

#include "vgpu/chaos.hpp"

namespace mps::vgpu {

struct FaultInjectorConfig {
  long long fail_alloc_n = 0;   ///< 1-based allocation ordinal; 0 = disabled
  std::size_t byte_limit = 0;   ///< cumulative-bytes threshold; 0 = disabled
  long long bitflip_alloc = 0;  ///< 1-based allocation ordinal; 0 = disabled
  std::size_t bitflip_offset = 0;  ///< byte offset into the window (mod size)
  std::uint8_t bitflip_mask = 0x01;  ///< XOR mask applied to the byte
  long long bitflip_every = 0;  ///< re-fire period after the first flip; 0 = once
};

class FaultInjector {
 public:
  FaultInjector() = default;
  explicit FaultInjector(const FaultInjectorConfig& cfg) : cfg_(cfg) {}

  /// MPS_FAULT_ALLOC_N / MPS_FAULT_BYTE_LIMIT / MPS_FAULT_BITFLIP_*,
  /// zero (disabled) if unset.
  static FaultInjectorConfig config_from_env();

  /// Arm: the `n`th observed reserve() (1-based) fails.
  void fail_at_allocation(long long n) {
    cfg_.fail_alloc_n = n;
    fired_ = false;
  }

  /// Arm: the reserve() that pushes cumulative bytes past `bytes` fails.
  void fail_at_byte_threshold(std::size_t bytes) {
    cfg_.byte_limit = bytes;
    fired_ = false;
  }

  /// Arm: XOR `mask` into byte `offset` (mod window size) of the live
  /// window registered by the `n`th reserve().  `every` > 0 re-fires the
  /// flip on each further `every`th allocation (transient faults).
  void flip_bit_at_allocation(long long n, std::size_t offset,
                              std::uint8_t mask = 0x01, long long every = 0) {
    cfg_.bitflip_alloc = n;
    cfg_.bitflip_offset = offset;
    cfg_.bitflip_mask = mask;
    cfg_.bitflip_every = every;
    bitflip_fired_ = false;
  }

  /// Arm every event in `schedule` that targets device `device_ordinal`
  /// (events with device == -1 match all devices).  Loss and straggler
  /// events feed the launch-side hooks below; alloc-failure and bit-flip
  /// events are translated onto the reserve-side triggers above.  At
  /// most one alloc-failure and one bit-flip event can be pending at a
  /// time (last one wins — same contract as calling the arm methods
  /// directly); losses and stragglers stack freely.
  void arm_chaos(const ChaosSchedule& schedule, int device_ordinal);

  /// Drop all chaos state (loss flag included) and launch counters.
  void disarm_chaos() {
    losses_.clear();
    stragglers_.clear();
    lost_ = false;
    launches_ = 0;
    straggles_injected_ = 0;
    losses_injected_ = 0;
  }

  /// True once a device-loss trigger has fired; permanent until
  /// disarm_chaos().  Checked by MemoryModel::reserve.
  bool lost() const { return lost_; }

  /// Force the loss state directly (tests, manual failover drills).
  void lose_now() { lost_ = true; }

  /// Cheap gate for Device::launch — one branch when no chaos schedule
  /// is armed and the device is healthy.
  bool chaos_armed() const {
    return lost_ || !losses_.empty() || !stragglers_.empty();
  }

  /// Launch-side fault decision, called by Device::launch once per
  /// kernel while chaos_armed().  `modeled_ms_total` is the device's
  /// cumulative modeled milliseconds BEFORE this launch (time-triggered
  /// losses compare against it).  Counts the launch, then reports
  /// whether the device is (now) lost and the straggler latency factor
  /// to apply to this launch (1.0 = none; factors from multiple matching
  /// straggler events multiply).
  struct LaunchFault {
    bool lost = false;
    double factor = 1.0;
  };
  LaunchFault on_launch(double modeled_ms_total);

  /// Disable reserve-side triggers; observation counters keep running.
  /// Chaos launch-side state is separate — see disarm_chaos().
  void disarm() { cfg_ = FaultInjectorConfig{}; }

  /// Zero the observation counters (a fresh sweep iteration).
  void reset_counters() {
    allocations_ = 0;
    bytes_reserved_ = 0;
    faults_injected_ = 0;
    bitflips_injected_ = 0;
    bitflips_missed_ = 0;
    fired_ = false;
    bitflip_fired_ = false;
  }

  bool armed() const {
    const bool alloc_armed =
        !fired_ && (cfg_.fail_alloc_n > 0 || cfg_.byte_limit > 0);
    const bool flip_armed =
        cfg_.bitflip_alloc > 0 && (!bitflip_fired_ || cfg_.bitflip_every > 0);
    return alloc_armed || flip_armed;
  }
  long long allocations_observed() const { return allocations_; }
  std::size_t bytes_observed() const { return bytes_reserved_; }
  long long faults_injected() const { return faults_injected_; }
  long long bitflips_injected() const { return bitflips_injected_; }
  /// Flips that matched their ordinal but found no registered window.
  long long bitflips_missed() const { return bitflips_missed_; }
  long long launches_observed() const { return launches_; }
  long long stragglers_injected() const { return straggles_injected_; }
  long long losses_injected() const { return losses_injected_; }

  /// Called by MemoryModel::reserve for every allocation; returns true
  /// when this allocation must fail.  Alloc failures fire at most once
  /// per arming.  `window`/`window_bytes` describe the live host storage
  /// backing the allocation (nullptr for pure accounting reservations);
  /// a matching armed bit flip corrupts one byte of it in place.
  bool on_reserve(std::size_t bytes, void* window = nullptr,
                  std::size_t window_bytes = 0) {
    ++allocations_;
    bytes_reserved_ += bytes;
    maybe_flip(window, window_bytes);
    if (fired_) return false;
    const bool hit_n = cfg_.fail_alloc_n > 0 && allocations_ == cfg_.fail_alloc_n;
    const bool hit_bytes = cfg_.byte_limit > 0 && bytes_reserved_ > cfg_.byte_limit;
    if (hit_n || hit_bytes) {
      fired_ = true;
      ++faults_injected_;
      return true;
    }
    return false;
  }

 private:
  void maybe_flip(void* window, std::size_t window_bytes) {
    if (cfg_.bitflip_alloc <= 0) return;
    bool due = false;
    if (allocations_ == cfg_.bitflip_alloc) {
      due = !bitflip_fired_;
    } else if (cfg_.bitflip_every > 0 && allocations_ > cfg_.bitflip_alloc) {
      due = (allocations_ - cfg_.bitflip_alloc) % cfg_.bitflip_every == 0;
    }
    if (!due) return;
    bitflip_fired_ = true;
    if (window == nullptr || window_bytes == 0 || cfg_.bitflip_mask == 0) {
      ++bitflips_missed_;
      return;
    }
    auto* bytes = static_cast<std::uint8_t*>(window);
    bytes[cfg_.bitflip_offset % window_bytes] ^= cfg_.bitflip_mask;
    ++bitflips_injected_;
  }

  FaultInjectorConfig cfg_;
  long long allocations_ = 0;
  std::size_t bytes_reserved_ = 0;  ///< cumulative; never decremented
  long long faults_injected_ = 0;
  long long bitflips_injected_ = 0;
  long long bitflips_missed_ = 0;
  bool fired_ = false;
  bool bitflip_fired_ = false;

  // Chaos launch-side state (chaos.hpp events armed for this device).
  std::vector<ChaosEvent> losses_;      ///< pending kDeviceLoss triggers
  std::vector<ChaosEvent> stragglers_;  ///< kStraggler events
  bool lost_ = false;
  long long launches_ = 0;  ///< launches observed while chaos is armed
  long long straggles_injected_ = 0;
  long long losses_injected_ = 0;
};

}  // namespace mps::vgpu

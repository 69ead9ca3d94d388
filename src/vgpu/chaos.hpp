#pragma once
// Scripted chaos schedules for the virtual GPU (docs/robustness.md).
//
// The FaultInjector's original fault classes (allocation failures, bit
// flips) model single-event faults.  Chaos schedules compose whole fault
// *timelines* out of four event kinds, armed per device:
//
//   device loss — once triggered (by launch ordinal or cumulative modeled
//     time), the device is lost PERMANENTLY: every later kernel launch
//     and every later allocation throws DeviceLostError.  Models a GPU
//     falling off the bus; the serving engine answers with worker
//     quarantine + re-provisioning (serve::Engine).
//   straggler — a scheduled launch completes, but its modeled latency is
//     multiplied by a factor (optionally repeating every K launches).
//     Models thermal throttling / a contended link.  Purely a timing
//     fault: results are untouched.
//   alloc failure / bit flip — the injector's existing fault classes,
//     schedulable per device so one script can mix all four kinds.
//
// Everything is deterministic: a schedule is a plain list of events,
// triggers count from the moment the injector is armed, and the seeded
// generator is a pure function of (seed, device count).  Replaying the
// same ops against the same schedule reproduces the same fault timeline
// bit for bit — the property the chaos harness (mps_serve --chaos-*)
// builds its invariants on.
//
// A schedule reaches the serving engine as serve::EngineConfig::chaos;
// mps_serve builds it from --chaos-script (parse) or --chaos-seed
// (seeded).  Parsing is strict — malformed scripts throw a typed
// InvalidInputError naming their source.

#include <cstddef>
#include <cstdint>
#include <string>
#include <vector>

#include "util/error.hpp"

namespace mps::vgpu {

/// Thrown when a kernel launch or device allocation hits a device that
/// chaos injection marked lost.  Permanent for that device — every later
/// launch and reserve throws it too.  Infrastructure-level, unlike
/// DeviceOomError: callers should fail over to another device, not retry
/// in place.
class DeviceLostError : public mps::Error {
 public:
  explicit DeviceLostError(const std::string& what) : mps::Error(what) {}
};

/// One scripted fault.  Launch/alloc ordinals are 1-based and count from
/// the moment the schedule is armed on the injector; modeled-time
/// triggers compare against the device's cumulative modeled milliseconds.
struct ChaosEvent {
  enum class Kind { kDeviceLoss, kStraggler, kAllocFail, kBitFlip };
  Kind kind = Kind::kDeviceLoss;
  int device = -1;              ///< target device ordinal; -1 = every device
  long long at_launch = 0;      ///< launch-ordinal trigger (0 = unused)
  double at_modeled_ms = -1.0;  ///< modeled-time trigger (< 0 = unused)
  long long at_alloc = 0;       ///< allocation ordinal (kAllocFail/kBitFlip)
  double factor = 4.0;          ///< kStraggler: modeled-latency multiplier
  long long every = 0;          ///< kStraggler/kBitFlip repeat period; 0 = once
  std::size_t offset = 0;       ///< kBitFlip: byte offset into the window
  std::uint8_t mask = 0x01;     ///< kBitFlip: XOR mask
};

/// An ordered set of ChaosEvents; armed onto per-device FaultInjectors
/// with FaultInjector::arm_chaos(schedule, device_ordinal).
struct ChaosSchedule {
  std::vector<ChaosEvent> events;

  bool empty() const { return events.empty(); }

  /// Parse the script mini-language: events separated by ';', each
  ///
  ///   lose[:dev=D]@launch=N                       device loss at launch N
  ///   lose[:dev=D]@ms=T                           loss once modeled time >= T
  ///   straggle[:dev=D]@launch=N[,x=F][,every=K]   latency spike (xF)
  ///   oom[:dev=D]@alloc=N                         injected alloc failure
  ///   flip[:dev=D]@alloc=N[,offset=B][,mask=M][,every=K]   silent bit flip
  ///
  /// e.g. "lose:dev=0@launch=40;straggle@launch=8,x=8,every=32".
  /// Malformed input throws InvalidInputError naming `source` (the flag
  /// or field the script came from).
  static ChaosSchedule parse(const std::string& script,
                             const std::string& source = "chaos script");

  /// Deterministic pseudo-random schedule mixing all four event kinds
  /// over `num_devices` devices: one device loss on a random device,
  /// plus a recurring straggler, one alloc failure, and one recurring
  /// bit flip per device.  A pure function of (seed, num_devices).
  static ChaosSchedule seeded(std::uint64_t seed, int num_devices);

  /// Render back into the script mini-language (diagnostics, logs).
  std::string to_script() const;
};

}  // namespace mps::vgpu

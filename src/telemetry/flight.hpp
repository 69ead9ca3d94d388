#pragma once
// mps::telemetry — always-on flight recorder (docs/observability.md).
//
// A bounded per-thread ring of recent events: request settles, failures,
// failovers, device losses, durability activity, and (while the tracer
// is enabled) finished spans.  Unlike the tracer — which is off by
// default and unbounded while on — the flight recorder is always
// recording and never grows: each thread owns a fixed-size ring, so the
// memory footprint is threads x ring_capacity events no matter how long
// the process runs.  When something goes wrong the rings are dumped as a
// self-contained JSON debug bundle: recent events in global order, a
// metrics-registry snapshot, the roofline profiler's aggregates, and
// whatever state providers (the serving engine, the device fleet) have
// registered.
//
// Bundle triggers: serve::Engine dumps on DeviceLostError, terminal
// IntegrityError, and RecoveryError; durability::detail::crash_hit dumps
// before the injected _exit (so every armed crash point leaves a
// bundle, asserted by scripts/crash_matrix.sh); tools/mps_serve dumps on
// demand via --dump-bundle.  File dumps only happen when MPS_FLIGHT_DIR
// names a directory — the in-memory ring is always on, but a library
// must not spray files into the working directory uninvited.
//
// Knobs (strict-parsed; garbage raises InvalidInputError):
//   MPS_FLIGHT_RING — per-thread ring capacity in events (default 256,
//                     clamped to [16, 1048576])
//   MPS_FLIGHT_DIR  — directory for triggered bundle files (default
//                     unset = triggered dumps are skipped)
//
// Cost contract: note() is a clock read plus one slot write under the
// ring's (uncontended) mutex — host-side only, never modeled time.  The
// zero-modeled-overhead benches cover the flight recorder alongside the
// tracer and profiler.

#include <cstdint>
#include <functional>
#include <iosfwd>
#include <memory>
#include <mutex>
#include <string>
#include <vector>

namespace mps::telemetry {

/// One recorded event.  `seq` is a process-global order stamp.
struct FlightEvent {
  std::uint64_t seq = 0;
  double wall_ms = 0.0;  ///< since the recorder's (process-start) epoch
  std::uint32_t tid = 0;
  std::string kind;    ///< "span", "request", "failover", "crash", ...
  std::string name;
  std::string detail;  ///< optional free-form context
};

class FlightRecorder {
 public:
  FlightRecorder();

  /// Append an event to the calling thread's ring (always on).
  void note(const char* kind, std::string name, std::string detail = "");

  /// All retained events, merged across threads in seq order.
  std::vector<FlightEvent> snapshot() const;
  /// Drop every retained event (rings stay registered).
  void clear();

  std::size_t ring_capacity() const { return ring_capacity_; }
  const std::string& dump_dir() const { return dump_dir_; }

  /// A named callback that writes ONE JSON value describing live state
  /// (the serving engine registers its stats + plan cache + explain
  /// data).  Providers must be best-effort and deadlock-free: bundles
  /// are dumped from failure paths that may hold engine locks, so
  /// implementations use try_lock and report what they can.
  using StateProvider = std::function<void(std::ostream&)>;
  /// Returns a registration id for unregister_state_provider.
  int register_state_provider(std::string name, StateProvider provider);
  void unregister_state_provider(int id);

  /// Write the self-contained debug bundle JSON to `out`.
  void write_bundle(std::ostream& out, const std::string& reason) const;

  /// Write the bundle to "<MPS_FLIGHT_DIR>/flight_bundle_<reason>.json"
  /// (reason sanitized).  Returns the path, or "" when MPS_FLIGHT_DIR is
  /// unset (no file written) or the write failed.
  std::string dump_bundle(const std::string& reason) const;

 private:
  struct Ring;
  Ring& thread_ring();

  std::size_t ring_capacity_ = 256;
  std::string dump_dir_;
  mutable std::mutex registry_mutex_;
  std::vector<std::shared_ptr<Ring>> rings_;
  struct NamedProvider {
    int id = 0;
    std::string name;
    StateProvider fn;
  };
  std::vector<NamedProvider> providers_;
  int next_provider_id_ = 1;
};

/// The process-wide flight recorder.  First use reads the MPS_FLIGHT_*
/// knobs (strict).
FlightRecorder& flight();

}  // namespace mps::telemetry

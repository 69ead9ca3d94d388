#pragma once
// Deterministic crash-point injection for the kill-and-recover harness.
//
// The durability hot paths call `maybe_crash(point)` at the moments a real
// crash would be most damaging: halfway through a WAL append (header +
// partial payload already flushed), after a completed append, halfway
// through writing a snapshot temp file, after the snapshot rename, and
// after a registration has been acknowledged to the caller.  When armed
// with `arm_crash` — mps_serve's --crash-point "<point>:<n>" goes through
// `parse_crash_spec`, e.g. "wal-mid:3" → die on the 3rd wal-mid hit — the
// matching hit terminates the process with `_exit(kCrashExitCode)` so no
// destructor, flush, or atexit handler can tidy up after us; recovery must
// cope with exactly what the kernel left on disk.
//
// Unarmed cost is one relaxed atomic load per call site.

#include <atomic>
#include <string>

namespace mps::durability {

/// Exit code used by injected crashes, distinguishable from real failures.
inline constexpr int kCrashExitCode = 43;

enum class CrashPoint {
  kWalMid,        ///< record header + partial payload written and flushed
  kWalPost,       ///< full record written, before the caller sees the ack
  kSnapshotMid,   ///< snapshot temp file partially written
  kSnapshotPost,  ///< snapshot renamed into place, WAL not yet truncated
  kPostAck,       ///< registration durable and acknowledged
  kCount_
};

/// Arm: process dies at the `n`-th (1-based) hit of `point`.  `n <= 0`
/// disarms every point.
void arm_crash(CrashPoint point, long long n);

/// A parsed "<point>:<n>" crash spec.
struct CrashSpec {
  CrashPoint point = CrashPoint::kWalMid;
  long long n = 0;
};

/// Strict parse of "<point>:<n>" with point one of wal-mid, wal-post,
/// snapshot-mid, snapshot-post, post-ack and n a positive integer;
/// anything else raises InvalidInputError naming `source`.
CrashSpec parse_crash_spec(const std::string& spec,
                           const std::string& source = "crash point");

namespace detail {
extern std::atomic<bool> crash_armed;
void crash_hit(CrashPoint point);
}  // namespace detail

/// Call at a crash point; dies via _exit iff that point is armed and due.
inline void maybe_crash(CrashPoint point) {
  if (detail::crash_armed.load(std::memory_order_relaxed)) {
    detail::crash_hit(point);
  }
}

}  // namespace mps::durability

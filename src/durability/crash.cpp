#include "durability/crash.hpp"

#include <unistd.h>

#include <array>
#include <cstdio>
#include <cstdlib>
#include <string>

#include "telemetry/flight.hpp"
#include "util/error.hpp"

namespace mps::durability {

namespace detail {

std::atomic<bool> crash_armed{false};

namespace {
constexpr int kNumPoints = static_cast<int>(CrashPoint::kCount_);
std::array<std::atomic<long long>, kNumPoints> remaining{};  // 0 = disarmed

const char* point_name(CrashPoint p) {
  switch (p) {
    case CrashPoint::kWalMid: return "wal-mid";
    case CrashPoint::kWalPost: return "wal-post";
    case CrashPoint::kSnapshotMid: return "snapshot-mid";
    case CrashPoint::kSnapshotPost: return "snapshot-post";
    case CrashPoint::kPostAck: return "post-ack";
    default: return "?";
  }
}
}  // namespace

void crash_hit(CrashPoint point) {
  auto& counter = remaining[static_cast<int>(point)];
  long long cur = counter.load(std::memory_order_relaxed);
  while (cur > 0) {
    if (counter.compare_exchange_weak(cur, cur - 1, std::memory_order_relaxed)) {
      if (cur == 1) {
        // stderr, not stdout: the harness greps stdout for recovery lines
        // and must not confuse the death notice with engine output.
        std::fprintf(stderr, "durable crash injected at %s\n", point_name(point));
        std::fflush(stderr);
        // Last-gasp debug bundle (no-op unless MPS_FLIGHT_DIR is set).
        // crash_hit runs in ordinary thread context — not a signal
        // handler — so regular file IO is safe before _exit.
        telemetry::flight().dump_bundle(std::string("crash-") +
                                        point_name(point));
        ::_exit(kCrashExitCode);
      }
      return;
    }
  }
}

}  // namespace detail

void arm_crash(CrashPoint point, long long n) {
  if (n <= 0) {
    for (auto& c : detail::remaining) c.store(0, std::memory_order_relaxed);
    detail::crash_armed.store(false, std::memory_order_relaxed);
    return;
  }
  detail::remaining[static_cast<int>(point)].store(n, std::memory_order_relaxed);
  detail::crash_armed.store(true, std::memory_order_relaxed);
}

CrashSpec parse_crash_spec(const std::string& spec, const std::string& source) {
  const auto colon = spec.rfind(':');
  if (colon == std::string::npos || colon == 0 || colon + 1 == spec.size()) {
    throw InvalidInputError(source + ": expected \"<point>:<n>\", got \"" +
                            spec + "\"");
  }
  const std::string name = spec.substr(0, colon);
  int p = 0;
  while (p < detail::kNumPoints &&
         name != detail::point_name(static_cast<CrashPoint>(p))) {
    ++p;
  }
  if (p == detail::kNumPoints) {
    throw InvalidInputError(source + ": unknown crash point \"" + name +
                            "\" (expected wal-mid, wal-post, snapshot-mid, "
                            "snapshot-post, or post-ack)");
  }
  CrashSpec out;
  out.point = static_cast<CrashPoint>(p);
  const std::string count = spec.substr(colon + 1);
  std::size_t used = 0;
  try {
    out.n = std::stoll(count, &used);
  } catch (const std::exception&) {
    throw InvalidInputError(source + ": malformed count \"" + count + "\"");
  }
  if (used != count.size() || out.n < 1) {
    throw InvalidInputError(source + ": count must be a positive integer, got \"" +
                            count + "\"");
  }
  return out;
}

}  // namespace mps::durability

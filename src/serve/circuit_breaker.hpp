#pragma once
// Per-matrix-handle circuit breaker (closed / open / half-open).
//
// A matrix whose executions keep failing — corrupted resident data, a
// pathological pattern that OOMs every attempt — would otherwise burn a
// full retry budget on every request routed at it.  The breaker watches
// consecutive execution failures per MatrixHandle key:
//
//   closed     → normal service; `failure_threshold` consecutive
//                failures trip it open
//   open       → admit() fails fast with CircuitOpenError, no queueing,
//                no device time, until `cooldown_ms` of modeled time has
//                elapsed since it opened
//   half-open  → after cooldown, exactly ONE probe request is admitted;
//                success re-closes the breaker, failure re-opens it and
//                restarts the cooldown
//
// Timeouts and load shedding do NOT count as failures — the breaker
// tracks the health of the matrix, not the health of the queue.  The
// clock is the engine's modeled-time clock, keeping trip/ recovery
// points replay-deterministic.
//
// Defaults: 5 consecutive failures trip the breaker, 250 ms modeled
// cooldown before the probe.

#include <cstdint>
#include <mutex>
#include <string>
#include <unordered_map>

#include "util/error.hpp"

namespace mps::serve {

/// Fail-fast rejection: the target matrix's circuit breaker is open.
class CircuitOpenError : public mps::Error {
 public:
  explicit CircuitOpenError(const std::string& what) : mps::Error(what) {}
};

struct CircuitBreakerConfig {
  int failure_threshold = 5;  ///< consecutive failures to trip; 0 disables
  double cooldown_ms = 250.0; ///< modeled ms open before the half-open probe
};

class CircuitBreaker {
 public:
  enum class State { kClosed, kOpen, kHalfOpen };

  struct Stats {
    long long opened = 0;     ///< closed→open transitions
    long long fail_fast = 0;  ///< admissions rejected while open
    long long probes = 0;     ///< half-open probe admissions
    long long reclosed = 0;   ///< successful probes (open→closed recoveries)
  };

  explicit CircuitBreaker(CircuitBreakerConfig cfg = {}) : cfg_(cfg) {}

  bool enabled() const { return cfg_.failure_threshold > 0; }

  /// Admission gate.  `now_ms` is the engine's modeled clock.  Throws
  /// CircuitOpenError while open; past cooldown, admits one probe and
  /// moves to half-open.
  void admit(std::uint64_t key, double now_ms);

  /// Execution settled successfully (or the probe came back healthy).
  /// Returns true when this success re-closed a tripped breaker.
  bool on_success(std::uint64_t key);

  /// Execution failed after exhausting its retry budget.  Timeouts and
  /// shedding must NOT be reported here.  Returns true when this
  /// failure tripped the breaker open.
  bool on_failure(std::uint64_t key, double now_ms);

  State state(std::uint64_t key) const;
  Stats stats() const {
    std::lock_guard<std::mutex> lock(mutex_);
    return stats_;
  }

 private:
  struct Entry {
    State state = State::kClosed;
    int consecutive_failures = 0;
    double opened_at_ms = 0.0;
  };

  CircuitBreakerConfig cfg_;
  mutable std::mutex mutex_;
  std::unordered_map<std::uint64_t, Entry> entries_;
  Stats stats_;
};

}  // namespace mps::serve

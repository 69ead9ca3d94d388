#pragma once
// Bounded retry budgets with deterministic exponential backoff.
//
// The engine retries transparently on transient execution faults
// (IntegrityError, PlanMismatchError, DeviceOomError).  A RetryPolicy
// bounds how many attempts a request gets and spaces them with
// exponential backoff whose jitter is a pure function of (request salt,
// attempt) — no wall clock, no global RNG — so a replayed trace backs
// off identically.  Backoff is charged into the request's MODELED
// latency, never slept on the host: the virtual GPU's clock is modeled
// time, and sleeping would couple results to host scheduling.
//
// Deadlines still win: the engine re-checks the request's expiry before
// every retry attempt and settles with RequestTimeoutError instead of
// burning budget on a request nobody is waiting for.
//
// Defaults: one retry after the first attempt (max_attempts 2), 0.5 ms
// base backoff doubling up to 8 ms.  Engine construction range-checks
// every field (serve::EngineConfig).

#include <cstdint>

namespace mps::serve {

struct RetryPolicy {
  /// Total attempts per request (first try + retries), >= 1; 1 disables
  /// retry.
  int max_attempts = 2;
  /// Modeled backoff before the first retry, >= 0.
  double backoff_base_ms = 0.5;
  double backoff_multiplier = 2.0;
  /// Cap on the exponential growth, >= 0 (0 = uncapped).
  double backoff_max_ms = 8.0;
  /// Jitter amplitude as a fraction of the computed backoff: the jittered
  /// value lies in [b*(1-f), b*(1+f)).  Deterministic per (salt, retry).
  double jitter_frac = 0.25;

  /// Modeled backoff (ms) charged before retry `retry_index` (1-based:
  /// the retry after the first failed attempt is 1).  `salt` folds in a
  /// stable per-request identifier so concurrent requests don't back off
  /// in lockstep, yet a replay reproduces the same schedule bit for bit.
  double backoff_ms(int retry_index, std::uint64_t salt) const;
};

}  // namespace mps::serve

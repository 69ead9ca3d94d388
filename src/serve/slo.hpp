#pragma once
// mps::serve — per-tenant SLO engine (docs/observability.md).
//
// Each registered matrix handle is a tenant.  The tracker holds one
// latency objective for all tenants ("objective of requests complete
// within latency_ms") and accounts burn rate over two windows — a short
// one that reacts fast and a long one that filters blips — the
// multi-window, multi-burn-rate alerting shape from the SRE workbook.
// A tenant alerts when BOTH windows burn error budget faster than
// `burn_alert` times the sustainable rate.
//
// burn rate = (bad fraction in window) / (1 - objective); 1.0 means the
// tenant is consuming exactly its error budget, 2.0 means the budget
// will be gone in half the window.
//
// The objectives are serve::EngineConfig::slo and the tracker runs when
// EngineConfig::slo_enabled is 1; engine construction range-checks each
// field (objective in (0, 1), long_window >= short_window >= 1).

#include <cstdint>
#include <map>
#include <mutex>
#include <vector>

namespace mps::serve {

struct SloConfig {
  double latency_ms = 50.0;  ///< good/bad latency threshold, >= 0
  double objective = 0.999;  ///< good-fraction objective, in (0, 1)
  int short_window = 256;    ///< short window, requests, [1, 2^20]
  int long_window = 4096;    ///< long window, requests, [short, 2^24]
  /// Alert when both windows exceed this burn rate, >= 0.
  double burn_alert = 2.0;
};

/// Point-in-time SLO state for one tenant (handle).
struct TenantSlo {
  std::uint64_t tenant = 0;
  long long total = 0;        ///< lifetime requests observed
  long long bad = 0;          ///< lifetime SLO violations (slow or failed)
  double burn_short = 0.0;    ///< burn rate over the short window
  double burn_long = 0.0;     ///< burn rate over the long window
  /// Error budget left in the long window: 1.0 = untouched, 0.0 = spent,
  /// negative = overdrawn.
  double budget_remaining = 1.0;
  bool alerting = false;      ///< both windows above burn_alert now
  long long alerts = 0;       ///< transitions into the alerting state
};

/// Thread-safe multi-window burn-rate accountant.  One observe() per
/// settled request; report() snapshots every tenant.
class SloTracker {
 public:
  explicit SloTracker(SloConfig cfg);

  const SloConfig& config() const { return cfg_; }

  /// Account one settled request: bad when it failed or exceeded the
  /// latency threshold.  Returns true when this observation *transitioned*
  /// the tenant into the alerting state (edge, not level — callers log /
  /// dump on the edge without spamming).  `out`, when non-null, receives
  /// the tenant's post-observation snapshot (saves a second lock for
  /// callers exporting gauges per settle).
  bool observe(std::uint64_t tenant, double latency_ms, bool ok,
               TenantSlo* out = nullptr);

  /// Every tenant, keyed order (deterministic output).
  std::vector<TenantSlo> report() const;

  /// One tenant; zero-value TenantSlo (total == 0) for unknown tenants.
  TenantSlo tenant(std::uint64_t t) const;

  /// Tenants currently alerting.
  std::vector<std::uint64_t> alerting() const;

 private:
  struct State {
    std::vector<std::uint8_t> ring;  ///< long_window good(0)/bad(1) marks
    std::size_t next = 0;            ///< ring cursor
    long long count = 0;             ///< samples in ring (<= long_window)
    long long total = 0;
    long long bad_total = 0;
    long long bad_long = 0;   ///< bad marks currently in the ring
    long long bad_short = 0;  ///< bad marks in the trailing short window
    bool alerting = false;
    long long alerts = 0;
  };

  TenantSlo snapshot_locked(std::uint64_t t, const State& s) const;

  SloConfig cfg_;
  mutable std::mutex mutex_;
  std::map<std::uint64_t, State> tenants_;
};

}  // namespace mps::serve

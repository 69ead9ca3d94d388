#include "serve/slo.hpp"

#include <algorithm>

#include "util/common.hpp"
#include "util/error.hpp"

namespace mps::serve {

SloTracker::SloTracker(SloConfig cfg) : cfg_(cfg) {
  MPS_CHECK(cfg_.short_window >= 1);
  MPS_CHECK(cfg_.long_window >= cfg_.short_window);
  MPS_CHECK(cfg_.objective > 0.0 && cfg_.objective < 1.0);
}

bool SloTracker::observe(std::uint64_t tenant, double latency_ms, bool ok,
                         TenantSlo* out) {
  const bool bad = !ok || latency_ms > cfg_.latency_ms;
  const std::size_t lw = static_cast<std::size_t>(cfg_.long_window);
  const std::size_t sw = static_cast<std::size_t>(cfg_.short_window);
  std::lock_guard<std::mutex> lock(mutex_);
  State& s = tenants_[tenant];
  if (s.ring.empty()) s.ring.assign(lw, 0);
  // The short window is the trailing `sw` marks of the long ring:
  // maintain its bad count incrementally by retiring the mark that just
  // left it, then retire the mark leaving the long ring itself.
  if (s.count >= static_cast<long long>(sw)) {
    s.bad_short -= s.ring[(s.next + lw - sw) % lw];
  }
  if (s.count >= static_cast<long long>(lw)) {
    s.bad_long -= s.ring[s.next];
  } else {
    ++s.count;
  }
  s.ring[s.next] = bad ? 1 : 0;
  s.next = (s.next + 1) % lw;
  ++s.total;
  if (bad) {
    ++s.bad_total;
    ++s.bad_long;
    ++s.bad_short;
  }
  // Burn = (bad fraction) / (error budget fraction); both windows must
  // exceed the alert rate — the short window for responsiveness, the
  // long one so a burst that already passed cannot keep a tenant paged.
  const double budget = 1.0 - cfg_.objective;
  const long long n_long = s.count;
  const long long n_short =
      std::min<long long>(s.count, static_cast<long long>(sw));
  const double burn_short =
      n_short > 0
          ? (static_cast<double>(s.bad_short) / static_cast<double>(n_short)) /
                budget
          : 0.0;
  const double burn_long =
      n_long > 0
          ? (static_cast<double>(s.bad_long) / static_cast<double>(n_long)) /
                budget
          : 0.0;
  const bool now_alerting =
      burn_short > cfg_.burn_alert && burn_long > cfg_.burn_alert;
  const bool entered = now_alerting && !s.alerting;
  if (entered) ++s.alerts;
  s.alerting = now_alerting;
  if (out) *out = snapshot_locked(tenant, s);
  return entered;
}

TenantSlo SloTracker::snapshot_locked(std::uint64_t t, const State& s) const {
  TenantSlo out;
  out.tenant = t;
  out.total = s.total;
  out.bad = s.bad_total;
  const double budget = 1.0 - cfg_.objective;
  const long long n_long = s.count;
  const long long n_short =
      std::min<long long>(s.count, static_cast<long long>(cfg_.short_window));
  if (n_short > 0) {
    out.burn_short =
        (static_cast<double>(s.bad_short) / static_cast<double>(n_short)) /
        budget;
  }
  if (n_long > 0) {
    const double bad_frac =
        static_cast<double>(s.bad_long) / static_cast<double>(n_long);
    out.burn_long = bad_frac / budget;
    out.budget_remaining = 1.0 - bad_frac / budget;
  }
  out.alerting = s.alerting;
  out.alerts = s.alerts;
  return out;
}

std::vector<TenantSlo> SloTracker::report() const {
  std::lock_guard<std::mutex> lock(mutex_);
  std::vector<TenantSlo> out;
  out.reserve(tenants_.size());
  for (const auto& [t, s] : tenants_) out.push_back(snapshot_locked(t, s));
  return out;
}

TenantSlo SloTracker::tenant(std::uint64_t t) const {
  std::lock_guard<std::mutex> lock(mutex_);
  const auto it = tenants_.find(t);
  if (it == tenants_.end()) {
    TenantSlo out;
    out.tenant = t;
    return out;
  }
  return snapshot_locked(t, it->second);
}

std::vector<std::uint64_t> SloTracker::alerting() const {
  std::lock_guard<std::mutex> lock(mutex_);
  std::vector<std::uint64_t> out;
  for (const auto& [t, s] : tenants_) {
    if (s.alerting) out.push_back(t);
  }
  return out;
}

}  // namespace mps::serve

#include "serve/plan_cache.hpp"

#include "telemetry/metrics.hpp"
#include "telemetry/span.hpp"

namespace mps::serve {

namespace {

/// Registry handles cached once; bumps after that are lock-free.
struct CacheMetrics {
  telemetry::Counter& hits =
      telemetry::metrics().counter("serve.plan_cache.hits");
  telemetry::Counter& misses =
      telemetry::metrics().counter("serve.plan_cache.misses");
  telemetry::Counter& evictions =
      telemetry::metrics().counter("serve.plan_cache.evictions");
};

CacheMetrics& cache_metrics() {
  static CacheMetrics m;
  return m;
}

}  // namespace

std::uint64_t shard_plan_key(std::uint64_t handle, std::size_t shard,
                             bool replica) {
  // splitmix64 finalizer over the composite — full avalanche, so shard 0
  // of handle h never collides with the unsharded key h itself.
  std::uint64_t z = handle + 0x9e3779b97f4a7c15ull * (2 * shard + (replica ? 1 : 0) + 1);
  z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ull;
  z = (z ^ (z >> 27)) * 0x94d049bb133111ebull;
  return z ^ (z >> 31);
}

std::shared_ptr<const autotune::TunedPlan> PlanCache::get_or_build(
    vgpu::Device& device, const sparse::CsrD& a, std::uint64_t key,
    bool* was_hit) {
  std::lock_guard<std::mutex> lock(mutex_);
  if (was_hit) *was_hit = false;
  if (auto it = index_.find(key); it != index_.end()) {
    ++hits_;
    cache_metrics().hits.add();
    if (was_hit) *was_hit = true;
    lru_.splice(lru_.begin(), lru_, it->second);  // touch
    return it->second->plan;
  }
  ++misses_;
  cache_metrics().misses.add();
  telemetry::ScopedSpan build_span("serve.plan_build");
  auto plan =
      std::make_shared<const autotune::TunedPlan>(device, a, candidates_);
  // Plan-decision explainability: with the tracer on, the features the
  // autotuner extracted and every candidate's modeled time land in the
  // trace as children of the build span — the same record explain()
  // serves queryably from the cached entry.
  if (telemetry::tracer().enabled() && !plan->trials().empty()) {
    auto& tr = telemetry::tracer();
    const telemetry::SpanContext parent = build_span.context();
    const double now = tr.now_us();
    const auto instant = [&](std::string name, std::string status) {
      telemetry::SpanRecord rec;
      rec.trace_id = parent.trace_id;
      rec.parent_id = parent.span_id;
      rec.span_id = tr.next_span_id();
      rec.name = std::move(name);
      rec.track = "autotune";
      rec.status = std::move(status);
      rec.start_us = now;
      rec.dur_us = 0.0;
      rec.tid = telemetry::current_tid();
      tr.record(std::move(rec));
    };
    const autotune::Features& f = plan->features();
    instant("autotune.features",
            "rows=" + std::to_string(f.rows) + " nnz=" + std::to_string(f.nnz) +
                " avg_row=" + std::to_string(f.avg_row) +
                " cv_row=" + std::to_string(f.cv_row) +
                " empty_frac=" + std::to_string(f.empty_frac));
    for (const autotune::Trial& t : plan->trials()) {
      instant(std::string("autotune.trial:") + t.name,
              std::to_string(t.modeled_ms) + " ms" +
                  (std::string(t.name) == plan->choice().name ? " (chosen)"
                                                              : ""));
    }
  }
  build_span.end(plan->choice().name);
  const std::size_t bytes = plan->bytes();
  if (bytes > capacity_bytes_) {
    ++oversize_;  // serve it, but never resident
    return plan;
  }
  evict_locked(bytes);
  lru_.push_front(Entry{key, plan, bytes});
  index_[key] = lru_.begin();
  bytes_in_use_ += bytes;
  return plan;
}

std::shared_ptr<const autotune::TunedPlan> PlanCache::peek(
    std::uint64_t key) const {
  std::lock_guard<std::mutex> lock(mutex_);
  const auto it = index_.find(key);
  return it == index_.end() ? nullptr : it->second->plan;
}

void PlanCache::invalidate(std::uint64_t key, bool value_bound_only) {
  std::lock_guard<std::mutex> lock(mutex_);
  if (auto it = index_.find(key);
      it != index_.end() &&
      (!value_bound_only || it->second->plan->binds_values())) {
    bytes_in_use_ -= it->second->bytes;
    lru_.erase(it->second);
    index_.erase(it);
  }
}

void PlanCache::clear() {
  std::lock_guard<std::mutex> lock(mutex_);
  lru_.clear();
  index_.clear();
  bytes_in_use_ = 0;
}

void PlanCache::evict_locked(std::size_t incoming) {
  while (bytes_in_use_ + incoming > capacity_bytes_ && !lru_.empty()) {
    const Entry& victim = lru_.back();
    bytes_in_use_ -= victim.bytes;
    index_.erase(victim.key);
    lru_.pop_back();
    ++evictions_;
    cache_metrics().evictions.add();
  }
}

void PlanCache::set_capacity(std::size_t capacity_bytes) {
  std::lock_guard<std::mutex> lock(mutex_);
  capacity_bytes_ = capacity_bytes;
  evict_locked(0);
}

std::vector<std::uint64_t> PlanCache::warm_entries() const {
  std::lock_guard<std::mutex> lock(mutex_);
  std::vector<std::uint64_t> out;
  out.reserve(lru_.size());
  for (const Entry& e : lru_) out.push_back(e.key);
  return out;
}

PlanCache::Stats PlanCache::stats() const {
  std::lock_guard<std::mutex> lock(mutex_);
  Stats s;
  s.hits = hits_;
  s.misses = misses_;
  s.evictions = evictions_;
  s.oversize = oversize_;
  s.entries = index_.size();
  s.bytes_in_use = bytes_in_use_;
  s.capacity_bytes = capacity_bytes_;
  return s;
}

}  // namespace mps::serve

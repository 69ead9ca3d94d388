#pragma once
// Capacity-bounded LRU cache of SpMV plans keyed by matrix pattern
// fingerprint (docs/serving.md).
//
// The serving engine amortizes merge-path partitioning across
// *independent* requests the same way SpmvPlan amortizes it across the
// iterations of one solver (the MERBIT setting, PAPERS.md): the first
// SpMV against a registered matrix builds the plan, every later request
// — from any client, on any worker — reuses it.  Every entry is an
// autotune::TunedPlan built under the cache's candidate cap (1 = the
// merge default, no trial; docs/autotuning.md) and charges its real heap
// footprint (TunedPlan::bytes()) against a byte capacity; insertion
// evicts least-recently-used entries until the new plan fits.
//
// Concurrency: lookups hand out shared_ptr<const TunedPlan>, so an
// evicted plan stays alive until the last in-flight execute drops it
// (executes only read plan state — concurrent executes of one plan are
// safe, tests/serve_test.cpp proves bitwise identity under N threads).
// get_or_build serializes on the cache mutex, which doubles as
// single-flight control: concurrent misses on one key build the plan
// once, not N times.

#include <cstdint>
#include <list>
#include <memory>
#include <mutex>
#include <unordered_map>
#include <vector>

#include "autotune/autotune.hpp"
#include "sparse/csr.hpp"
#include "vgpu/device.hpp"

namespace mps::serve {

/// Cache key for one shard of a sharded matrix (docs/sharding.md): the
/// handle mixed with the shard index and the placement (primary vs hot
/// replica) through a splitmix64-style finalizer.  Distinct from every
/// unsharded handle key with overwhelming probability, so per-shard
/// plans share the engine's one LRU budget with whole-matrix entries.
std::uint64_t shard_plan_key(std::uint64_t handle, std::size_t shard,
                             bool replica);

class PlanCache {
 public:
  /// `capacity_bytes` bounds the summed TunedPlan::bytes() of resident
  /// entries.  A single plan larger than the whole capacity is built but
  /// not cached (counted as an oversize miss).  `candidates` caps every
  /// build's candidate list (1 = static merge default, no trial).
  explicit PlanCache(std::size_t capacity_bytes,
                     int candidates = autotune::kAllCandidates)
      : capacity_bytes_(capacity_bytes), candidates_(candidates) {}

  /// The plan for `key`, building it from `a` on `device` on a miss.
  /// The key must never alias two different row structures; finer keys
  /// are sound (plan guards check row structure).  The engine uses its
  /// full-structure MatrixHandle fingerprint, which refines the
  /// row-structure partition.  Trial cost is paid at build time only —
  /// the cached entry's executes report steady-state cost.  `was_hit`
  /// (optional) reports whether this call was served from cache.
  std::shared_ptr<const autotune::TunedPlan> get_or_build(
      vgpu::Device& device, const sparse::CsrD& a, std::uint64_t key,
      bool* was_hit = nullptr);

  /// Read-only probe for explainability (Engine::explain): the resident
  /// entry for `key`, or null.  Never builds, never touches LRU order,
  /// never bumps hit/miss counters — explain() must not perturb what it
  /// observes.
  std::shared_ptr<const autotune::TunedPlan> peek(std::uint64_t key) const;

  /// Drop the entry for `key` if resident (integrity failure, stale
  /// pattern).  With `value_bound_only`, drop it only when its plan
  /// binds_values(): the one rule a same-pattern re-registration applies,
  /// since every other plan depends on the pattern alone.
  void invalidate(std::uint64_t key, bool value_bound_only = false);

  /// Drop every entry (shutdown path; in-flight executes keep their
  /// shared_ptrs alive until they finish).
  void clear();

  /// Retarget the byte budget, evicting least-recently-used entries
  /// until resident bytes fit.  The engine's degraded mode shrinks the
  /// budget under memory pressure and restores it on recovery.
  void set_capacity(std::size_t capacity_bytes);

  /// Keys of every resident entry in LRU order, most recent first.  The
  /// durability snapshot persists these so warm recovery (durable_warm) can
  /// rebuild the warm set eagerly (plans are deterministic rebuilds; only
  /// *which* entries were warm is worth writing to disk).
  std::vector<std::uint64_t> warm_entries() const;

  struct Stats {
    long long hits = 0;
    long long misses = 0;      ///< builds, including oversize ones
    long long evictions = 0;   ///< entries displaced by capacity pressure
    long long oversize = 0;    ///< plans too large to cache at all
    std::size_t entries = 0;
    std::size_t bytes_in_use = 0;
    std::size_t capacity_bytes = 0;
  };
  Stats stats() const;

 private:
  struct Entry {
    std::uint64_t key = 0;
    std::shared_ptr<const autotune::TunedPlan> plan;
    std::size_t bytes = 0;
  };

  /// Evict least-recently-used entries until `incoming` more bytes fit.
  void evict_locked(std::size_t incoming);

  // Doubly-linked LRU list, most-recent at the front; the map points at
  // list nodes.  All state guarded by mutex_.
  mutable std::mutex mutex_;
  std::size_t capacity_bytes_;
  const int candidates_;
  std::size_t bytes_in_use_ = 0;
  std::list<Entry> lru_;
  std::unordered_map<std::uint64_t, std::list<Entry>::iterator> index_;
  long long hits_ = 0;
  long long misses_ = 0;
  long long evictions_ = 0;
  long long oversize_ = 0;
};

}  // namespace mps::serve

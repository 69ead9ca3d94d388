#include "serve/engine.hpp"

#include <algorithm>
#include <climits>
#include <functional>
#include <numeric>
#include <utility>

#include "core/spadd.hpp"
#include "core/spgemm.hpp"
#include "core/spmm.hpp"
#include "shard/exec.hpp"
#include "telemetry/flight.hpp"
#include "telemetry/metrics.hpp"
#include "telemetry/profile.hpp"
#include "vgpu/trace.hpp"

namespace mps::serve {

using clock = std::chrono::steady_clock;

MatrixHandle pattern_fingerprint(const sparse::CsrD& a) {
  std::uint64_t h = 1469598103934665603ull;
  const auto mix = [&h](std::uint64_t v) {
    h ^= v;
    h *= 1099511628211ull;
  };
  mix(static_cast<std::uint64_t>(static_cast<std::uint32_t>(a.num_rows)));
  mix(static_cast<std::uint64_t>(static_cast<std::uint32_t>(a.num_cols)));
  mix(static_cast<std::uint64_t>(static_cast<std::uint32_t>(a.nnz())));
  for (const index_t v : a.row_offsets) {
    mix(static_cast<std::uint64_t>(static_cast<std::uint32_t>(v)));
  }
  // Column indices are part of the key: two matrices with identical
  // per-row counts but different columns (any two banded matrices, say)
  // must get distinct handles, or one tenant's registration would
  // silently replace the other's and later submits would compute
  // against the wrong matrix.
  for (const index_t v : a.col) {
    mix(static_cast<std::uint64_t>(static_cast<std::uint32_t>(v)));
  }
  return h;
}

namespace {

/// Share of plan_cache_bytes the plan cache keeps while degraded.
constexpr double kDegradeCacheFrac = 0.25;

/// Dispatch builds a plan only for shards that own rows and nonzeros;
/// the rest run one-shot (shard::spmv_tuned's null-entry fallback).
bool needs_plan(const shard::Shard& sh) {
  return sh.row_end > sh.row_begin && sh.local.nnz() > 0;
}

[[noreturn]] void bad_field(const char* field, const std::string& why) {
  throw InvalidInputError(std::string("EngineConfig::") + field + ": " + why);
}

void check_range(const char* field, long long v, long long lo, long long hi) {
  if (v < lo || v > hi) {
    bad_field(field, "must be in [" + std::to_string(lo) + ", " +
                         std::to_string(hi) + "], got " + std::to_string(v));
  }
}

/// `!(v >= lo)` so NaN fails too.
void check_min(const char* field, double v, double lo) {
  if (!(v >= lo)) {
    bad_field(field, "must be >= " + std::to_string(lo) + ", got " +
                         std::to_string(v));
  }
}

EngineConfig resolve_config(EngineConfig cfg) {
  // Every field is range-checked: mps_serve feeds them from flags, and a
  // negative count or an unknown policy name is a deploy bug that
  // silently clamping to a default would hide until it pages someone.
  check_range("threads", cfg.threads, 1, 1024);
  check_range("queue_capacity", static_cast<long long>(cfg.queue_capacity), 1,
              1ll << 30);
  check_range("batch_window", cfg.batch_window, 1, 4096);
  if (cfg.plan_cache_bytes == 0) bad_field("plan_cache_bytes", "must be >= 1");
  if (cfg.autotune < 0) {
    cfg.autotune = autotune::enabled() ? 1 : 0;
  }
  check_range("retry.max_attempts", cfg.retry.max_attempts, 1, INT_MAX);
  check_min("retry.backoff_base_ms", cfg.retry.backoff_base_ms, 0.0);
  check_min("retry.backoff_max_ms", cfg.retry.backoff_max_ms, 0.0);
  check_range("breaker.failure_threshold", cfg.breaker.failure_threshold, 0,
              1 << 30);
  check_min("breaker.cooldown_ms", cfg.breaker.cooldown_ms, 0.0);
  check_min("shed_watermark", cfg.shed_watermark, 0.0);
  check_range("max_failovers", cfg.max_failovers, 0, 1 << 20);
  check_range("degrade_recovery", cfg.degrade_recovery, 0, 1 << 30);
  if (cfg.durable_enabled > 0 && cfg.durable_dir.empty()) {
    bad_field("durable_dir", "durability enabled but no directory");
  }
  check_range("durable_snapshot_every", cfg.durable_snapshot_every, 0,
              1ll << 30);
  check_range("durable_warm", cfg.durable_warm, 0, 1);
  check_range("durable_fsync", cfg.durable_fsync, 0, 1);
  check_range("devices", cfg.devices, 0, 256);
  check_range("shard_max", cfg.shard_max, 1, 256);
  check_range("shard_min_nnz", cfg.shard_min_nnz, 1, 1ll << 40);
  if (cfg.shard_placement != "weighted" && cfg.shard_placement != "uniform") {
    bad_field("shard_placement",
              "expected 'weighted' or 'uniform', got '" + cfg.shard_placement +
                  "'");
  }
  if (!(cfg.shard_replicate_hot >= 0.0 && cfg.shard_replicate_hot <= 1.0)) {
    bad_field("shard_replicate_hot",
              "traffic share must be in [0, 1], got " +
                  std::to_string(cfg.shard_replicate_hot));
  }
  check_range("shard_2d_nnz", cfg.shard_2d_nnz, 0, 1ll << 40);
  check_range("slo_enabled", cfg.slo_enabled, 0, 1);
  check_min("slo.latency_ms", cfg.slo.latency_ms, 0.0);
  if (!(cfg.slo.objective > 0.0 && cfg.slo.objective < 1.0)) {
    bad_field("slo.objective",
              "must be in (0, 1), got " + std::to_string(cfg.slo.objective));
  }
  check_range("slo.short_window", cfg.slo.short_window, 1, 1 << 20);
  check_range("slo.long_window", cfg.slo.long_window, cfg.slo.short_window,
              1 << 24);
  check_min("slo.burn_alert", cfg.slo.burn_alert, 0.0);
  return cfg;
}

/// Registry handles resolved once; every bump after that is a relaxed
/// atomic (docs/observability.md).  These mirror the per-engine counters
/// under stats_mutex_ — the registry aggregates across engines and is
/// what --metrics-out / MPS_METRICS_DUMP_MS export.
struct ServeMetrics {
  telemetry::Counter& accepted =
      telemetry::metrics().counter("serve.requests.accepted");
  telemetry::Counter& rejected_full =
      telemetry::metrics().counter("serve.requests.rejected_full");
  telemetry::Counter& timed_out =
      telemetry::metrics().counter("serve.requests.timed_out");
  telemetry::Counter& rejected_shutdown =
      telemetry::metrics().counter("serve.requests.rejected_shutdown");
  telemetry::Counter& completed =
      telemetry::metrics().counter("serve.requests.completed");
  telemetry::Counter& failed =
      telemetry::metrics().counter("serve.requests.failed");
  telemetry::Counter& retries =
      telemetry::metrics().counter("serve.requests.retries");
  telemetry::Counter& batches =
      telemetry::metrics().counter("serve.batches.coalesced");
  telemetry::Counter& shed =
      telemetry::metrics().counter("serve.requests.shed");
  telemetry::Counter& failovers =
      telemetry::metrics().counter("serve.failovers");
  telemetry::Counter& breaker_opened =
      telemetry::metrics().counter("serve.breaker.opened");
  telemetry::Counter& breaker_fail_fast =
      telemetry::metrics().counter("serve.breaker.fail_fast");
  telemetry::Counter& degraded_entered =
      telemetry::metrics().counter("serve.degraded.entered");
  telemetry::Gauge& degraded = telemetry::metrics().gauge("serve.degraded");
  telemetry::Counter& slo_alerts =
      telemetry::metrics().counter("serve.slo.alerts");
  telemetry::Gauge& peak_queue =
      telemetry::metrics().gauge("serve.queue.peak_depth");
  telemetry::Histogram& latency_ms = telemetry::metrics().histogram(
      "serve.latency_ms", telemetry::default_latency_bounds_ms());
};

ServeMetrics& serve_metrics() {
  static ServeMetrics m;
  return m;
}

/// Per-fleet-slot registry handles ("serve.device.N.*") — exported like
/// every other registry metric through --metrics-out / Prometheus.
telemetry::Gauge& device_gauge(std::size_t ordinal, const char* what) {
  return telemetry::metrics().gauge("serve.device." + std::to_string(ordinal) +
                                    "." + what);
}

telemetry::Counter& device_counter(std::size_t ordinal, const char* what) {
  return telemetry::metrics().counter("serve.device." +
                                      std::to_string(ordinal) + "." + what);
}

/// Per-tenant SLO registry handles ("serve.slo.tenant.<handle>.*") —
/// exported like every other registry metric (Prometheus / --metrics-out).
telemetry::Gauge& slo_gauge(std::uint64_t tenant, const char* what) {
  return telemetry::metrics().gauge("serve.slo.tenant." +
                                    std::to_string(tenant) + "." + what);
}

}  // namespace

// ---------------------------------------------------------------------------
// Request / batch plumbing

struct Engine::Request {
  enum class Kind { kSpmv, kSpadd, kSpgemm };
  Kind kind = Kind::kSpmv;
  MatrixHandle handle_a = 0;
  std::shared_ptr<const sparse::CsrD> a;
  std::shared_ptr<const sparse::CsrD> b;  // SpAdd/SpGEMM only
  std::vector<double> x;                  // SpMV only
  std::promise<SpmvResult> spmv_promise;
  std::promise<MatrixResult> matrix_promise;
  clock::time_point submitted;
  std::optional<clock::time_point> expires;  ///< queue-wait deadline
  /// Stable jitter salt for RetryPolicy::backoff_ms: handle mixed with
  /// the admission ordinal, so concurrent requests don't back off in
  /// lockstep yet a replayed trace reproduces the same schedule.
  std::uint64_t salt = 0;
  // Telemetry: a fresh trace opened at admission (zero while the tracer
  // is disabled).  The request span is recorded manually at settle time
  // because it crosses threads: admitted on the client thread, settled
  // on a worker.
  telemetry::SpanContext span_ctx;
  double span_start_us = -1.0;
  std::uint32_t span_tid = 0;

  bool expired(clock::time_point now) const { return expires && now >= *expires; }

  void open_span() {
    auto& tr = telemetry::tracer();
    if (!tr.enabled()) return;
    span_ctx = telemetry::SpanContext{tr.next_trace_id(), tr.next_span_id()};
    span_start_us = tr.now_us();
    span_tid = telemetry::current_tid();
  }

  /// Record the request span with the given outcome; idempotent (the
  /// first caller wins, so a specific "timeout"/"shutdown" status set
  /// before fail() is not overwritten by fail()'s generic "error").
  void finish_span(const char* status) {
    if (!span_ctx.active()) return;
    auto& tr = telemetry::tracer();
    telemetry::SpanRecord rec;
    rec.trace_id = span_ctx.trace_id;
    rec.span_id = span_ctx.span_id;
    rec.name = "serve.request";
    rec.track = "serve";
    rec.status = status;
    rec.start_us = span_start_us;
    rec.dur_us = tr.now_us() - span_start_us;
    rec.tid = span_tid;
    tr.record(std::move(rec));
    span_ctx = telemetry::SpanContext{};
  }

  void fail(std::exception_ptr e) {
    finish_span("error");
    // A request whose promise is already settled (e.g. a failure after a
    // partial batch scatter) must not re-throw out of the worker.
    try {
      if (kind == Kind::kSpmv) {
        spmv_promise.set_exception(std::move(e));
      } else {
        matrix_promise.set_exception(std::move(e));
      }
    } catch (const std::future_error&) {
    }
  }
};

/// One dispatch unit: either N coalesced SpMV requests against the same
/// matrix, or a single SpAdd/SpGEMM request.
struct Engine::Batch {
  std::vector<std::unique_ptr<Request>> reqs;
};

// ---------------------------------------------------------------------------
// Lifecycle

Engine::Engine(EngineConfig cfg)
    : cfg_(resolve_config(cfg)),
      num_workers_(cfg_.threads),
      // Legacy mode (devices == 0) builds one titan slot per worker —
      // the exact pre-shard fleet.  Sharded mode sizes the fleet from
      // `devices` and shapes it from `device_spec`.
      fleet_(vgpu::parse_device_spec(
          cfg_.device_spec,
          cfg_.devices > 0 ? cfg_.devices : static_cast<int>(cfg_.threads),
          "EngineConfig::device_spec")),
      // Autotune off is the one-candidate tune: merge default, no trial.
      plan_cache_(cfg_.plan_cache_bytes,
                  cfg_.autotune > 0 ? autotune::kAllCandidates : 1),
      breaker_(cfg_.breaker),
      paused_(cfg_.start_paused),
      batch_histogram_(static_cast<std::size_t>(cfg_.batch_window) + 1, 0),
      // ThreadPool counts the constructing thread as a participant; the
      // engine needs cfg_.threads *dedicated* workers for posted tasks.
      pool_(num_workers_ + 1) {
  if (cfg_.shed_watermark > 0.0) {
    shed_threshold_ = std::max<std::size_t>(
        1, static_cast<std::size_t>(cfg_.shed_watermark *
                                    static_cast<double>(cfg_.queue_capacity)));
  }
  slots_.resize(fleet_.size());
  if (cfg_.chaos_enabled > 0) {
    for (std::size_t i = 0; i < fleet_.size(); ++i) {
      fleet_.device(i).fault_injector().arm_chaos(cfg_.chaos,
                                                  static_cast<int>(i));
    }
  }
  if (cfg_.slo_enabled > 0) {
    slo_ = std::make_unique<SloTracker>(cfg_.slo);
  }
  // Recovery runs before the dispatcher exists: the registry fills (and
  // warm plans rebuild) while construction is still single-threaded, so
  // the first request after a restart sees the full pre-crash state.
  if (cfg_.durable_enabled > 0) {
    try {
      init_durability();
    } catch (const RecoveryError& e) {
      // Damaged durable state is exactly when an operator needs the
      // bundle: recent events plus whatever state assembled before the
      // failure (no-op unless MPS_FLIGHT_DIR is set).
      telemetry::flight().note("fault", "recovery", e.what());
      telemetry::flight().dump_bundle("recovery");
      throw;
    }
  }
  flight_state_id_ = telemetry::flight().register_state_provider(
      "serve.engine", [this](std::ostream& out) { write_bundle_state(out); });
  dispatcher_ = std::thread([this] { dispatcher_loop(); });
}

std::unique_ptr<Engine> Engine::recover(const std::string& dir,
                                        EngineConfig cfg) {
  cfg.durable_dir = dir;
  cfg.durable_enabled = 1;
  return std::make_unique<Engine>(std::move(cfg));
}

void Engine::init_durability() {
  auto recovered = durability::recover_dir(cfg_.durable_dir);
  for (auto& m : recovered.matrices) {
    // The handle is the full-structure fingerprint; a recovered matrix
    // that no longer hashes to its recorded handle means the bytes on
    // disk drifted from what was acknowledged — refuse to serve it.
    if (pattern_fingerprint(*m.matrix) != m.handle) {
      throw RecoveryError(
          "serve: recovered matrix does not fingerprint to its recorded "
          "handle " +
          std::to_string(m.handle));
    }
    registry_[m.handle] = m.matrix;
    versions_[m.handle] = m.version;
  }
  recovery_info_ = recovered.info;
  if (cfg_.devices > 0) {
    // Shard layouts are a deterministic function of (matrix, fleet,
    // knobs): recovery re-derives them rather than trusting bytes on
    // disk.  When the snapshot's fleet shape matches the current one,
    // the recorded primary layouts double as an integrity cross-check.
    for (const auto& entry : registry_) build_sharding(entry.first, *entry.second);
    if (recovered.fleet_devices == static_cast<std::uint32_t>(fleet_.size())) {
      std::lock_guard<std::mutex> slock(shard_mutex_);
      for (const auto& rec : recovered.shard_layouts) {
        if (rec.replica) continue;  // traffic-derived; rebuilt lazily
        const auto mismatch = [&rec](const std::string& why) {
          throw RecoveryError("serve: recovered shard layout for handle " +
                              std::to_string(rec.handle) +
                              " does not match the deterministic re-shard "
                              "(" + why + ")");
        };
        const auto it = shardings_.find(rec.handle);
        if (it == shardings_.end() || !it->second.primary) {
          mismatch("matrix no longer shards");
        }
        const auto& shards = it->second.primary->shards();
        if (shards.size() != rec.blocks.size()) mismatch("shard count");
        for (std::size_t k = 0; k < shards.size(); ++k) {
          if (shards[k].row_begin != rec.blocks[k].row_begin ||
              shards[k].row_end != rec.blocks[k].row_end ||
              shards[k].device != rec.blocks[k].device) {
            mismatch("block " + std::to_string(k));
          }
        }
      }
    }
  }
  if (cfg_.durable_warm > 0 && fleet_.size() > 0) {
    // Eager warm-up: rebuild the snapshot's warm plan set (a sharded
    // handle's primary shard plans on their own slots, others on slot 0)
    // so the first post-restart request pays no partition (or autotune
    // trial) cost.  Plans are deterministic rebuilds — results are
    // bitwise-identical either way; only the first touch's cost moves.
    std::vector<vgpu::Device*> devices(fleet_.size());
    for (std::size_t i = 0; i < devices.size(); ++i) {
      devices[i] = &fleet_.device(i);
    }
    for (const auto& w : recovered.warm) {
      auto it = registry_.find(w.handle);
      if (it == registry_.end()) continue;
      std::shared_ptr<const shard::ShardedMatrix> sm;
      {
        std::lock_guard<std::mutex> slock(shard_mutex_);
        if (auto sit = shardings_.find(w.handle); sit != shardings_.end()) {
          sm = sit->second.primary;
        }
      }
      if (sm) {
        shard_plans(w.handle, *sm, devices, /*replica=*/false, nullptr);
      } else {
        plan_cache_.get_or_build(*devices.front(), *it->second, w.handle);
      }
    }
  }
  store_ = std::make_unique<durability::DurableStore>(
      durability::DurableConfig{cfg_.durable_dir, cfg_.durable_snapshot_every,
                                cfg_.durable_fsync > 0},
      recovered, [this] { return capture_snapshot(); });
}

durability::SnapshotData Engine::capture_snapshot() const {
  durability::SnapshotData data;
  std::lock_guard<std::mutex> lock(registry_mutex_);
  data.matrices.reserve(registry_.size());
  for (const auto& [h, m] : registry_) {
    durability::MatrixRecord rec;
    rec.handle = h;
    const auto vit = versions_.find(h);
    rec.version = vit == versions_.end() ? 1 : vit->second;
    rec.matrix = m;
    data.matrices.push_back(std::move(rec));
  }
  // Appends run under registry_mutex_ too (register_matrix), so reading
  // last_seq here gives a capture that covers exactly seq <= last_seq.
  data.last_seq = store_->last_seq();
  // The snapshot keeps its per-entry tuned byte; recovery ignores it.
  const bool tuned = cfg_.autotune > 0;
  for (const std::uint64_t key : plan_cache_.warm_entries()) {
    // Warm metadata only for handles that are still registered: a plan
    // can outlive its registration in the LRU.
    if (registry_.count(key) != 0) data.warm.push_back({key, tuned});
  }
  // Shard placements (inner lock: the order everywhere is registry
  // before shard).  fleet_devices == 0 marks a legacy-mode snapshot.
  data.fleet_devices =
      cfg_.devices > 0 ? static_cast<std::uint32_t>(fleet_.size()) : 0;
  {
    std::lock_guard<std::mutex> slock(shard_mutex_);
    for (const auto& entry : shardings_) {
      if (registry_.count(entry.first) == 0) continue;
      const auto record = [&](const shard::ShardedMatrix& sm, bool replica) {
        durability::ShardLayoutRecord rec;
        rec.handle = entry.first;
        rec.replica = replica;
        rec.blocks.reserve(sm.shards().size());
        for (const auto& sh : sm.shards()) {
          rec.blocks.push_back({static_cast<std::int32_t>(sh.row_begin),
                                static_cast<std::int32_t>(sh.row_end),
                                static_cast<std::int32_t>(sh.device)});
        }
        data.shard_layouts.push_back(std::move(rec));
      };
      if (const auto& primary = entry.second.primary) {
        record(*primary, false);
        // Warm when every primary shard plan dispatch reads is resident.
        bool warm_shards = true;
        for (std::size_t i = 0; i < primary->shards().size(); ++i) {
          warm_shards = warm_shards && (!needs_plan(primary->shards()[i]) ||
                                        plan_cache_.peek(shard_plan_key(
                                            entry.first, i, false)));
        }
        if (warm_shards) data.warm.push_back({entry.first, tuned});
      }
      if (entry.second.replica) record(*entry.second.replica, true);
    }
  }
  return data;
}

void Engine::snapshot_now() {
  if (store_) store_->snapshot_now();
}

Engine::~Engine() {
  shutdown(ShutdownMode::kDrain);
  if (flight_state_id_ >= 0) {
    telemetry::flight().unregister_state_provider(flight_state_id_);
  }
}

void Engine::shutdown(ShutdownMode mode) {
  {
    std::lock_guard<std::mutex> lock(queue_mutex_);
    if (shut_down_) return;
    shut_down_ = true;
    accepting_ = false;
    paused_ = false;  // drain mode must actually run what's queued
    reject_pending_ = (mode == ShutdownMode::kReject);
    stop_dispatcher_ = true;
  }
  queue_cv_.notify_all();
  space_cv_.notify_all();
  dispatcher_.join();
  {
    std::unique_lock<std::mutex> lock(queue_mutex_);
    idle_cv_.wait(lock, [&] { return in_flight_ == 0; });
  }
  // Every task the dispatcher posted has settled; the pool drains
  // nothing and joins its workers (tasks posted after this — there are
  // none — would be rejected deterministically).
  pool_.shutdown();
  // Graceful exit leaves a fresh snapshot and an empty WAL tail: the
  // next boot recovers without replay, and `durable_warm` gets the
  // final warm-set metadata.
  if (store_) store_->snapshot_now();
}

void Engine::pause() {
  {
    std::lock_guard<std::mutex> lock(queue_mutex_);
    paused_ = true;
  }
  idle_cv_.notify_all();  // drain() waiters unblock on pause
}

void Engine::resume() {
  {
    std::lock_guard<std::mutex> lock(queue_mutex_);
    paused_ = false;
  }
  queue_cv_.notify_all();
}

void Engine::drain() {
  std::unique_lock<std::mutex> lock(queue_mutex_);
  idle_cv_.wait(lock, [&] {
    return (queue_.empty() && in_flight_ == 0) || paused_;
  });
}

// ---------------------------------------------------------------------------
// Registration + admission

MatrixHandle Engine::register_matrix(const sparse::CsrD& a) {
  if (!a.is_valid()) {
    throw InvalidInputError("register_matrix: structurally invalid CSR");
  }
  const MatrixHandle h = pattern_fingerprint(a);
  auto copy = std::make_shared<const sparse::CsrD>(a);
  {
    std::lock_guard<std::mutex> lock(registry_mutex_);
    const std::uint64_t version = versions_[h] + 1;
    // Durable-ack ordering: the WAL append completes BEFORE the registry
    // insert and before the caller sees the handle.  If the append
    // throws, nothing was acknowledged and nothing became visible — the
    // crash contract "every acknowledged registration survives" follows
    // from this line ordering, not from fsync.
    if (store_) store_->append_register(h, version, a);
    versions_[h] = version;
    registry_[h] = std::move(copy);  // same pattern => refreshed values
  }
  // An ELL/CMRS plan holds converted storage bound to the previous
  // registration's value buffer; re-registration (even with an identical
  // pattern) must drop it.  Every other plan is value-free and stays valid.
  if (auto plan = plan_cache_.peek(h); plan && plan->binds_values()) {
    plan_cache_.invalidate(h);
  }
  // Sharded mode: drop the handle's per-shard plans and rebuild the
  // layout — identical structure re-shards identically, but the
  // shard-local value buffers must refresh.
  invalidate_shard_plans(h);
  build_sharding(h, a);
  return h;
}

// ---------------------------------------------------------------------------
// Sharding

shard::Placement Engine::place(const std::vector<int>& candidates,
                               const shard::OpCost& cost, int width) const {
  if (cfg_.shard_placement == "weighted") {
    std::vector<shard::Candidate> slots;
    slots.reserve(candidates.size());
    for (const int o : candidates) {
      slots.push_back({o, fleet_.props(static_cast<std::size_t>(o))});
    }
    return shard::place(slots, cost, width);
  }
  shard::Placement p;
  const std::size_t n =
      std::min(candidates.size(), static_cast<std::size_t>(width));
  p.ordinals.assign(candidates.begin(),
                    candidates.begin() + static_cast<std::ptrdiff_t>(n));
  p.weights.assign(n, 1.0);
  return p;
}

void Engine::build_sharding(MatrixHandle h, const sparse::CsrD& a) {
  if (cfg_.devices <= 0) return;
  const int fleet = static_cast<int>(fleet_.size());
  // Width cap: enough shards to give each one >= shard_min_nnz work,
  // capped by the fleet, the knob, and the row count (a shard must own
  // rows).
  long long width64 = std::max<long long>(1, a.nnz() / cfg_.shard_min_nnz);
  width64 = std::min<long long>(width64, std::min(fleet, cfg_.shard_max));
  width64 = std::min<long long>(width64, std::max<index_t>(1, a.num_rows));
  const int width = static_cast<int>(width64);
  // Candidates ring the fleet from h % fleet, so independent tenants'
  // primaries spread over equal slots instead of all stacking on slot 0
  // (the solver's floor sort is stable).
  const int start = static_cast<int>(h % static_cast<std::uint64_t>(fleet));
  std::vector<int> ring(static_cast<std::size_t>(fleet));
  for (int k = 0; k < fleet; ++k) {
    ring[static_cast<std::size_t>(k)] = (start + k) % fleet;
  }
  const shard::OpCost cost = shard::spmv_cost(a);
  shard::Placement primary;
  if (width > 1) primary = place(ring, cost, width);
  if (primary.ordinals.size() <= 1) {
    // One slot serves it best: unsharded, on whichever slot is free.
    std::lock_guard<std::mutex> lock(shard_mutex_);
    shardings_.erase(h);
    return;
  }
  // The replica's placement: the same op on the slots the primary leaves
  // free, kept only when it is predicted to finish no later than the
  // primary (uniform placement: when it gets the primary's full width).
  std::vector<int> rest;
  for (const int o : ring) {
    if (std::find(primary.ordinals.begin(), primary.ordinals.end(), o) ==
        primary.ordinals.end()) {
      rest.push_back(o);
    }
  }
  shard::Placement replica;
  if (!rest.empty()) {
    replica = place(rest, cost, static_cast<int>(primary.ordinals.size()));
    const bool pays = cfg_.shard_placement == "weighted"
                          ? replica.finish_ns <= primary.finish_ns
                          : replica.ordinals.size() == primary.ordinals.size();
    if (!pays) replica = shard::Placement{};
  }
  shard::ShardOptions opt;
  opt.split_2d_nnz = cfg_.shard_2d_nnz;
  auto sm = std::make_shared<const shard::ShardedMatrix>(
      a, primary.ordinals, primary.weights, opt);
  std::lock_guard<std::mutex> lock(shard_mutex_);
  Sharding& s = shardings_[h];
  s.primary = std::move(sm);
  s.primary_ordinals = std::move(primary.ordinals);
  s.replica_placement = std::move(replica);
  // Hotness-derived state resets with the registration; the request
  // counter survives (the handle's traffic history is still real).
  s.replica.reset();
}

bool Engine::note_sharded_request(MatrixHandle, Sharding& s) {
  ++sharded_requests_total_;
  ++s.requests;
  if (s.replica || s.replica_placement.ordinals.empty() ||
      cfg_.shard_replicate_hot <= 0.0) {
    return false;
  }
  // Warm-up floor: one early request is 100% of nothing.
  if (sharded_requests_total_ < 8) return false;
  return static_cast<double>(s.requests) >=
         cfg_.shard_replicate_hot * static_cast<double>(sharded_requests_total_);
}

void Engine::invalidate_shard_plans(MatrixHandle h) {
  std::size_t primary = 0;
  std::size_t replica = 0;
  {
    std::lock_guard<std::mutex> lock(shard_mutex_);
    const auto it = shardings_.find(h);
    if (it == shardings_.end()) return;
    if (it->second.primary) primary = it->second.primary->shards().size();
    if (it->second.replica) replica = it->second.replica->shards().size();
  }
  for (std::size_t i = 0; i < primary; ++i) {
    plan_cache_.invalidate(shard_plan_key(h, i, false));
  }
  for (std::size_t i = 0; i < replica; ++i) {
    plan_cache_.invalidate(shard_plan_key(h, i, true));
  }
}

std::vector<std::shared_ptr<const autotune::TunedPlan>> Engine::shard_plans(
    MatrixHandle h, const shard::ShardedMatrix& sm,
    std::span<vgpu::Device* const> devices, bool replica, bool* all_hit) {
  std::vector<std::shared_ptr<const autotune::TunedPlan>> plans(
      sm.shards().size());
  if (all_hit) *all_hit = true;
  for (std::size_t i = 0; i < plans.size(); ++i) {
    const shard::Shard& sh = sm.shards()[i];
    if (!needs_plan(sh)) continue;
    bool hit = false;
    try {
      plans[i] = plan_cache_.get_or_build(
          *devices[static_cast<std::size_t>(sh.device)], sh.local,
          shard_plan_key(h, i, replica), &hit);
    } catch (const vgpu::DeviceLostError& e) {
      // Attribute plan-build losses to the shard's slot so failover
      // quarantines the device that actually died.
      throw shard::ShardLostError(e.what(), sh.device);
    }
    if (all_hit) *all_hit = *all_hit && hit;
  }
  return plans;
}

std::shared_ptr<const sparse::CsrD> Engine::lookup(MatrixHandle h) const {
  std::lock_guard<std::mutex> lock(registry_mutex_);
  if (auto it = registry_.find(h); it != registry_.end()) return it->second;
  throw InvalidInputError("serve: unknown matrix handle " + std::to_string(h));
}

bool Engine::has_matrix(MatrixHandle h) const {
  std::lock_guard<std::mutex> lock(registry_mutex_);
  return registry_.count(h) != 0;
}

std::uint64_t Engine::matrix_version(MatrixHandle h) const {
  std::lock_guard<std::mutex> lock(registry_mutex_);
  const auto it = versions_.find(h);
  return it == versions_.end() ? 0 : it->second;
}

/// Waits for queue space per `opts`/`blocking`; returns false when the
/// request must be rejected (queue full).  Throws ShutdownError once
/// admission is closed.  Called with queue_mutex_ held.
bool Engine::admit_locked(std::unique_lock<std::mutex>& lock,
                          const SubmitOptions& opts, bool blocking) {
  const auto closed = [&] {
    if (!accepting_) throw ShutdownError("serve: engine is shut down");
  };
  closed();
  if (queue_.size() < cfg_.queue_capacity) return true;
  if (!blocking || opts.admission_timeout.count() == 0) return false;
  const bool bounded = opts.admission_timeout.count() > 0;
  const auto deadline = clock::now() + opts.admission_timeout;
  while (queue_.size() >= cfg_.queue_capacity) {
    if (bounded) {
      if (space_cv_.wait_until(lock, deadline) == std::cv_status::timeout &&
          queue_.size() >= cfg_.queue_capacity) {
        return false;
      }
    } else {
      space_cv_.wait(lock);
    }
    closed();
  }
  return true;
}

bool Engine::enqueue(std::unique_ptr<Request> req, const SubmitOptions& opts,
                     bool blocking) {
  // Fail fast while the handle's circuit is open: no queueing, no device
  // time, a synchronous CircuitOpenError at the submit call.
  try {
    breaker_.admit(req->handle_a, modeled_now_ms());
  } catch (const CircuitOpenError&) {
    serve_metrics().breaker_fail_fast.add();
    throw;
  }
  req->submitted = clock::now();
  req->salt =
      req->handle_a ^ (admit_seq_.fetch_add(1, std::memory_order_relaxed) *
                       0x9E3779B97F4A7C15ull);
  req->open_span();
  const auto timeout = opts.request_timeout.count() != 0 ? opts.request_timeout
                                                         : cfg_.default_timeout;
  if (timeout.count() > 0) req->expires = req->submitted + timeout;
  {
    std::unique_lock<std::mutex> lock(queue_mutex_);
    if (opts.priority == Priority::kLow && shed_threshold_ > 0 &&
        queue_.size() >= shed_threshold_) {
      {
        std::lock_guard<std::mutex> slock(stats_mutex_);
        ++shed_;
      }
      serve_metrics().shed.add();
      throw LoadShedError("serve: low-priority request shed (queue depth " +
                          std::to_string(queue_.size()) + " >= watermark " +
                          std::to_string(shed_threshold_) + ")");
    }
    if (!admit_locked(lock, opts, blocking)) {
      {
        std::lock_guard<std::mutex> slock(stats_mutex_);
        ++rejected_full_;
      }
      serve_metrics().rejected_full.add();
      if (!blocking) return false;
      throw QueueFullError("serve: submission queue full (capacity " +
                           std::to_string(cfg_.queue_capacity) + ")");
    }
    queue_.push_back(std::move(req));
    serve_metrics().accepted.add();
    serve_metrics().peak_queue.update_max(static_cast<double>(queue_.size()));
    std::lock_guard<std::mutex> slock(stats_mutex_);
    ++accepted_;
    peak_queue_depth_ = std::max(peak_queue_depth_, queue_.size());
  }
  queue_cv_.notify_one();
  return true;
}

std::optional<std::future<SpmvResult>> Engine::admit_spmv(
    MatrixHandle h, std::vector<double> x, const SubmitOptions& opts,
    bool blocking) {
  auto a = lookup(h);  // throws for unknown handles, before queueing
  if (x.size() != static_cast<std::size_t>(a->num_cols)) {
    throw InvalidInputError("serve: x has " + std::to_string(x.size()) +
                            " entries, matrix has " +
                            std::to_string(a->num_cols) + " columns");
  }
  auto req = std::make_unique<Request>();
  req->kind = Request::Kind::kSpmv;
  req->handle_a = h;
  req->a = std::move(a);
  req->x = std::move(x);
  auto future = req->spmv_promise.get_future();
  if (!enqueue(std::move(req), opts, blocking)) return std::nullopt;
  return future;
}

std::future<SpmvResult> Engine::submit_spmv(MatrixHandle h,
                                            std::vector<double> x,
                                            const SubmitOptions& opts) {
  // Blocking admission throws rather than refusing.
  return *admit_spmv(h, std::move(x), opts, /*blocking=*/true);
}

std::optional<std::future<SpmvResult>> Engine::try_submit_spmv(
    MatrixHandle h, std::vector<double> x, const SubmitOptions& opts) {
  try {
    return admit_spmv(h, std::move(x), opts, /*blocking=*/false);
  } catch (const ShutdownError&) {
    return std::nullopt;
  }
}

std::future<MatrixResult> Engine::admit_matrix_op(bool gemm, MatrixHandle a,
                                                  MatrixHandle b,
                                                  const SubmitOptions& opts) {
  auto ma = lookup(a);
  auto mb = lookup(b);
  if (gemm) {
    if (ma->num_cols != mb->num_rows) {
      throw InvalidInputError("serve: spgemm operands are dimension-incompatible");
    }
  } else if (ma->num_rows != mb->num_rows || ma->num_cols != mb->num_cols) {
    throw InvalidInputError("serve: spadd operands differ in shape");
  }
  auto req = std::make_unique<Request>();
  req->kind = gemm ? Request::Kind::kSpgemm : Request::Kind::kSpadd;
  req->handle_a = a;
  req->a = std::move(ma);
  req->b = std::move(mb);
  auto future = req->matrix_promise.get_future();
  enqueue(std::move(req), opts, /*blocking=*/true);
  return future;
}

std::future<MatrixResult> Engine::submit_spadd(MatrixHandle a, MatrixHandle b,
                                               const SubmitOptions& opts) {
  return admit_matrix_op(/*gemm=*/false, a, b, opts);
}

std::future<MatrixResult> Engine::submit_spgemm(MatrixHandle a, MatrixHandle b,
                                                const SubmitOptions& opts) {
  return admit_matrix_op(/*gemm=*/true, a, b, opts);
}

// ---------------------------------------------------------------------------
// Dispatch

void Engine::dispatcher_loop() {
  for (;;) {
    std::vector<std::unique_ptr<Request>> rejected;
    std::vector<std::unique_ptr<Request>> expired;
    std::shared_ptr<Batch> batch;
    {
      std::unique_lock<std::mutex> lock(queue_mutex_);
      // Dispatch is gated on execution capacity: with every worker busy
      // (one in-flight batch each), pending requests stay in the bounded
      // queue — where full-queue rejection and per-request timeouts
      // apply — instead of piling into the pool's unbounded task deque.
      // Workers signal queue_cv_ as batches settle.
      queue_cv_.wait(lock, [&] {
        if (queue_.empty()) return stop_dispatcher_;
        if (reject_pending_) return true;
        return !paused_ && in_flight_batches_ < num_workers_;
      });
      if (reject_pending_) {
        for (auto& r : queue_) rejected.push_back(std::move(r));
        queue_.clear();
      } else if (!queue_.empty() && !paused_) {
        const auto now = clock::now();
        // Expired requests fail without running; pop them in arrival
        // order until a live one heads the queue.
        while (!queue_.empty() && queue_.front()->expired(now)) {
          expired.push_back(std::move(queue_.front()));
          queue_.pop_front();
        }
        if (!queue_.empty()) {
          batch = std::make_shared<Batch>();
          batch->reqs.push_back(std::move(queue_.front()));
          queue_.pop_front();
          Request& head = *batch->reqs.front();
          if (head.kind == Request::Kind::kSpmv && cfg_.batch_window > 1) {
            // Coalesce same-matrix SpMV requests from anywhere in the
            // queue (multi-tenant traffic interleaves them), up to the
            // window.  Relative order of everything left is preserved.
            for (auto it = queue_.begin();
                 it != queue_.end() &&
                 batch->reqs.size() <
                     static_cast<std::size_t>(cfg_.batch_window);) {
              Request& r = **it;
              if (r.kind == Request::Kind::kSpmv &&
                  r.handle_a == head.handle_a && !r.expired(now)) {
                batch->reqs.push_back(std::move(*it));
                it = queue_.erase(it);
              } else {
                ++it;
              }
            }
          }
          in_flight_ += batch->reqs.size();
          ++in_flight_batches_;
        }
      }
      if (queue_.empty()) idle_cv_.notify_all();
      if (stop_dispatcher_ && queue_.empty() && !batch && rejected.empty() &&
          expired.empty()) {
        break;
      }
    }
    space_cv_.notify_all();  // queue shrank (or is being torn down)

    // Counters are bumped BEFORE the promises settle: a client that
    // just observed its future must not race ahead of stats().
    if (!rejected.empty()) {
      settle_shutdown(rejected,
                      "serve: engine shut down before the request ran");
    }
    if (!expired.empty()) {
      {
        std::lock_guard<std::mutex> slock(stats_mutex_);
        timed_out_ += static_cast<long long>(expired.size());
      }
      serve_metrics().timed_out.add(static_cast<long long>(expired.size()));
      for (auto& r : expired) {
        r->finish_span("timeout");
        r->fail(std::make_exception_ptr(RequestTimeoutError(
            "serve: request timed out after waiting in the queue")));
      }
    }
    if (batch) dispatch_batch(std::move(batch));
  }
}

void Engine::dispatch_batch(std::shared_ptr<Batch> batch) {
  const std::size_t n = batch->reqs.size();
  {
    std::lock_guard<std::mutex> slock(stats_mutex_);
    if (n < batch_histogram_.size()) batch_histogram_[n] += 1;
    if (n >= 2) ++batches_;
    max_batch_ = std::max(max_batch_, static_cast<long long>(n));
  }
  if (n >= 2) serve_metrics().batches.add();
  // execute_batch may shrink batch->reqs (late-expiry re-check), so the
  // in-flight accounting uses the size captured at dispatch.  Freed
  // capacity wakes the dispatcher, which gates on in_flight_batches_.
  const auto finish = [this, n] {
    {
      std::lock_guard<std::mutex> lock(queue_mutex_);
      in_flight_ -= n;
      --in_flight_batches_;
      if (in_flight_ == 0) idle_cv_.notify_all();
    }
    queue_cv_.notify_one();
  };
  const bool posted = pool_.try_post([this, batch, finish] {
    execute_with_failover(*batch);
    finish();
  });
  if (!posted) {
    // Unreachable in normal operation (the pool is shut down only after
    // the dispatcher exits), but if it happens the requests are settled
    // with a typed error, not dropped.
    settle_shutdown(batch->reqs, "serve: worker pool rejected the dispatch");
    finish();
  }
}

void Engine::settle_shutdown(std::vector<std::unique_ptr<Request>>& reqs,
                             const char* why) {
  {
    std::lock_guard<std::mutex> slock(stats_mutex_);
    rejected_shutdown_ += static_cast<long long>(reqs.size());
  }
  serve_metrics().rejected_shutdown.add(static_cast<long long>(reqs.size()));
  for (auto& r : reqs) {
    r->finish_span("shutdown");
    r->fail(std::make_exception_ptr(ShutdownError(why)));
  }
}

// ---------------------------------------------------------------------------
// Execution

bool Engine::prune_expired(Batch& batch, const std::string& why) {
  const auto now = clock::now();
  std::size_t kept = 0;
  for (auto& r : batch.reqs) {
    if (r->expired(now)) {
      fail_request(*r, std::make_exception_ptr(RequestTimeoutError(why)));
    } else {
      batch.reqs[kept++] = std::move(r);
    }
  }
  batch.reqs.resize(kept);
  return kept > 0;
}

double Engine::prepare_retry(Batch& batch, int attempt) {
  // Runs inside a catch handler: `throw;` re-raises the fault that
  // brought us here once the budget is spent.
  if (attempt + 1 >= cfg_.retry.max_attempts) throw;
  // Deadline-aware retry: requests that expired during the failed
  // attempt settle with a timeout now, since nobody is waiting for their
  // answer; the survivors get the retry.
  if (!prune_expired(batch,
                     "serve: request deadline expired before retry attempt " +
                         std::to_string(attempt + 1))) {
    throw RequestTimeoutError(
        "serve: every request of the batch expired before the retry");
  }
  serve_metrics().retries.add();
  {
    std::lock_guard<std::mutex> slock(stats_mutex_);
    ++retries_;
  }
  return cfg_.retry.backoff_ms(attempt + 1, batch.reqs.front()->salt);
}

double Engine::run_attempts(Batch& batch, const std::function<void()>& stage,
                            const std::function<double()>& body,
                            const std::function<void()>& drop_plans) {
  double backoff_ms = 0.0;
  for (int attempt = 0;; ++attempt) {
    if (stage) stage();
    telemetry::ScopedSpan exec_span("serve.execute");
    const auto retry = [&](const char* status) {
      exec_span.end(status);
      backoff_ms += prepare_retry(batch, attempt);
    };
    try {
      const double modeled = body();
      exec_span.end();
      // Backoff is charged in modeled time — the client's bill includes
      // the waiting the policy imposed, not just the kernels.
      charge_modeled(modeled + backoff_ms);
      note_success(batch.reqs.front()->handle_a);
      return modeled + backoff_ms;
    } catch (const IntegrityError&) {
      if (drop_plans) drop_plans();
      retry("integrity");
    } catch (const PlanMismatchError&) {
      // A stale entry (e.g. values re-registered between lookup and
      // execute) — drop it and rebuild.
      if (drop_plans) drop_plans();
      retry("plan_mismatch");
    } catch (const vgpu::DeviceOomError&) {
      note_memory_pressure();
      retry("oom");
    }
  }
}

void Engine::fail_request(Request& r, const std::exception_ptr& e) {
  bool timeout = false;
  bool integrity = false;
  try {
    std::rethrow_exception(e);
  } catch (const RequestTimeoutError&) {
    timeout = true;
  } catch (const IntegrityError&) {
    integrity = true;
  } catch (...) {
  }
  if (timeout) {
    {
      std::lock_guard<std::mutex> slock(stats_mutex_);
      ++timed_out_;
    }
    serve_metrics().timed_out.add();
    r.finish_span("timeout");  // first status wins; fail()'s "error" won't
  } else {
    if (integrity) {
      // A terminal integrity failure (the retry budget is already spent
      // by the time a request fails with it) is a data-corruption signal
      // — capture the ring before the evidence scrolls away.
      telemetry::flight().note("fault", "integrity",
                               "handle " + std::to_string(r.handle_a));
      telemetry::flight().dump_bundle("integrity");
    }
    settle_metrics(r.handle_a, 0.0, false);
  }
  r.fail(e);
}

void Engine::note_execution_failure(MatrixHandle h,
                                    const std::exception_ptr& e) {
  // Timeouts say the queue is slow; device loss says the hardware died.
  // Neither is evidence against the matrix, so neither feeds the breaker.
  try {
    std::rethrow_exception(e);
  } catch (const RequestTimeoutError&) {
    return;
  } catch (const vgpu::DeviceLostError&) {
    return;
  } catch (...) {
  }
  if (breaker_.on_failure(h, modeled_now_ms())) {
    serve_metrics().breaker_opened.add();
  }
}

void Engine::note_success(MatrixHandle h) {
  breaker_.on_success(h);
  if (cfg_.degrade_recovery > 0 &&
      degraded_.load(std::memory_order_relaxed)) {
    if (degrade_successes_.fetch_add(1, std::memory_order_relaxed) + 1 >=
        cfg_.degrade_recovery) {
      bool expected = true;
      if (degraded_.compare_exchange_strong(expected, false)) {
        plan_cache_.set_capacity(cfg_.plan_cache_bytes);
        serve_metrics().degraded.set(0.0);
        telemetry::ScopedSpan span("serve.degraded_exit");
      }
    }
  }
}

void Engine::note_memory_pressure() {
  if (cfg_.degrade_recovery <= 0) return;
  // Any OOM resets the recovery streak; the FIRST one shrinks the plan
  // cache so resident plans stop competing with working sets, and flips
  // unbatched SpMV onto the plan-less path (execute_batch checks the
  // flag per dispatch).
  degrade_successes_.store(0, std::memory_order_relaxed);
  bool expected = false;
  if (degraded_.compare_exchange_strong(expected, true)) {
    telemetry::ScopedSpan span("serve.degraded_enter");
    plan_cache_.set_capacity(static_cast<std::size_t>(
        static_cast<double>(cfg_.plan_cache_bytes) * kDegradeCacheFrac));
    serve_metrics().degraded_entered.add();
    serve_metrics().degraded.set(1.0);
    std::lock_guard<std::mutex> slock(stats_mutex_);
    ++degraded_entered_;
  }
}

void Engine::execute_with_failover(Batch& batch) {
  int failovers = 0;
  for (;;) {
    Lease lease = acquire_lease(batch);
    try {
      execute_batch(batch, lease);
    } catch (const vgpu::DeviceLostError& e) {
      // A leased device is gone.  Quarantine it and provision a fresh
      // one in its slot BEFORE releasing the lease: the slot is still
      // marked busy, so no other batch can lease the dead device in the
      // window.  The batch requeues — structurally nothing in it has
      // settled yet (losses fire from launches/reserves, which all
      // precede the first promise settle).
      std::size_t lost = static_cast<std::size_t>(lease.ordinals.front());
      if (const auto* se = dynamic_cast<const shard::ShardLostError*>(&e)) {
        // Sharded execution names the shard's slot — only that slot is
        // quarantined, the rest of the placement survives untouched.
        lost = static_cast<std::size_t>(se->device_ordinal());
      }
      handle_device_loss(lost);
      release_lease(lease);
      ++failovers;
      if (failovers > cfg_.max_failovers) {
        const auto error = std::current_exception();
        note_execution_failure(
            batch.reqs.empty() ? 0 : batch.reqs.front()->handle_a, error);
        for (auto& r : batch.reqs) fail_request(*r, error);
        return;
      }
      continue;  // retry on the repaired fleet
    }
    release_lease(lease);
    return;
  }
}

Engine::Lease Engine::acquire_lease(Batch& batch) {
  Lease lease;
  Request& head = *batch.reqs.front();
  const bool sharded_mode = cfg_.devices > 0;

  if (sharded_mode && head.kind == Request::Kind::kSpmv) {
    bool build_replica = false;
    shard::Placement replica_placement;
    {
      std::lock_guard<std::mutex> lock(shard_mutex_);
      const auto it = shardings_.find(head.handle_a);
      if (it != shardings_.end() && it->second.primary) {
        Sharding& s = it->second;
        build_replica = note_sharded_request(head.handle_a, s);
        if (build_replica) replica_placement = s.replica_placement;
        // Route across the two placements by salt parity: deterministic
        // per request, roughly half the traffic each.
        if (s.replica && (head.salt & 1u) != 0) {
          lease.sharded = s.replica;
          lease.ordinals = s.replica_placement.ordinals;
          lease.replica = true;
        } else {
          lease.sharded = s.primary;
          lease.ordinals = s.primary_ordinals;
        }
      }
    }
    if (build_replica) {
      // Built OUTSIDE shard_mutex_: lookup takes registry_mutex_, and
      // the lock order everywhere is registry before shard.  Losing an
      // install race is harmless — the first install wins.
      const auto a = lookup(head.handle_a);
      shard::ShardOptions opt;
      opt.split_2d_nnz = cfg_.shard_2d_nnz;
      auto replica = std::make_shared<const shard::ShardedMatrix>(
          *a, replica_placement.ordinals, replica_placement.weights, opt);
      std::lock_guard<std::mutex> lock(shard_mutex_);
      const auto it = shardings_.find(head.handle_a);
      if (it != shardings_.end() && it->second.primary && !it->second.replica) {
        it->second.replica = std::move(replica);
      }
    }
  } else if (sharded_mode && head.kind != Request::Kind::kSpmv) {
    // Matrix ops place over the whole fleet in slot order: shard::spadd /
    // spgemm partition the output rows across the chosen slots by their
    // placement weights, and one chosen slot runs the op unsharded.
    std::vector<int> fleet(fleet_.size());
    std::iota(fleet.begin(), fleet.end(), 0);
    const shard::OpCost cost = head.kind == Request::Kind::kSpadd
                                   ? shard::spadd_cost(*head.a, *head.b)
                                   : shard::spgemm_cost(*head.a, *head.b);
    shard::Placement p = place(fleet, cost, static_cast<int>(fleet.size()));
    lease.ordinals = std::move(p.ordinals);
    lease.weights = std::move(p.weights);
  }

  const std::size_t n_req = batch.reqs.size();
  {
    std::unique_lock<std::mutex> lock(devices_mutex_);
    if (lease.ordinals.empty()) {
      // Unsharded work (legacy mode, or a matrix below the shard
      // threshold): any one free slot.
      devices_cv_.wait(lock, [&] {
        for (const SlotState& slot : slots_) {
          if (!slot.busy) return true;
        }
        return false;
      });
      for (std::size_t i = 0; i < slots_.size(); ++i) {
        if (!slots_[i].busy) {
          lease.ordinals.push_back(static_cast<int>(i));
          break;
        }
      }
    } else {
      // All-or-nothing claim: wait until EVERY required ordinal is free,
      // then take them together.  No partial holds means overlapping
      // ordinal sets cannot deadlock against each other.
      devices_cv_.wait(lock, [&] {
        for (const int o : lease.ordinals) {
          if (slots_[static_cast<std::size_t>(o)].busy) return false;
        }
        return true;
      });
    }
    for (const int o : lease.ordinals) {
      SlotState& slot = slots_[static_cast<std::size_t>(o)];
      slot.busy = true;
      slot.in_flight = n_req;
      ++slot.dispatched;
    }
    lease.devices.assign(fleet_.size(), nullptr);
    for (const int o : lease.ordinals) {
      lease.devices[static_cast<std::size_t>(o)] =
          &fleet_.device(static_cast<std::size_t>(o));
    }
  }
  for (const int o : lease.ordinals) {
    device_gauge(static_cast<std::size_t>(o), "in_flight")
        .set(static_cast<double>(n_req));
    device_counter(static_cast<std::size_t>(o), "dispatched").add();
  }
  return lease;
}

void Engine::release_lease(const Lease& lease) {
  // Every launch appends a KernelStats to its device's log, so a
  // long-running worker would grow it without bound.  The only reader is
  // write_trace, which needs the kernels only while a trace is being
  // collected; otherwise drop them while the lease still holds the
  // devices (no concurrent launch can append).
  if (!telemetry::tracer().enabled()) {
    for (vgpu::Device* d : lease.devices) {
      if (d != nullptr) d->clear_log();
    }
  }
  {
    std::lock_guard<std::mutex> lock(devices_mutex_);
    for (const int o : lease.ordinals) {
      SlotState& slot = slots_[static_cast<std::size_t>(o)];
      slot.busy = false;
      slot.in_flight = 0;
    }
  }
  devices_cv_.notify_all();
  for (const int o : lease.ordinals) {
    device_gauge(static_cast<std::size_t>(o), "in_flight").set(0.0);
  }
}

void Engine::handle_device_loss(std::size_t device_index) {
  telemetry::ScopedSpan span("serve.failover");
  {
    std::lock_guard<std::mutex> lock(devices_mutex_);
    // DeviceSet::replace provisions the fresh device with the SLOT'S OWN
    // properties, so shard layouts keyed on slot ordinals stay valid —
    // device loss re-places nothing.  Fresh hardware, fresh luck: the
    // replacement is NOT re-armed with the chaos schedule (re-arming
    // would lose it at the same ordinal forever — a livelock, not a
    // model of anything).  MPS_FAULT_* env knobs still apply through the
    // Device constructor, as for the original fleet.
    quarantined_.push_back(fleet_.replace(device_index));
    ++slots_[device_index].lost;
  }
  devices_cv_.notify_all();
  device_counter(device_index, "lost").add();
  telemetry::flight().note("fault", "device-lost",
                           "slot " + std::to_string(device_index));
  telemetry::flight().dump_bundle("device-lost");
  // Cached plans may hold allocations accounted against the lost device;
  // drop them all and let the survivors rebuild lazily (re-residenting
  // registered matrices costs one plan build per matrix, amortized).
  plan_cache_.clear();
  serve_metrics().failovers.add();
  {
    std::lock_guard<std::mutex> slock(stats_mutex_);
    ++failovers_;
  }
}

void Engine::settle_metrics(MatrixHandle h, double latency_ms, bool ok) {
  if (ok) {
    serve_metrics().completed.add();
    serve_metrics().latency_ms.observe(latency_ms);
  } else {
    serve_metrics().failed.add();
  }
  if (slo_) {
    TenantSlo t;
    const bool entered_alert = slo_->observe(h, latency_ms, ok, &t);
    slo_gauge(h, "burn_short").set(t.burn_short);
    slo_gauge(h, "burn_long").set(t.burn_long);
    slo_gauge(h, "budget_remaining").set(t.budget_remaining);
    slo_gauge(h, "alerting").set(t.alerting ? 1.0 : 0.0);
    if (entered_alert) {
      serve_metrics().slo_alerts.add();
      telemetry::flight().note(
          "slo", "alert",
          "tenant " + std::to_string(h) + " burn_short=" +
              std::to_string(t.burn_short) + " burn_long=" +
              std::to_string(t.burn_long));
    }
  }
  std::lock_guard<std::mutex> lock(stats_mutex_);
  if (ok) {
    ++completed_;
    // Bounded reservoir: quantiles cover the most recent kLatencyWindow
    // completions.  Unbounded history would be a slow leak (one double
    // per request forever) and an ever-costlier sort in stats().
    if (latencies_ms_.size() < kLatencyWindow) {
      latencies_ms_.push_back(latency_ms);
    } else {
      latencies_ms_[latency_next_] = latency_ms;
      latency_next_ = (latency_next_ + 1) % kLatencyWindow;
    }
  } else {
    ++failed_;
  }
}

void Engine::execute_batch(Batch& batch, Lease& lease) {
  // Deadlines are re-checked at the last moment before execution: a
  // request can expire between dispatch and here, and the contract is
  // that an expired request never runs.
  if (!prune_expired(batch,
                     "serve: request timed out before execution began")) {
    return;
  }
  // Everything below reads the head through these copies: a retry may
  // prune any request, the head included.
  const Request::Kind kind = batch.reqs.front()->kind;
  const MatrixHandle handle = batch.reqs.front()->handle_a;
  const std::shared_ptr<const sparse::CsrD> a_ref = batch.reqs.front()->a;
  const std::shared_ptr<const sparse::CsrD> b_ref = batch.reqs.front()->b;
  const sparse::CsrD& a = *a_ref;
  // Run the batch under the head request's span: nested host-phase spans
  // and every kernel this worker launches inherit its trace id (the
  // correlation the Perfetto export surfaces).
  telemetry::ContextScope trace_scope(batch.reqs.front()->span_ctx);
  // Roofline attribution: kernels launched below are billed to this
  // tenant/phase (shard exec refines shard + device).  Guarded so the
  // profiler-off path stays one relaxed atomic load.
  std::optional<telemetry::ProfAttrScope> prof_scope;
  if (telemetry::profiler().enabled()) {
    telemetry::ProfAttr attr;
    attr.tenant = handle;
    attr.phase = kind == Request::Kind::kSpmv    ? "serve.spmv"
                 : kind == Request::Kind::kSpadd ? "serve.spadd"
                                                 : "serve.spgemm";
    prof_scope.emplace(attr);
  }
  // Unsharded work runs on the lease's single slot; sharded work
  // (lease.sharded, or a matrix op leasing the whole fleet) fans out in
  // src/shard/exec.cpp with bitwise-identical results.
  vgpu::Device& device =
      *lease.devices[static_cast<std::size_t>(lease.ordinals.front())];
  const auto rows = static_cast<std::size_t>(a.num_rows);
  const auto cols = static_cast<std::size_t>(a.num_cols);
  const auto latency_ms = [](const Request& r, clock::time_point now) {
    return std::chrono::duration<double, std::milli>(now - r.submitted).count();
  };

  std::size_t settled = 0;  ///< requests already counted as completed
  try {
    if (kind != Request::Kind::kSpmv) {
      MatrixResult result;
      result.modeled_ms = run_attempts(batch, nullptr, [&] {
        result.c = sparse::CsrD{};  // a failed attempt may leave partial rows
        if (lease.ordinals.size() > 1) {
          // The op's output rows are partitioned across the whole fleet
          // by placement weight.
          return kind == Request::Kind::kSpadd
                     ? shard::spadd(a, *b_ref, lease.devices, lease.ordinals,
                                    lease.weights, result.c)
                           .modeled_ms
                     : shard::spgemm(a, *b_ref, lease.devices, lease.ordinals,
                                     lease.weights, result.c)
                           .modeled_ms;
        }
        return kind == Request::Kind::kSpadd
                   ? core::merge::spadd_csr(device, a, *b_ref, result.c)
                         .modeled_ms
                   : core::merge::spgemm(device, a, *b_ref, result.c)
                         .modeled_ms();
      }, nullptr);
      Request& req = *batch.reqs.front();
      settle_metrics(handle, latency_ms(req, clock::now()), true);
      req.finish_span("ok");
      req.matrix_promise.set_value(std::move(result));
    } else if (batch.reqs.size() == 1) {
      // Unbatched path: plan-cache hit amortizes the partition (and,
      // with autotuning on, the trial protocol).  Tuned execution is
      // bitwise-identical to the merge path — every candidate shares
      // the canonical accumulation order — so flipping MPS_AUTOTUNE can
      // change modeled cost only, never a result.  In degraded mode the
      // cache is bypassed entirely: one-shot spmv runs plan-less,
      // trading amortization for a minimal resident footprint (results
      // stay bitwise-identical by construction).
      SpmvResult result;
      result.y.resize(rows);
      const double total = run_attempts(batch, nullptr, [&] {
        const std::vector<double>& x = batch.reqs.front()->x;
        const bool degraded = degraded_.load(std::memory_order_relaxed);
        result.plan_cache_hit = false;
        if (lease.sharded) {
          // Per-shard plans under shard_plan_key share the one LRU
          // budget; the request counts as a cache hit only when EVERY
          // shard hit.
          const shard::ShardedMatrix& sm = *lease.sharded;
          if (degraded) {
            return shard::spmv(sm, lease.devices, x, result.y).modeled_ms;
          }
          const auto plans = shard_plans(handle, sm, lease.devices,
                                         lease.replica, &result.plan_cache_hit);
          return shard::spmv_tuned(sm, lease.devices, plans, x, result.y)
              .modeled_ms;
        }
        if (degraded) {
          return core::merge::spmv(device, a, x, result.y).modeled_ms();
        }
        auto plan = plan_cache_.get_or_build(device, a, handle,
                                             &result.plan_cache_hit);
        return plan->execute(device, a, x, result.y).modeled_ms();
      }, [&] {
        // Rebuild from clean state: every placement's keys in the sharded
        // case, since which shard tripped is not recorded.
        if (lease.sharded) {
          invalidate_shard_plans(handle);
        } else {
          plan_cache_.invalidate(handle);
        }
      });
      result.modeled_ms = total;
      Request& req = *batch.reqs.front();
      settle_metrics(handle, latency_ms(req, clock::now()), true);
      req.finish_span("ok");
      req.spmv_promise.set_value(std::move(result));
    } else {
      // Batched path: interleave the n request vectors into a row-major
      // X (cols x n) and run ONE spmm.  Column j of Y is bitwise-identical
      // to spmv of request j: spmm shares spmv's tile geometry and
      // accumulation order (tests/serve_test.cpp asserts it).  The block
      // is (re)assembled per attempt because a retry may have pruned
      // expired requests from the batch.
      std::vector<double> x_block;
      std::vector<double> y_block;
      const double total = run_attempts(batch, [&] {
        const std::size_t n = batch.reqs.size();
        telemetry::ScopedSpan assemble_span("serve.batch_assemble");
        x_block.assign(cols * n, 0.0);
        for (std::size_t j = 0; j < n; ++j) {
          const std::vector<double>& x = batch.reqs[j]->x;
          for (std::size_t c = 0; c < cols; ++c) x_block[c * n + j] = x[c];
        }
        assemble_span.end();
        y_block.assign(rows * n, 0.0);
      }, [&] {
        const auto n = static_cast<index_t>(batch.reqs.size());
        return lease.sharded ? shard::spmm(*lease.sharded, lease.devices,
                                           x_block, n, y_block)
                                   .modeled_ms
                             : core::merge::spmm(device, a, x_block, n, y_block)
                                   .modeled_ms;
      }, nullptr);
      telemetry::ScopedSpan scatter_span("serve.batch_scatter");
      const std::size_t n = batch.reqs.size();
      const auto now = clock::now();
      for (std::size_t j = 0; j < n; ++j) {
        Request& r = *batch.reqs[j];
        SpmvResult result;
        result.y.resize(rows);
        for (std::size_t i = 0; i < rows; ++i) result.y[i] = y_block[i * n + j];
        result.modeled_ms = total / static_cast<double>(n);
        result.batch_size = static_cast<int>(n);
        settle_metrics(handle, latency_ms(r, now), true);
        r.finish_span("ok");
        r.spmv_promise.set_value(std::move(result));
        ++settled;
      }
    }
  } catch (const vgpu::DeviceLostError&) {
    // Failover territory: nothing in the batch has settled (losses fire
    // from launches/reserves, all of which precede the first settle), so
    // the whole batch can requeue on a surviving worker.
    throw;
  } catch (...) {
    // A failure mid-scatter (e.g. allocation during result copy-out)
    // must only fail the requests not yet settled: the earlier ones
    // already delivered values and were counted as completed.
    auto error = std::current_exception();
    note_execution_failure(handle, error);
    for (std::size_t j = settled; j < batch.reqs.size(); ++j) {
      fail_request(*batch.reqs[j], error);
    }
  }
}

// ---------------------------------------------------------------------------
// Stats

EngineStats Engine::stats() const {
  EngineStats s;
  {
    std::lock_guard<std::mutex> lock(queue_mutex_);
    s.queue_depth = queue_.size();
  }
  s.queue_capacity = cfg_.queue_capacity;
  {
    std::lock_guard<std::mutex> lock(stats_mutex_);
    s.peak_queue_depth = peak_queue_depth_;
    s.accepted = accepted_;
    s.rejected_full = rejected_full_;
    s.timed_out = timed_out_;
    s.rejected_shutdown = rejected_shutdown_;
    s.completed = completed_;
    s.failed = failed_;
    s.retries = retries_;
    s.batches = batches_;
    s.max_batch = max_batch_;
    s.batch_histogram = batch_histogram_;
    s.latency_ms = util::summarize(latencies_ms_);
    s.latency_p50_ms = util::percentile(latencies_ms_, 50.0);
    s.latency_p99_ms = util::percentile(latencies_ms_, 99.0);
    s.shed = shed_;
    s.failovers = failovers_;
    s.degraded_entered = degraded_entered_;
  }
  s.degraded = degraded_.load(std::memory_order_relaxed);
  s.breaker = breaker_.stats();
  s.plan_cache = plan_cache_.stats();
  {
    std::lock_guard<std::mutex> lock(devices_mutex_);
    s.devices.resize(fleet_.size());
    for (std::size_t i = 0; i < fleet_.size(); ++i) {
      EngineStats::DeviceStats& d = s.devices[i];
      d.profile = fleet_.profile(i);
      d.weight = fleet_.weight(i);
      d.busy = slots_[i].busy;
      d.in_flight = slots_[i].in_flight;
      d.dispatched = slots_[i].dispatched;
      d.lost = slots_[i].lost;
    }
  }
  {
    std::lock_guard<std::mutex> lock(shard_mutex_);
    for (const auto& entry : shardings_) {
      if (!entry.second.primary) continue;
      ++s.sharded_matrices;
      if (entry.second.replica) ++s.replicated_matrices;
      const auto count = [&s](const shard::ShardedMatrix& sm) {
        for (const shard::Shard& b : sm.shards()) {
          if (b.row_end > b.row_begin) {
            ++s.devices[static_cast<std::size_t>(b.device)].shards_hosted;
          }
        }
      };
      count(*entry.second.primary);
      if (entry.second.replica) count(*entry.second.replica);
    }
  }
  if (store_) {
    const auto d = store_->stats();
    s.durability.enabled = true;
    s.durability.wal_appends = d.wal_appends;
    s.durability.wal_bytes = d.wal_bytes;
    s.durability.snapshots = d.snapshots;
    s.durability.recovery = d.recovery;
  }
  if (slo_) {
    const SloConfig& c = slo_->config();
    s.slo.enabled = true;
    s.slo.latency_ms = c.latency_ms;
    s.slo.objective = c.objective;
    s.slo.burn_alert = c.burn_alert;
    s.slo.short_window = c.short_window;
    s.slo.long_window = c.long_window;
    s.slo.tenants = slo_->report();
    for (const TenantSlo& t : s.slo.tenants) {
      if (t.alerting) ++s.slo.alerting_now;
    }
  }
  return s;
}

PlanExplain Engine::explain(MatrixHandle h) const {
  PlanExplain ex;
  ex.handle = h;
  {
    std::lock_guard<std::mutex> lock(registry_mutex_);
    ex.registered = registry_.count(h) != 0;
  }
  // Unsharded entry first: peek never touches LRU order or counters,
  // so explain() can run from ops tooling without perturbing the cache.
  const auto describe = [&ex](const autotune::TunedPlan& plan) {
    ex.choice = plan.choice().name;
    ex.tune_ms = plan.tune_ms();
    ex.steady_ms = plan.steady_ms();
    ex.features = plan.features();
    ex.trials = plan.trials();
  };
  if (auto plan = plan_cache_.peek(h)) {
    ex.plan_resident = true;
    ex.plan_bytes = plan->bytes();
    describe(*plan);
  }
  {
    std::lock_guard<std::mutex> lock(shard_mutex_);
    const auto it = shardings_.find(h);
    if (it != shardings_.end() && it->second.primary) {
      ex.sharded = true;
      ex.replicated = it->second.replica != nullptr;
      const auto& shards = it->second.primary->shards();
      ex.shards = static_cast<int>(shards.size());
      for (const shard::Shard& sh : shards) ex.shard_devices.push_back(sh.device);
    }
  }
  if (ex.sharded) {
    for (int i = 0; i < ex.shards; ++i) {
      const std::uint64_t key = shard_plan_key(h, static_cast<std::size_t>(i),
                                               /*replica=*/false);
      if (auto plan = plan_cache_.peek(key)) {
        ex.shard_plans.push_back(plan->choice().name);
        // Surface the first resident shard's decision record when the
        // unsharded key is cold (sharded handles never populate it).
        if (ex.choice.empty()) describe(*plan);
      } else {
        ex.shard_plans.push_back("cold");
      }
    }
  }
  return ex;
}

void Engine::write_bundle_state(std::ostream& out) const {
  // Deliberately limited to locks a crashing thread cannot hold at a
  // durable-crash point (registry_mutex_ and shard_mutex_ are both held
  // across WAL appends / snapshot captures — try_lock on a mutex the
  // calling thread owns is undefined, so they are never touched here).
  out << "{\"config\":{\"workers\":" << num_workers_
      << ",\"devices\":" << fleet_.size()
      << ",\"queue_capacity\":" << cfg_.queue_capacity
      << ",\"batch_window\":" << cfg_.batch_window
      << ",\"autotune\":" << cfg_.autotune
      << ",\"slo\":" << (slo_ ? 1 : 0)
      << ",\"durable\":" << (cfg_.durable_enabled > 0 ? 1 : 0) << "}";
  out << ",\"degraded\":" << (degraded_.load(std::memory_order_relaxed) ? 1 : 0);
  {
    std::unique_lock<std::mutex> lock(queue_mutex_, std::try_to_lock);
    if (lock.owns_lock()) {
      out << ",\"queue_depth\":" << queue_.size()
          << ",\"in_flight\":" << in_flight_;
    } else {
      out << ",\"queue\":\"unavailable\"";
    }
  }
  {
    std::unique_lock<std::mutex> lock(stats_mutex_, std::try_to_lock);
    if (lock.owns_lock()) {
      out << ",\"accepted\":" << accepted_ << ",\"completed\":" << completed_
          << ",\"failed\":" << failed_ << ",\"timed_out\":" << timed_out_
          << ",\"retries\":" << retries_ << ",\"failovers\":" << failovers_;
    } else {
      out << ",\"counters\":\"unavailable\"";
    }
  }
  {
    std::unique_lock<std::mutex> lock(devices_mutex_, std::try_to_lock);
    if (lock.owns_lock()) {
      out << ",\"slots\":[";
      for (std::size_t i = 0; i < slots_.size(); ++i) {
        if (i) out << ",";
        out << "{\"ordinal\":" << i << ",\"profile\":\"" << fleet_.profile(i)
            << "\",\"busy\":" << (slots_[i].busy ? 1 : 0)
            << ",\"dispatched\":" << slots_[i].dispatched
            << ",\"lost\":" << slots_[i].lost << "}";
      }
      out << "]";
    } else {
      out << ",\"slots\":\"unavailable\"";
    }
  }
  {
    const PlanCache::Stats pc = plan_cache_.stats();
    out << ",\"plan_cache\":{\"entries\":" << pc.entries
        << ",\"bytes\":" << pc.bytes_in_use << ",\"hits\":" << pc.hits
        << ",\"misses\":" << pc.misses << ",\"evictions\":" << pc.evictions
        << "}";
  }
  if (slo_) {
    out << ",\"slo\":[";
    const auto tenants = slo_->report();
    for (std::size_t i = 0; i < tenants.size(); ++i) {
      const TenantSlo& t = tenants[i];
      if (i) out << ",";
      out << "{\"tenant\":" << t.tenant << ",\"total\":" << t.total
          << ",\"bad\":" << t.bad << ",\"burn_short\":" << t.burn_short
          << ",\"burn_long\":" << t.burn_long
          << ",\"alerting\":" << (t.alerting ? 1 : 0)
          << ",\"alerts\":" << t.alerts << "}";
    }
    out << "]";
  }
  out << "}";
}

void Engine::write_trace(std::ostream& out) const {
  std::vector<vgpu::TraceTrack> tracks;
  std::lock_guard<std::mutex> lock(devices_mutex_);
  tracks.reserve(fleet_.size() + quarantined_.size());
  for (std::size_t i = 0; i < fleet_.size(); ++i) {
    tracks.push_back(vgpu::TraceTrack{"vgpu worker " + std::to_string(i),
                                      &fleet_.device(i)});
  }
  // Lost devices keep their kernel history: the timeline shows work up
  // to the loss point, then the failover replacement takes over the
  // worker track above.
  for (std::size_t i = 0; i < quarantined_.size(); ++i) {
    tracks.push_back(vgpu::TraceTrack{"vgpu lost " + std::to_string(i),
                                      quarantined_[i].get()});
  }
  vgpu::write_perfetto_trace(out, tracks);
}

}  // namespace mps::serve

#include "serve/engine.hpp"

#include <algorithm>
#include <utility>

#include "core/spadd.hpp"
#include "core/spgemm.hpp"
#include "core/spmm.hpp"
#include "shard/exec.hpp"
#include "telemetry/flight.hpp"
#include "telemetry/metrics.hpp"
#include "telemetry/profile.hpp"
#include "util/env.hpp"
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

/// Dispatch builds a plan only for shards that own rows and nonzeros;
/// the rest run one-shot (shard::spmv_tuned's null-entry fallback).
bool needs_plan(const shard::Shard& sh) {
  return sh.row_end > sh.row_begin && sh.local.nnz() > 0;
}

EngineConfig resolve_config(EngineConfig cfg) {
  // Every MPS_SERVE_* knob parses strictly (the MPS_FAULT_*/MPS_CHAOS_*
  // pattern): a negative count or non-numeric garbage in a production
  // environment is a deploy bug, and silently clamping it to a default
  // hides the bug until it pages someone.  InvalidInputError names the
  // offending variable.
  if (cfg.threads == 0) {
    cfg.threads = static_cast<unsigned>(
        util::env_int_checked("MPS_SERVE_THREADS", 4, 1, 1024));
  }
  if (cfg.queue_capacity == 0) {
    cfg.queue_capacity = static_cast<std::size_t>(
        util::env_int_checked("MPS_SERVE_QUEUE_CAP", 1024, 1, 1ll << 30));
  }
  if (cfg.batch_window == 0) {
    cfg.batch_window = static_cast<int>(
        util::env_int_checked("MPS_SERVE_BATCH_WINDOW", 8, 1, 4096));
  }
  if (cfg.plan_cache_bytes == 0) {
    cfg.plan_cache_bytes =
        static_cast<std::size_t>(
            util::env_int_checked("MPS_SERVE_PLAN_CACHE_MB", 64, 1, 1ll << 20)) *
        (1u << 20);
  }
  if (cfg.autotune < 0) {
    cfg.autotune = autotune::enabled() ? 1 : 0;
  }
  cfg.retry = RetryPolicy::resolve(cfg.retry);
  cfg.breaker = CircuitBreakerConfig::resolve(cfg.breaker);
  if (cfg.shed_watermark < 0.0) {
    cfg.shed_watermark =
        util::env_double_checked("MPS_SERVE_SHED_WATERMARK", 0.75);
  }
  if (cfg.max_failovers < 0) {
    cfg.max_failovers = static_cast<int>(
        util::env_int_checked("MPS_SERVE_MAX_FAILOVERS", 8, 0, 1 << 20));
  }
  if (cfg.degrade_cache_frac < 0.0) {
    cfg.degrade_cache_frac =
        util::env_double_checked("MPS_SERVE_DEGRADE_CACHE_FRAC", 0.25);
  }
  if (cfg.degrade_recovery < 0) {
    cfg.degrade_recovery = static_cast<int>(
        util::env_int_checked("MPS_SERVE_DEGRADE_RECOVERY", 64, 0, 1 << 30));
  }
  // Durability: MPS_DURABLE_DIR arms the WAL + snapshot layer; like the
  // chaos knobs, durable_enabled == 0 forces it off so the kill harness
  // can run its non-durable reference leg in the same environment.
  if (cfg.durable_enabled != 0 && cfg.durable_dir.empty()) {
    cfg.durable_dir = util::env_string("MPS_DURABLE_DIR", "");
  }
  if (cfg.durable_enabled < 0) cfg.durable_enabled = cfg.durable_dir.empty() ? 0 : 1;
  if (cfg.durable_enabled > 0 && cfg.durable_dir.empty()) {
    throw InvalidInputError(
        "serve: durability enabled but no directory (set cfg.durable_dir or "
        "MPS_DURABLE_DIR)");
  }
  if (cfg.durable_snapshot_every < 0) {
    cfg.durable_snapshot_every =
        util::env_int_checked("MPS_DURABLE_SNAPSHOT_EVERY", 64, 0, 1ll << 30);
  }
  if (cfg.durable_warm < 0) {
    cfg.durable_warm =
        static_cast<int>(util::env_int_checked("MPS_DURABLE_WARM", 0, 0, 1));
  }
  if (cfg.durable_fsync < 0) {
    cfg.durable_fsync =
        static_cast<int>(util::env_int_checked("MPS_DURABLE_FSYNC", 0, 0, 1));
  }
  // Sharded serving fleet (docs/sharding.md).  Same strict-parse rule as
  // every other knob.
  if (cfg.devices < 0) {
    cfg.devices =
        static_cast<int>(util::env_int_checked("MPS_SERVE_DEVICES", 0, 0, 256));
  }
  if (cfg.device_spec.empty()) {
    cfg.device_spec = util::env_string("MPS_SERVE_DEVICE_SPEC", "");
  }
  if (cfg.shard_max <= 0) {
    cfg.shard_max =
        static_cast<int>(util::env_int_checked("MPS_SHARD_MAX", 8, 1, 256));
  }
  if (cfg.shard_min_nnz <= 0) {
    cfg.shard_min_nnz =
        util::env_int_checked("MPS_SHARD_MIN_NNZ", 2048, 1, 1ll << 40);
  }
  if (cfg.shard_placement.empty()) {
    cfg.shard_placement = util::env_string("MPS_SHARD_PLACEMENT", "weighted");
  }
  if (cfg.shard_placement != "weighted" && cfg.shard_placement != "uniform") {
    throw InvalidInputError(
        "MPS_SHARD_PLACEMENT: expected 'weighted' or 'uniform', got '" +
        cfg.shard_placement + "'");
  }
  if (cfg.shard_replicate_hot < 0.0) {
    cfg.shard_replicate_hot =
        util::env_double_checked("MPS_SHARD_REPLICATE_HOT", 0.5);
  }
  if (cfg.shard_replicate_hot > 1.0) {
    throw InvalidInputError(
        "MPS_SHARD_REPLICATE_HOT: traffic share must be in [0, 1], got " +
        std::to_string(cfg.shard_replicate_hot));
  }
  if (cfg.shard_2d_nnz < 0) {
    cfg.shard_2d_nnz = util::env_int_checked("MPS_SHARD_2D_NNZ", 0, 0, 1ll << 40);
  }
  if (cfg.slo_enabled < 0) {
    cfg.slo_enabled =
        static_cast<int>(util::env_int_checked("MPS_SLO", 0, 0, 1));
  }
  // Chaos resolves AFTER threads and the fleet size: the seeded
  // generator spreads events over the fleet's slot ordinals (the worker
  // count in legacy mode).  chaos_enabled == 0 is the chaos harness's
  // fault-free reference run — the env knobs are ignored so the same
  // process can run both legs.
  if (cfg.chaos_enabled != 0 && cfg.chaos.empty()) {
    cfg.chaos = vgpu::ChaosSchedule::from_env(
        cfg.devices > 0 ? cfg.devices : static_cast<int>(cfg.threads));
  }
  if (cfg.chaos_enabled < 0) cfg.chaos_enabled = cfg.chaos.empty() ? 0 : 1;
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

EngineConfig EngineConfig::from_env() { return resolve_config(EngineConfig{}); }

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
      // MPS_SERVE_DEVICES and shapes it from MPS_SERVE_DEVICE_SPEC.
      fleet_(vgpu::parse_device_spec(
          cfg_.device_spec,
          cfg_.devices > 0 ? cfg_.devices : static_cast<int>(cfg_.threads),
          "MPS_SERVE_DEVICE_SPEC")),
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
    slo_ = std::make_unique<SloTracker>(SloConfig::from_env());
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
  // next boot recovers without replay, and MPS_DURABLE_WARM gets the
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

std::vector<double> Engine::placement_weights(
    const std::vector<int>& ordinals) const {
  std::vector<double> w(ordinals.size(), 1.0);
  if (cfg_.shard_placement == "weighted") {
    for (std::size_t i = 0; i < ordinals.size(); ++i) {
      w[i] = fleet_.weight(static_cast<std::size_t>(ordinals[i]));
    }
  }
  return w;
}

void Engine::build_sharding(MatrixHandle h, const sparse::CsrD& a) {
  if (cfg_.devices <= 0) return;
  const int fleet = static_cast<int>(fleet_.size());
  // Width: enough shards to give each one >= shard_min_nnz work, capped
  // by the fleet, the knob, and the row count (a shard must own rows).
  long long width64 = std::max<long long>(1, a.nnz() / cfg_.shard_min_nnz);
  width64 = std::min<long long>(width64, std::min(fleet, cfg_.shard_max));
  width64 = std::min<long long>(width64, std::max<index_t>(1, a.num_rows));
  const int width = static_cast<int>(width64);
  if (width <= 1) {
    std::lock_guard<std::mutex> lock(shard_mutex_);
    shardings_.erase(h);
    return;
  }
  // Deterministic placement: consecutive ordinals starting at h % fleet,
  // so independent tenants' primaries spread over the fleet instead of
  // all stacking on slot 0.
  const int start = static_cast<int>(h % static_cast<std::uint64_t>(fleet));
  std::vector<int> ordinals(static_cast<std::size_t>(width));
  for (int k = 0; k < width; ++k) {
    ordinals[static_cast<std::size_t>(k)] = (start + k) % fleet;
  }
  auto weights = placement_weights(ordinals);
  shard::ShardOptions opt;
  opt.split_2d_nnz = cfg_.shard_2d_nnz;
  auto sm =
      std::make_shared<const shard::ShardedMatrix>(a, ordinals, weights, opt);
  std::lock_guard<std::mutex> lock(shard_mutex_);
  Sharding& s = shardings_[h];
  s.primary = std::move(sm);
  s.primary_ordinals = std::move(ordinals);
  // Hotness-derived state resets with the registration; the request
  // counter survives (the handle's traffic history is still real).
  s.replica.reset();
  s.replica_ordinals.clear();
}

bool Engine::note_sharded_request(MatrixHandle, Sharding& s) {
  ++sharded_requests_total_;
  ++s.requests;
  if (s.replica || cfg_.shard_replicate_hot <= 0.0) return false;
  // A replica needs a disjoint second placement of the same width.
  if (2 * s.primary_ordinals.size() > fleet_.size()) return false;
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

void Engine::shed_low_priority_locked(const SubmitOptions& opts) {
  if (opts.priority != Priority::kLow || shed_threshold_ == 0 ||
      queue_.size() < shed_threshold_) {
    return;
  }
  {
    std::lock_guard<std::mutex> slock(stats_mutex_);
    ++shed_;
  }
  serve_metrics().shed.add();
  throw LoadShedError("serve: low-priority request shed (queue depth " +
                      std::to_string(queue_.size()) + " >= watermark " +
                      std::to_string(shed_threshold_) + ")");
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

std::future<SpmvResult> Engine::admit_spmv(MatrixHandle h,
                                           std::vector<double> x,
                                           const SubmitOptions& opts,
                                           bool blocking, bool* admitted) {
  auto a = lookup(h);  // throws for unknown handles, before queueing
  if (x.size() != static_cast<std::size_t>(a->num_cols)) {
    throw InvalidInputError("serve: x has " + std::to_string(x.size()) +
                            " entries, matrix has " +
                            std::to_string(a->num_cols) + " columns");
  }
  // Fail fast while the handle's circuit is open: no queueing, no device
  // time, a synchronous CircuitOpenError at the submit call.
  try {
    breaker_.admit(h, modeled_now_ms());
  } catch (const CircuitOpenError&) {
    serve_metrics().breaker_fail_fast.add();
    throw;
  }
  auto req = std::make_unique<Request>();
  req->kind = Request::Kind::kSpmv;
  req->handle_a = h;
  req->a = std::move(a);
  req->x = std::move(x);
  req->submitted = clock::now();
  req->salt = h ^ (admit_seq_.fetch_add(1, std::memory_order_relaxed) *
                   0x9E3779B97F4A7C15ull);
  req->open_span();
  auto timeout = opts.request_timeout.count() != 0 ? opts.request_timeout
                                                   : cfg_.default_timeout;
  if (timeout.count() > 0) req->expires = req->submitted + timeout;
  auto future = req->spmv_promise.get_future();

  {
    std::unique_lock<std::mutex> lock(queue_mutex_);
    shed_low_priority_locked(opts);  // throws LoadShedError past watermark
    if (!admit_locked(lock, opts, blocking)) {
      {
        std::lock_guard<std::mutex> slock(stats_mutex_);
        ++rejected_full_;
      }
      serve_metrics().rejected_full.add();
      *admitted = false;
      if (!blocking) return future;  // caller discards; nullopt instead
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
  *admitted = true;
  return future;
}

std::future<SpmvResult> Engine::submit_spmv(MatrixHandle h,
                                            std::vector<double> x,
                                            const SubmitOptions& opts) {
  bool admitted = false;
  auto future = admit_spmv(h, std::move(x), opts, /*blocking=*/true, &admitted);
  return future;  // !admitted cases threw
}

std::optional<std::future<SpmvResult>> Engine::try_submit_spmv(
    MatrixHandle h, std::vector<double> x, const SubmitOptions& opts) {
  bool admitted = false;
  try {
    auto future =
        admit_spmv(h, std::move(x), opts, /*blocking=*/false, &admitted);
    if (!admitted) return std::nullopt;
    return future;
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
  try {
    breaker_.admit(a, modeled_now_ms());
  } catch (const CircuitOpenError&) {
    serve_metrics().breaker_fail_fast.add();
    throw;
  }
  auto req = std::make_unique<Request>();
  req->kind = gemm ? Request::Kind::kSpgemm : Request::Kind::kSpadd;
  req->handle_a = a;
  req->a = std::move(ma);
  req->b = std::move(mb);
  req->submitted = clock::now();
  req->salt = a ^ (admit_seq_.fetch_add(1, std::memory_order_relaxed) *
                   0x9E3779B97F4A7C15ull);
  req->open_span();
  auto timeout = opts.request_timeout.count() != 0 ? opts.request_timeout
                                                   : cfg_.default_timeout;
  if (timeout.count() > 0) req->expires = req->submitted + timeout;
  auto future = req->matrix_promise.get_future();
  {
    std::unique_lock<std::mutex> lock(queue_mutex_);
    shed_low_priority_locked(opts);
    if (!admit_locked(lock, opts, /*blocking=*/true)) {
      serve_metrics().rejected_full.add();
      std::lock_guard<std::mutex> slock(stats_mutex_);
      ++rejected_full_;
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
    const auto settle_shutdown = [&](std::vector<std::unique_ptr<Request>>& rs) {
      {
        std::lock_guard<std::mutex> slock(stats_mutex_);
        rejected_shutdown_ += static_cast<long long>(rs.size());
      }
      serve_metrics().rejected_shutdown.add(static_cast<long long>(rs.size()));
      for (auto& r : rs) {
        r->finish_span("shutdown");
        r->fail(std::make_exception_ptr(
            ShutdownError("serve: engine shut down before the request ran")));
      }
    };
    if (!rejected.empty()) settle_shutdown(rejected);
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
    {
      std::lock_guard<std::mutex> slock(stats_mutex_);
      rejected_shutdown_ += static_cast<long long>(n);
    }
    serve_metrics().rejected_shutdown.add(static_cast<long long>(n));
    for (auto& r : batch->reqs) {
      r->finish_span("shutdown");
      r->fail(std::make_exception_ptr(
          ShutdownError("serve: worker pool rejected the dispatch")));
    }
    finish();
  }
}

// ---------------------------------------------------------------------------
// Execution

double Engine::prepare_retry(Request& req, int attempt) {
  // Runs inside a catch handler: `throw;` re-raises the fault that
  // brought us here once the budget is spent.
  if (attempt + 1 >= cfg_.retry.max_attempts) throw;
  if (req.expired(clock::now())) {
    // Deadline-aware retry: nobody is waiting for this answer anymore.
    throw RequestTimeoutError(
        "serve: request deadline expired before retry attempt " +
        std::to_string(attempt + 1));
  }
  serve_metrics().retries.add();
  {
    std::lock_guard<std::mutex> slock(stats_mutex_);
    ++retries_;
  }
  return cfg_.retry.backoff_ms(attempt + 1, req.salt);
}

double Engine::prepare_batch_retry(Batch& batch, int attempt) {
  if (attempt + 1 >= cfg_.retry.max_attempts) throw;
  // Requests that expired during the failed attempt settle with a
  // timeout now; the survivors get the retry (the batch block is
  // reassembled from whoever is left).
  const auto now = clock::now();
  std::size_t kept = 0;
  for (auto& r : batch.reqs) {
    if (r->expired(now)) {
      fail_request(*r, std::make_exception_ptr(RequestTimeoutError(
                           "serve: request deadline expired before retry "
                           "attempt " +
                           std::to_string(attempt + 1))));
    } else {
      batch.reqs[kept++] = std::move(r);
    }
  }
  batch.reqs.resize(kept);
  if (batch.reqs.empty()) {
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
        static_cast<double>(cfg_.plan_cache_bytes) * cfg_.degrade_cache_frac));
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
    std::vector<int> primary_ordinals;
    {
      std::lock_guard<std::mutex> lock(shard_mutex_);
      const auto it = shardings_.find(head.handle_a);
      if (it != shardings_.end() && it->second.primary) {
        Sharding& s = it->second;
        build_replica = note_sharded_request(head.handle_a, s);
        primary_ordinals = s.primary_ordinals;
        // Route across the two placements by salt parity: deterministic
        // per request, roughly half the traffic each.
        if (s.replica && (head.salt & 1u) != 0) {
          lease.sharded = s.replica;
          lease.ordinals = s.replica_ordinals;
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
      const int width = static_cast<int>(primary_ordinals.size());
      const int fleet = static_cast<int>(fleet_.size());
      std::vector<int> ordinals(static_cast<std::size_t>(width));
      for (int k = 0; k < width; ++k) {
        ordinals[static_cast<std::size_t>(k)] =
            (primary_ordinals.front() + width + k) % fleet;
      }
      const auto weights = placement_weights(ordinals);
      shard::ShardOptions opt;
      opt.split_2d_nnz = cfg_.shard_2d_nnz;
      auto replica = std::make_shared<const shard::ShardedMatrix>(
          *a, ordinals, weights, opt);
      std::lock_guard<std::mutex> lock(shard_mutex_);
      const auto it = shardings_.find(head.handle_a);
      if (it != shardings_.end() && it->second.primary && !it->second.replica) {
        it->second.replica = std::move(replica);
        it->second.replica_ordinals = std::move(ordinals);
      }
    }
  } else if (sharded_mode && head.kind != Request::Kind::kSpmv) {
    // Matrix ops span the whole fleet: shard::spadd/spgemm partition the
    // output rows across every slot by placement weight.
    lease.ordinals.resize(fleet_.size());
    for (std::size_t i = 0; i < fleet_.size(); ++i) {
      lease.ordinals[i] = static_cast<int>(i);
    }
    lease.weights = placement_weights(lease.ordinals);
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
  {
    const auto now = clock::now();
    std::size_t kept = 0;
    for (auto& r : batch.reqs) {
      if (r->expired(now)) {
        fail_request(*r, std::make_exception_ptr(RequestTimeoutError(
                             "serve: request timed out before execution "
                             "began")));
      } else {
        batch.reqs[kept++] = std::move(r);
      }
    }
    batch.reqs.resize(kept);
  }
  if (batch.reqs.empty()) return;

  if (batch.reqs.front()->kind != Request::Kind::kSpmv) {
    execute_matrix_op(*batch.reqs.front(), lease);
    return;
  }
  // Unsharded dispatch runs on the lease's single slot; sharded dispatch
  // (lease.sharded != null) fans out in src/shard/exec.cpp.
  vgpu::Device& device =
      *lease.devices[static_cast<std::size_t>(lease.ordinals.front())];
  // Run the batch under the head request's span: nested host-phase spans
  // and every kernel this worker launches inherit its trace id (the
  // correlation the Perfetto export surfaces).  The context is copied up
  // front — retries may prune the head request itself.
  telemetry::ContextScope trace_scope(batch.reqs.front()->span_ctx);
  const MatrixHandle handle = batch.reqs.front()->handle_a;
  // Roofline attribution: kernels launched below are billed to this
  // tenant/phase (shard exec refines shard + device).  Guarded so the
  // profiler-off path stays one relaxed atomic load.
  std::optional<telemetry::ProfAttrScope> prof_scope;
  if (telemetry::profiler().enabled()) {
    telemetry::ProfAttr attr;
    attr.tenant = handle;
    attr.phase = "serve.spmv";
    prof_scope.emplace(attr);
  }
  const std::shared_ptr<const sparse::CsrD> a_ref = batch.reqs.front()->a;
  const sparse::CsrD& a = *a_ref;
  const auto rows = static_cast<std::size_t>(a.num_rows);
  const auto cols = static_cast<std::size_t>(a.num_cols);

  std::size_t settled = 0;  ///< requests already counted as completed
  try {
    if (batch.reqs.size() == 1) {
      // Unbatched path: plan-cache hit amortizes the partition (and,
      // with autotuning on, the trial protocol).  Tuned execution is
      // bitwise-identical to the merge path — every candidate shares
      // the canonical accumulation order — so flipping MPS_AUTOTUNE can
      // change modeled cost only, never a result.  In degraded mode the
      // cache is bypassed entirely: one-shot spmv builds a transient
      // plan and frees it, trading amortization for a minimal resident
      // footprint (results stay bitwise-identical by construction).
      Request& head = *batch.reqs.front();
      std::vector<double> y(rows);
      double modeled = 0.0;
      double backoff_ms = 0.0;
      bool hit = false;
      // Rebuild from clean state: every placement's keys in the sharded
      // case, since which shard tripped is not recorded.
      const auto drop_and_retry = [&](int attempt) {
        if (lease.sharded) {
          invalidate_shard_plans(handle);
        } else {
          plan_cache_.invalidate(handle);
        }
        backoff_ms += prepare_retry(head, attempt);
      };
      telemetry::ScopedSpan exec_span("serve.execute");
      for (int attempt = 0;; ++attempt) {
        try {
          if (lease.sharded) {
            // Sharded dispatch: per-shard plans under shard_plan_key
            // share the one LRU budget; the request counts as a cache
            // hit only when EVERY shard hit.  Results are
            // bitwise-identical to the single-device paths below
            // (docs/sharding.md; tests/shard_test.cpp).
            const shard::ShardedMatrix& sm = *lease.sharded;
            if (degraded_.load(std::memory_order_relaxed)) {
              modeled = shard::spmv(sm, lease.devices, head.x, y).modeled_ms;
              hit = false;
            } else {
              const auto plans =
                  shard_plans(handle, sm, lease.devices, lease.replica, &hit);
              modeled = shard::spmv_tuned(sm, lease.devices, plans, head.x, y)
                            .modeled_ms;
            }
          } else if (degraded_.load(std::memory_order_relaxed)) {
            modeled = core::merge::spmv(device, a, head.x, y).modeled_ms();
            hit = false;
          } else {
            auto plan = plan_cache_.get_or_build(device, a, handle, &hit);
            modeled = plan->execute(device, a, head.x, y).modeled_ms();
          }
          break;
        } catch (const IntegrityError&) {
          drop_and_retry(attempt);
        } catch (const PlanMismatchError&) {
          // A stale entry (e.g. values re-registered between lookup and
          // execute) — drop it and rebuild.
          drop_and_retry(attempt);
        } catch (const vgpu::DeviceOomError&) {
          note_memory_pressure();
          backoff_ms += prepare_retry(head, attempt);
        }
      }
      exec_span.end();
      charge_modeled(modeled + backoff_ms);
      SpmvResult result;
      result.y = std::move(y);
      // Backoff is charged in modeled time — the client's bill includes
      // the waiting the policy imposed, not just the kernels.
      result.modeled_ms = modeled + backoff_ms;
      result.batch_size = 1;
      result.plan_cache_hit = hit;
      note_success(handle);
      settle_metrics(
          handle,
          std::chrono::duration<double, std::milli>(clock::now() - head.submitted)
              .count(),
          true);
      head.finish_span("ok");
      head.spmv_promise.set_value(std::move(result));
      return;
    }

    // Batched path: interleave the n request vectors into a row-major
    // X (cols x n) and run ONE spmm.  Column j of Y is bitwise-identical
    // to spmv of request j: spmm shares spmv's tile geometry and
    // accumulation order (tests/serve_test.cpp asserts it).  The block
    // is (re)assembled per attempt because a retry may have pruned
    // expired requests from the batch.
    std::vector<double> y_block;
    double modeled = 0.0;
    double backoff_ms = 0.0;
    for (int attempt = 0;; ++attempt) {
      const std::size_t n = batch.reqs.size();
      telemetry::ScopedSpan assemble_span("serve.batch_assemble");
      std::vector<double> x_block(cols * n);
      for (std::size_t j = 0; j < n; ++j) {
        const std::vector<double>& x = batch.reqs[j]->x;
        for (std::size_t c = 0; c < cols; ++c) x_block[c * n + j] = x[c];
      }
      assemble_span.end();
      y_block.assign(rows * n, 0.0);
      telemetry::ScopedSpan exec_span("serve.execute");
      try {
        if (lease.sharded) {
          // Sharded spmm: same column-j == spmv-of-request-j bitwise
          // contract — each shard runs the spmm kernel on its local rows.
          modeled = shard::spmm(*lease.sharded, lease.devices, x_block,
                                static_cast<index_t>(n), y_block)
                        .modeled_ms;
        } else {
          modeled = core::merge::spmm(device, a, x_block,
                                      static_cast<index_t>(n), y_block)
                        .modeled_ms;
        }
        exec_span.end();
        break;
      } catch (const vgpu::DeviceOomError&) {
        exec_span.end("oom");
        note_memory_pressure();
        backoff_ms += prepare_batch_retry(batch, attempt);
      } catch (const IntegrityError&) {
        exec_span.end("integrity");
        backoff_ms += prepare_batch_retry(batch, attempt);
      }
    }
    telemetry::ScopedSpan scatter_span("serve.batch_scatter");
    const std::size_t n = batch.reqs.size();
    charge_modeled(modeled + backoff_ms);
    note_success(handle);
    const auto now = clock::now();
    for (std::size_t j = 0; j < n; ++j) {
      Request& r = *batch.reqs[j];
      SpmvResult result;
      result.y.resize(rows);
      for (std::size_t i = 0; i < rows; ++i) result.y[i] = y_block[i * n + j];
      result.modeled_ms = (modeled + backoff_ms) / static_cast<double>(n);
      result.batch_size = static_cast<int>(n);
      settle_metrics(
          handle,
          std::chrono::duration<double, std::milli>(now - r.submitted).count(),
          true);
      r.finish_span("ok");
      r.spmv_promise.set_value(std::move(result));
      ++settled;
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

void Engine::execute_matrix_op(Request& req, Lease& lease) {
  telemetry::ContextScope trace_scope(req.span_ctx);
  std::optional<telemetry::ProfAttrScope> prof_scope;
  if (telemetry::profiler().enabled()) {
    telemetry::ProfAttr attr;
    attr.tenant = req.handle_a;
    attr.phase =
        req.kind == Request::Kind::kSpadd ? "serve.spadd" : "serve.spgemm";
    prof_scope.emplace(attr);
  }
  try {
    MatrixResult result;
    double backoff_ms = 0.0;
    telemetry::ScopedSpan exec_span("serve.execute");
    for (int attempt = 0;; ++attempt) {
      try {
        result.c = sparse::CsrD{};  // a failed attempt may leave partial rows
        if (lease.ordinals.size() > 1) {
          // Sharded mode: the op's output rows are partitioned across the
          // whole fleet by placement weight (src/shard/exec.cpp), results
          // bitwise-identical to the single-device kernels below.
          shard::ExecStats st;
          if (req.kind == Request::Kind::kSpadd) {
            st = shard::spadd(*req.a, *req.b, lease.devices, lease.ordinals,
                              lease.weights, result.c);
          } else {
            st = shard::spgemm(*req.a, *req.b, lease.devices, lease.ordinals,
                               lease.weights, result.c);
          }
          result.modeled_ms = st.modeled_ms;
        } else {
          vgpu::Device& device =
              *lease.devices[static_cast<std::size_t>(lease.ordinals.front())];
          if (req.kind == Request::Kind::kSpadd) {
            result.modeled_ms =
                core::merge::spadd_csr(device, *req.a, *req.b, result.c)
                    .modeled_ms;
          } else {
            result.modeled_ms =
                core::merge::spgemm(device, *req.a, *req.b, result.c)
                    .modeled_ms();
          }
        }
        break;
      } catch (const vgpu::DeviceOomError&) {
        note_memory_pressure();
        backoff_ms += prepare_retry(req, attempt);
      } catch (const IntegrityError&) {
        backoff_ms += prepare_retry(req, attempt);
      }
    }
    exec_span.end();
    result.modeled_ms += backoff_ms;
    charge_modeled(result.modeled_ms);
    note_success(req.handle_a);
    settle_metrics(
        req.handle_a,
        std::chrono::duration<double, std::milli>(clock::now() - req.submitted)
            .count(),
        true);
    req.finish_span("ok");
    req.matrix_promise.set_value(std::move(result));
  } catch (const vgpu::DeviceLostError&) {
    throw;  // nothing settled yet — safe to fail the device over and requeue
  } catch (...) {
    auto error = std::current_exception();
    note_execution_failure(req.handle_a, error);
    fail_request(req, error);
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

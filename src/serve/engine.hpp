#pragma once
// mps::serve::Engine — concurrent batched sparse-op serving
// (docs/serving.md).
//
// The library's kernels are one-shot: you hold a matrix, you call spmv.
// A service sees the transpose of that — a stream of independent
// requests, many of them hitting the same few matrices.  The engine
// turns the stream back into the shapes the kernels are fastest at:
//
//   * plan reuse across requests — registered matrices are keyed by
//     their pattern fingerprint; a capacity-bounded LRU PlanCache
//     (plan_cache.hpp) means repeated SpMV against a matrix never
//     re-runs the merge-path partition, no matter which client sent it
//     or how many requests a dispatch carries;
//   * request coalescing — the dispatcher drains the submission queue
//     and merges up to `batch_window` pending SpMV requests against the
//     same matrix into ONE block dispatch, SpMM (the row-split/SpMM
//     switch of Yang/Buluç/Owens, PAPERS.md), scattering per-column
//     results back to each request's future.  A lone request and a batch
//     take the same dispatch: the cached plan runs the block.  Batched
//     answers are bitwise-identical to one-at-a-time execution
//     (tests/serve_test.cpp): SpMM is the SpMV kernel over k vectors,
//     with the same tile geometry and accumulation order, so column j of
//     the batch reproduces request j's sum exactly;
//   * admission control — the submission queue is bounded.  try_submit_*
//     rejects instead of blocking; submit_* blocks for queue space up to
//     an admission deadline (then throws QueueFullError).  Queued
//     requests carry an optional per-request timeout: a request that
//     expires before dispatch fails its future with RequestTimeoutError
//     without running.  The dispatcher itself is gated on worker
//     capacity (at most one in-flight batch per worker), so under
//     sustained overload requests wait in the bounded queue — where
//     rejection and timeouts apply — rather than accumulating without
//     bound in the pool's task deque;
//   * fault handling — execution failures propagate through the future
//     as typed mps::Error.  IntegrityError, PlanMismatchError and
//     DeviceOomError get transparent retries under a configurable
//     RetryPolicy (retry_policy.hpp): bounded attempt budget,
//     exponential backoff with deterministic jitter charged into the
//     request's MODELED latency, and the request deadline re-checked
//     before every attempt (an expired request settles with
//     RequestTimeoutError instead of burning budget).  Every request
//     shape — a lone SpMV, a coalesced batch, an SpAdd/SpGEMM — runs
//     the same attempt loop; a lone request is a batch of one, and a
//     batch retries as a unit with its head's jitter salt, its backoff
//     split evenly over the requests like its kernel time;
//   * worker supervision — a DeviceLostError (chaos-injected device
//     loss, vgpu/chaos.hpp) quarantines the worker's Device, provisions
//     a fresh one in its slot, drops cached plans (they re-resident
//     lazily on the survivors), and requeues the in-flight batch —
//     bounded by max_failovers per batch, after which the batch settles
//     with the loss error.  No admitted request is ever abandoned;
//   * circuit breaking — a per-matrix-handle breaker
//     (circuit_breaker.hpp) trips open after N consecutive execution
//     failures; submissions against an open handle fail fast at
//     admission with CircuitOpenError until a half-open probe succeeds.
//     Timeouts and shedding never count against the breaker;
//   * graceful degradation — requests carry a Priority class; once the
//     queue crosses the shed watermark, kLow submissions are refused
//     with LoadShedError.  Memory pressure (any DeviceOomError) enters a
//     degraded mode that shrinks the plan-cache budget to a quarter and
//     serves SpMV plan-less (bitwise-identical — only the amortization
//     is lost) until `degrade_recovery` consecutive successes restore
//     it;
//   * graceful shutdown — shutdown(kDrain) completes everything already
//     admitted; shutdown(kReject) fails queued-but-unstarted requests
//     with ShutdownError.  Either way every admitted request's future is
//     settled — value or typed error, never abandoned;
//   * multi-device sharding — with `devices` > 0 the engine
//     runs a vgpu::DeviceSet fleet (possibly heterogeneous,
//     `device_spec`) instead of one device per worker.  Each
//     registered matrix large enough to shard (`shard_min_nnz`) is
//     partitioned into nnz-balanced row blocks on the merge-path
//     staircase, placed by the cost model in shard/placement.hpp over
//     the fleet ring starting at handle % fleet_size, and executed
//     shard-per-device with a modeled halo exchange (src/shard,
//     docs/sharding.md).  Results stay bitwise-identical to
//     single-device execution; a handle that draws more than
//     `shard_replicate_hot` of the sharded traffic gets a second
//     replica placement on the slots its primary leaves free (when the
//     model predicts it finishes as early) and requests route across
//     the two by salt parity.  Device loss quarantines only the lost slot — the
//     DeviceSet re-provisions it with identical properties, so the
//     shard layout keyed on slot ordinals stays valid.
//
// Execution runs on a private vgpu::ThreadPool (task mode, try_post);
// the dispatcher is a dedicated thread.  Workers lease devices from the
// fleet (all-or-nothing for a sharded matrix's ordinal set, which is
// also the per-shard in-flight gate: a device hosting a shard runs one
// shard kernel at a time).  Results are deterministic per request
// regardless of thread count, batching, or arrival order, because each
// request's arithmetic is fixed by the kernel geometry — the
// differential tests assert bitwise equality against direct kernel
// calls under every regime.

#include <atomic>
#include <chrono>
#include <condition_variable>
#include <cstdint>
#include <deque>
#include <functional>
#include <future>
#include <iosfwd>
#include <memory>
#include <mutex>
#include <optional>
#include <span>
#include <string>
#include <thread>
#include <unordered_map>
#include <vector>

#include "durability/durable_store.hpp"
#include "serve/circuit_breaker.hpp"
#include "serve/plan_cache.hpp"
#include "serve/retry_policy.hpp"
#include "serve/slo.hpp"
#include "shard/placement.hpp"
#include "shard/sharded_matrix.hpp"
#include "vgpu/chaos.hpp"
#include "sparse/csr.hpp"
#include "telemetry/span.hpp"
#include "util/error.hpp"
#include "util/stats.hpp"
#include "vgpu/device.hpp"
#include "vgpu/device_set.hpp"
#include "vgpu/thread_pool.hpp"

namespace mps::serve {

// Serving-layer members of the mps::Error taxonomy (util/error.hpp;
// they live here the way DeviceOomError lives in vgpu/memory_model.hpp).

/// Admission failed: the bounded submission queue stayed full past the
/// submit call's admission deadline.
class QueueFullError : public Error {
 public:
  explicit QueueFullError(const std::string& what) : Error(what) {}
};

/// The request's per-request timeout elapsed while it waited in the
/// queue; it was never executed.
class RequestTimeoutError : public Error {
 public:
  explicit RequestTimeoutError(const std::string& what) : Error(what) {}
};

/// The engine shut down (reject mode) before the request ran.
class ShutdownError : public Error {
 public:
  explicit ShutdownError(const std::string& what) : Error(what) {}
};

/// A low-priority submission was refused at admission because queue
/// depth crossed the shed watermark (graceful degradation under
/// overload).  The request never entered the queue; resubmit later or
/// at a higher priority.
class LoadShedError : public Error {
 public:
  explicit LoadShedError(const std::string& what) : Error(what) {}
};

/// Request priority class.  Shedding applies to kLow only: when queue
/// depth crosses `shed_watermark` x capacity, kLow submissions throw
/// LoadShedError while kNormal/kHigh continue to admit (up to the hard
/// queue capacity, which still applies to everyone).
enum class Priority { kHigh, kNormal, kLow };

/// Engine configuration (docs/serving.md has the field table).  This
/// struct is the engine's only configuration surface: every field holds
/// a plain value, the engine reads no environment variable of its own,
/// and construction range-checks every field — a value outside its
/// documented range raises InvalidInputError naming the field (mps_serve
/// feeds these from command-line flags).
struct EngineConfig {
  unsigned threads = 4;               ///< worker threads, [1, 1024]
  std::size_t queue_capacity = 1024;  ///< submission-queue capacity, >= 1
  /// Max same-matrix SpMV requests coalesced into one SpMM dispatch,
  /// [1, 4096]; 1 disables batching.
  int batch_window = 8;
  /// Plan-cache capacity in bytes, >= 1.
  std::size_t plan_cache_bytes = std::size_t{64} << 20;
  /// < 0: resolve from MPS_AUTOTUNE; 0: one-candidate plans (merge
  /// default, no trial); > 0: plans tune over every candidate (a batch
  /// runs a non-merge winner as one-shot merge SpMM).
  int autotune = -1;
  /// Default per-request queue-wait timeout; <= 0 means no timeout.
  std::chrono::milliseconds default_timeout{0};
  /// Construct with the dispatcher paused (tests build deterministic
  /// queue states, then resume()).
  bool start_paused = false;

  /// Retry budget + backoff for transient execution faults.
  RetryPolicy retry;
  /// Per-matrix circuit breaker.
  CircuitBreakerConfig breaker;
  /// Queue-depth fraction past which kLow submissions shed, >= 0;
  /// 0 disables shedding.
  double shed_watermark = 0.75;
  /// Device-loss failovers tolerated per batch before it settles with
  /// the loss error, [0, 2^20].
  int max_failovers = 8;
  /// Consecutive successes that exit degraded mode, [0, 2^30]; 0
  /// disables degraded mode.
  int degrade_recovery = 64;
  /// Chaos fault schedule armed on the fleet devices at construction
  /// (vgpu/chaos.hpp; build one with ChaosSchedule::parse or ::seeded).
  /// `chaos_enabled` = 0 leaves it unarmed — the chaos harness's
  /// fault-free reference leg.
  vgpu::ChaosSchedule chaos;
  int chaos_enabled = 1;

  /// Crash-consistent durability (docs/robustness.md).  With
  /// `durable_enabled` = 1 (which requires `durable_dir`) every
  /// registration is WAL-appended before it is acknowledged, the
  /// background snapshotter runs, and construction recovers whatever
  /// state the directory holds.
  std::string durable_dir;
  int durable_enabled = 0;
  /// WAL appends between background snapshots, [0, 2^30]; 0 disables
  /// the snapshotter (shutdown still writes a final snapshot).
  long long durable_snapshot_every = 64;
  /// 1: eagerly rebuild the snapshot's warm plan-cache entries during
  /// recovery (default 0 = lazy).
  int durable_warm = 0;
  /// 1: fsync the WAL after every append (default 0 — process-death
  /// durability needs no fsync).
  int durable_fsync = 0;

  /// Multi-device sharding (docs/sharding.md).
  /// Fleet size, [0, 256]; 0 = legacy single-device-per-worker mode.
  int devices = 0;
  /// Fleet heterogeneity spec ("fast*2,slow*2"); empty = all titan.
  std::string device_spec;
  /// Max shards per matrix, [1, 256].
  int shard_max = 8;
  /// Min nnz per shard — smaller matrices serve unsharded; [1, 2^40].
  long long shard_min_nnz = 2048;
  /// Placement policy: "weighted" (the launch-floor + bandwidth cost
  /// model of shard/placement.hpp picks each op's slots and diagonal
  /// spans) or "uniform" (consecutive slots, equal spans).
  std::string shard_placement = "weighted";
  /// Traffic share past which a sharded handle gets a second replica
  /// placement, [0, 1]; 0 disables replication.
  double shard_replicate_hot = 0.5;
  /// Rows with >= this many nonzeros split 2D across the fleet,
  /// [0, 2^40]; 0 = off (2D partials are deterministic but not bitwise,
  /// see docs/sharding.md).
  long long shard_2d_nnz = 0;
  /// Per-tenant SLO tracking (docs/observability.md): 1 scores every
  /// settled request against `slo` and accounts burn rates per handle
  /// (default 0 = off — settle paths pay nothing).
  int slo_enabled = 0;
  SloConfig slo;
};

/// Handle to a registered matrix: a fingerprint of the full sparsity
/// structure (dims, nnz, row offsets, column indices).  Registering a
/// matrix whose structure matches an existing registration returns the
/// same handle (and refreshes the stored values); matrices that differ
/// anywhere in their structure — including in column indices alone —
/// get distinct handles and distinct registry entries, so one tenant's
/// registration can never silently replace another's.  A re-registration
/// with the same pattern keeps the shard layout and every value-free plan
/// (register_matrix; docs/serving.md's invalidation rule).
using MatrixHandle = std::uint64_t;

struct SpmvResult {
  std::vector<double> y;
  double modeled_ms = 0.0;  ///< this request's share of kernel time
  int batch_size = 1;       ///< requests coalesced into the dispatch
  bool plan_cache_hit = false;
};

struct MatrixResult {
  sparse::CsrD c;
  double modeled_ms = 0.0;
};

/// Options for one submission.
struct SubmitOptions {
  /// How long submit_* may block waiting for queue space; <0 blocks
  /// indefinitely, 0 makes submit behave like try_submit.
  std::chrono::milliseconds admission_timeout{-1};
  /// Queue-wait budget for the request itself; 0 inherits the engine
  /// default, <0 disables.
  std::chrono::milliseconds request_timeout{0};
  /// Shedding class; kLow is refused (LoadShedError) past the watermark.
  Priority priority = Priority::kNormal;
};

/// Point-in-time engine statistics (stats()).
struct EngineStats {
  std::size_t queue_depth = 0;
  std::size_t peak_queue_depth = 0;
  std::size_t queue_capacity = 0;
  long long accepted = 0;
  long long rejected_full = 0;     ///< try_submit refusals + admission timeouts
  long long timed_out = 0;         ///< expired in queue (RequestTimeoutError)
  long long rejected_shutdown = 0; ///< failed with ShutdownError
  long long completed = 0;
  long long failed = 0;            ///< settled with a non-timeout error
  long long retries = 0;           ///< transparent IntegrityError/OOM retries
  long long shed = 0;              ///< kLow submissions refused (LoadShedError)
  long long failovers = 0;         ///< device-loss quarantine + re-provisions
  long long degraded_entered = 0;  ///< memory-pressure degraded-mode entries
  bool degraded = false;           ///< currently in degraded mode
  CircuitBreaker::Stats breaker;
  long long batches = 0;           ///< SpMM dispatches with >= 2 requests
  long long max_batch = 0;
  /// batch_histogram[k] = dispatches that coalesced exactly k requests
  /// (index 0 unused).
  std::vector<long long> batch_histogram;
  /// submit -> future-settled wall latency over the most recent
  /// Engine::kLatencyWindow completions (bounded reservoir, so a
  /// long-running engine neither grows without bound nor sorts an
  /// ever-larger sample per stats() call).
  util::Summary latency_ms;
  double latency_p50_ms = 0.0;
  double latency_p99_ms = 0.0;
  PlanCache::Stats plan_cache;
  /// Per-fleet-slot execution state — queue depth and in-flight are
  /// reported per device, not as one aggregate (the aggregates above
  /// remain for the whole engine).  One entry per fleet ordinal, in
  /// legacy mode one per worker.
  struct DeviceStats {
    std::string profile;     ///< spec profile name ("titan", "fast", ...)
    double weight = 0.0;     ///< placement weight (modeled bytes/ns)
    bool busy = false;       ///< currently leased to an executing batch
    std::size_t in_flight = 0;  ///< requests executing on this device now
    long long dispatched = 0;   ///< batches this slot has executed
    long long lost = 0;         ///< chaos losses (quarantine + replace)
    long long shards_hosted = 0;  ///< shard placements currently on slot
  };
  std::vector<DeviceStats> devices;
  /// Registered matrices currently sharded / hot-replicated.
  long long sharded_matrices = 0;
  long long replicated_matrices = 0;
  /// WAL/snapshot activity; all-zero (enabled == false) when the engine
  /// runs without a durable directory.
  struct DurabilityStats {
    bool enabled = false;
    long long wal_appends = 0;
    long long wal_bytes = 0;
    long long snapshots = 0;
    durability::RecoveryInfo recovery;
  } durability;
  /// Per-tenant SLO state (empty / enabled == false unless slo_enabled).
  struct SloStats {
    bool enabled = false;
    double latency_ms = 0.0;   ///< good/bad threshold
    double objective = 0.0;
    double burn_alert = 0.0;
    int short_window = 0;
    int long_window = 0;
    long long alerting_now = 0;  ///< tenants currently in alert
    std::vector<TenantSlo> tenants;
  } slo;
};

/// Why a handle dispatches the way it does (Engine::explain): which plan
/// entries are resident, what the autotuner saw and chose, and how the
/// matrix is sharded.  A pure read — no LRU touch, no metric bump, no
/// plan build.
struct PlanExplain {
  MatrixHandle handle = 0;
  bool registered = false;
  bool plan_resident = false;  ///< plan cached (unsharded key)
  /// Winning candidate name ("merge(128x7)", "ell", ...) of the unsharded
  /// entry, else of the first resident primary shard; empty when cold.
  std::string choice;
  double tune_ms = 0.0;    ///< one-time plan build + trial cost
  double steady_ms = 0.0;  ///< winner's modeled per-apply cost (0: no trial)
  std::size_t plan_bytes = 0;  ///< resident footprint of the entry
  /// The feature vector the autotuner extracted (zero with autotune off).
  autotune::Features features;
  /// Every candidate trialed, with its modeled time (empty with autotune
  /// off) — the full decision record, also logged as "autotune.trial"
  /// spans.
  std::vector<autotune::Trial> trials;
  bool sharded = false;
  bool replicated = false;
  int shards = 0;
  std::vector<int> shard_devices;  ///< primary placement ordinals
  /// The primary's cut weights, one per shard: ShardedMatrix(a,
  /// shard_devices, shard_weights) rebuilds the layout it serves.
  std::vector<double> shard_weights;
  /// Resident per-shard plan state, one entry per primary shard: the
  /// plan's choice name or "cold".
  std::vector<std::string> shard_plans;
};

class Engine {
 public:
  explicit Engine(EngineConfig cfg = {});
  /// Drains (kDrain) and stops.
  ~Engine();

  Engine(const Engine&) = delete;
  Engine& operator=(const Engine&) = delete;

  /// Recover a crash-consistent engine from `dir` (sugar for setting
  /// cfg.durable_dir + durable_enabled and constructing): loads the
  /// snapshot, replays the WAL tail, and continues serving — new
  /// registrations keep appending to the same log.  Raises RecoveryError
  /// when the directory's state is damaged beyond a torn final record.
  static std::unique_ptr<Engine> recover(const std::string& dir,
                                         EngineConfig cfg = {});

  /// Register a matrix for serving; see MatrixHandle for keying rules.
  /// The matrix is copied into the engine (requests may outlive the
  /// caller's storage).  With durability enabled the registration is
  /// appended to the WAL before this returns — an acknowledged handle
  /// survives any subsequent crash.  Re-registering a handle whose stored
  /// row offsets and columns are byte-equal to `a`'s keeps the shard
  /// layouts (re-gathering their values) and drops only the plans whose
  /// binds_values() is true.
  MatrixHandle register_matrix(const sparse::CsrD& a);

  /// True when `h` is registered (recovered or live).
  bool has_matrix(MatrixHandle h) const;
  /// Monotone per-handle registration counter (1 on first registration,
  /// bumped by every re-registration, durable across recovery); 0 for
  /// unknown handles.  The rails for the ROADMAP's mutable matrices.
  std::uint64_t matrix_version(MatrixHandle h) const;
  /// What recovery found at construction (attempted == false without a
  /// durable dir).
  const durability::RecoveryInfo& recovery_info() const { return recovery_info_; }
  /// Ops/test hook: synchronous snapshot + WAL truncation.  No-op
  /// without durability.
  void snapshot_now();

  /// y = A x.  Blocks for queue space up to opts.admission_timeout, then
  /// throws QueueFullError; throws ShutdownError synchronously once
  /// shutdown began; throws InvalidInputError for an unknown handle or
  /// mis-sized x; throws LoadShedError for a kLow request past the shed
  /// watermark and CircuitOpenError while the handle's breaker is open.
  /// All execution outcomes arrive through the future.
  std::future<SpmvResult> submit_spmv(MatrixHandle h, std::vector<double> x,
                                      const SubmitOptions& opts = {});
  /// Non-blocking admission: nullopt when the queue is full or the
  /// engine is shutting down.  Typed admission refusals that are not
  /// capacity (LoadShedError, CircuitOpenError, InvalidInputError)
  /// still propagate as exceptions — they tell the caller something a
  /// nullopt cannot.
  std::optional<std::future<SpmvResult>> try_submit_spmv(
      MatrixHandle h, std::vector<double> x, const SubmitOptions& opts = {});

  /// C = A + B (csrgeam pattern-union semantics).
  std::future<MatrixResult> submit_spadd(MatrixHandle a, MatrixHandle b,
                                         const SubmitOptions& opts = {});
  /// C = A x B.
  std::future<MatrixResult> submit_spgemm(MatrixHandle a, MatrixHandle b,
                                          const SubmitOptions& opts = {});

  /// Block until the queue is empty and no request is executing.
  void drain();

  enum class ShutdownMode {
    kDrain,   ///< run everything already admitted, then stop
    kReject,  ///< fail queued-but-unstarted requests with ShutdownError
  };
  /// Stop admission, settle every admitted request per `mode`, stop the
  /// workers.  Idempotent; later submits throw ShutdownError.
  void shutdown(ShutdownMode mode = ShutdownMode::kDrain);

  /// Test/ops hook: freeze and unfreeze dispatch (admission continues).
  void pause();
  void resume();

  EngineStats stats() const;
  unsigned num_workers() const { return num_workers_; }

  /// Plan-decision explainability for one handle (docs/observability.md):
  /// resident plan entries, the autotuner's features + per-candidate
  /// trial record, and the shard layout.  Read-only — never builds a
  /// plan, never touches LRU order or hit/miss counters.
  PlanExplain explain(MatrixHandle h) const;

  /// The shard layout the handle's SpMV serves (the hot replica's with
  /// `replica`); null when the handle serves unsharded or has no replica.
  /// Read-only, like explain().
  std::shared_ptr<const shard::ShardedMatrix> layout(
      MatrixHandle h, bool replica = false) const;

  /// Export the correlated Perfetto timeline: every request span recorded
  /// by the telemetry tracer (track "serve"), host phase spans, and each
  /// worker device's kernel log as its own track.  Call only while the
  /// engine is quiescent (after drain() or shutdown()); requires the
  /// tracer to have been enabled while requests ran.
  void write_trace(std::ostream& out) const;

  /// Size of the bounded latency reservoir behind EngineStats::latency_ms
  /// and the p50/p99 snapshot.
  static constexpr std::size_t kLatencyWindow = 4096;

 private:
  struct Request;
  struct Batch;

  /// One registered matrix's shard state (guarded by shard_mutex_).
  struct Sharding {
    std::shared_ptr<const shard::ShardedMatrix> primary;
    std::vector<int> primary_ordinals;
    /// Where a replica goes once the handle is hot, fixed with the
    /// primary; no ordinals when no placement on the slots the primary
    /// leaves free is predicted to finish as early as the primary.
    shard::Placement replica_placement;
    std::shared_ptr<const shard::ShardedMatrix> replica;  ///< null until hot
    long long requests = 0;  ///< sharded SpMV traffic against this handle
  };

  /// The device set a batch executes on: fleet ordinals held
  /// all-or-nothing, plus the shard layout (null for unsharded work).
  struct Lease {
    std::vector<int> ordinals;
    std::vector<vgpu::Device*> devices;  ///< indexed by fleet ordinal
    std::shared_ptr<const shard::ShardedMatrix> sharded;  ///< null = unsharded
    bool replica = false;  ///< which placement the plan keys name
    std::vector<double> weights;  ///< matrix-op placement ({1.0}: one slot)
  };

  void dispatcher_loop();
  void dispatch_batch(std::shared_ptr<Batch> batch);
  /// Settles `reqs` with ShutdownError(`why`); the rejected_shutdown
  /// counters move before any promise settles.
  void settle_shutdown(std::vector<std::unique_ptr<Request>>& reqs,
                       const char* why);
  /// Lease the batch's device set, run it, and on DeviceLostError /
  /// ShardLostError quarantine + re-provision the lost slot and requeue
  /// the batch (up to cfg_.max_failovers, then settle with the loss
  /// error).
  void execute_with_failover(Batch& batch);
  /// Resolve the batch's sharding (routing hot replicas by salt parity)
  /// and block until every required fleet ordinal is free, claiming them
  /// atomically — all-or-nothing, so overlapping leases cannot deadlock.
  Lease acquire_lease(Batch& batch);
  void release_lease(const Lease& lease);
  /// Runs the batch on the leased devices: an SpMV dispatch (a lone
  /// request or a coalesced block, one plan lookup either way) or an
  /// SpAdd/SpGEMM through shard::spadd / shard::spgemm on the lease's
  /// slots and weights (one slot: one block), each through run_attempts.
  /// DeviceLostError propagates to the failover loop (structurally, a
  /// loss can only fire before any request of the batch has settled —
  /// launches and reserves all precede the first set_value).
  void execute_batch(Batch& batch, Lease& lease);
  void handle_device_loss(std::size_t device_index);
  /// Shard + place a registered matrix and plan its replica placement
  /// (no-op when the fleet or matrix is too small, or the cost model
  /// picks one slot); rebuilds deterministically on re-registration.
  void build_sharding(MatrixHandle h, const sparse::CsrD& a);
  /// Same-pattern re-registration: publish copies of the handle's primary
  /// and replica layouts carrying `a`'s values.  Placement, row blocks
  /// and halo maps depend only on the pattern, so they are kept as is.
  void refresh_sharding(MatrixHandle h, const sparse::CsrD& a);
  /// Place an op of `cost` on at most `width` of `candidates` (fleet
  /// ordinals in preference order): the cost-model solver under
  /// "weighted" placement, the first `width` candidates at weight 1
  /// under "uniform".
  shard::Placement place(const std::vector<int>& candidates,
                         const shard::OpCost& cost, int width) const;
  /// Hot-handle accounting (call with shard_mutex_ held): bump the
  /// handle's sharded-request counter and report whether it just crossed
  /// the replication threshold — the caller builds the replica OUTSIDE
  /// the lock (lock order is registry before shard).
  bool note_sharded_request(MatrixHandle h, Sharding& s);
  /// Drop a handle's per-shard plan-cache entries (both placements);
  /// with `value_bound_only`, only those whose plan binds_values().
  void invalidate_shard_plans(MatrixHandle h, bool value_bound_only = false);
  /// Per-shard plans for `sm` (null where a shard has no nonzeros), each
  /// built on its shard's slot on a miss; `all_hit` (optional) reports
  /// whether every lookup hit.  A build-time device loss throws
  /// ShardLostError naming the slot.  Dispatch and warm recovery share it.
  std::vector<std::shared_ptr<const autotune::TunedPlan>> shard_plans(
      MatrixHandle h, const shard::ShardedMatrix& sm,
      std::span<vgpu::Device* const> devices, bool replica, bool* all_hit);
  /// Settle-time bookkeeping: engine counters, latency reservoir, and —
  /// when the SLO tracker is on — the tenant's burn-rate accounting
  /// (an alert edge notes the flight recorder and dumps a bundle).
  void settle_metrics(MatrixHandle h, double latency_ms, bool ok);
  /// Flight-recorder state provider: one JSON object of live engine
  /// state.  Best-effort and deadlock-free — every lock is try_lock
  /// (bundles dump from failure paths that may hold engine locks), and
  /// registry_mutex_/shard_mutex_ are never touched (the durable-crash
  /// points fire while the crashing thread holds them).
  void write_bundle_state(std::ostream& out) const;
  /// The one attempt loop for every request shape.  Each attempt runs
  /// `stage` (host-side input assembly; may be empty), then `body` under
  /// a "serve.execute" span; `body` returns the attempt's modeled ms.
  /// IntegrityError and PlanMismatchError call `drop_plans` (may be
  /// empty) and retry, DeviceOomError notes memory pressure and retries.
  /// On success the kernels plus the summed backoff are charged to the
  /// modeled clock and returned; anything else propagates.
  double run_attempts(Batch& batch, const std::function<void()>& stage,
                      const std::function<double()>& body,
                      const std::function<void()>& drop_plans);
  /// Called from a retry catch handler after `attempt` (0-based) failed;
  /// a lone request is a batch of one.  Rethrows when the budget is
  /// spent, settles requests that expired during the attempt with
  /// RequestTimeoutError (throwing one when none is left), counts the
  /// retry, and returns the modeled backoff to charge (the head's salt).
  double prepare_retry(Batch& batch, int attempt);
  /// Settles every expired request of `batch` with RequestTimeoutError
  /// (`why`) and drops it; returns whether any request is left.
  bool prune_expired(Batch& batch, const std::string& why);
  /// Typed failure settle: timeouts count as timed_out (span status
  /// "timeout"), everything else as failed.
  void fail_request(Request& r, const std::exception_ptr& e);
  /// Breaker bookkeeping for one failed execution (timeouts and device
  /// loss excluded — they say nothing about the matrix's health).
  void note_execution_failure(MatrixHandle h, const std::exception_ptr& e);
  /// Breaker close/probe-success + degraded-mode recovery tick.
  void note_success(MatrixHandle h);
  /// DeviceOomError observed: enter degraded mode (shrink the plan-cache
  /// budget; SpMV goes plan-less until recovery).
  void note_memory_pressure();
  /// Advance the modeled-time clock (breaker cooldowns key off it).
  void charge_modeled(double ms) {
    modeled_clock_us_.fetch_add(static_cast<long long>(ms * 1000.0),
                                std::memory_order_relaxed);
  }
  double modeled_now_ms() const {
    return static_cast<double>(
               modeled_clock_us_.load(std::memory_order_relaxed)) /
           1000.0;
  }
  /// The one enqueue step behind every submit: breaker fast-fail,
  /// request stamping (salt, span, deadline), kLow shedding past the
  /// watermark, queue-full accounting and the push.  Returns false when
  /// a non-blocking admission found the queue full; a blocking one
  /// throws QueueFullError instead.
  bool enqueue(std::unique_ptr<Request> req, const SubmitOptions& opts,
               bool blocking);
  /// Validates and enqueues an SpMV; nullopt when a non-blocking
  /// admission found the queue full.
  std::optional<std::future<SpmvResult>> admit_spmv(MatrixHandle h,
                                                    std::vector<double> x,
                                                    const SubmitOptions& opts,
                                                    bool blocking);
  std::future<MatrixResult> admit_matrix_op(bool gemm, MatrixHandle a,
                                            MatrixHandle b,
                                            const SubmitOptions& opts);
  bool admit_locked(std::unique_lock<std::mutex>& lock,
                    const SubmitOptions& opts, bool blocking);

  std::shared_ptr<const sparse::CsrD> lookup(MatrixHandle h) const;

  /// Consistent capture for the durable snapshotter: registry, versions,
  /// warm plan-cache metadata, and the WAL sequence they reflect, all
  /// read under registry_mutex_ (the lock every durable append holds).
  durability::SnapshotData capture_snapshot() const;
  /// Applies recovered state to the registry (validating each matrix
  /// against its recorded handle) and opens the store; optionally
  /// rebuilds warm plans eagerly.  Construction-time only.
  void init_durability();

  EngineConfig cfg_;
  unsigned num_workers_ = 0;

  // The fleet outlives the plan cache (declared first => destroyed
  // last): evicted plans release their accounted device memory on
  // destruction.  Legacy mode (cfg_.devices == 0) builds one titan slot
  // per worker — the exact pre-shard fleet.
  vgpu::DeviceSet fleet_;
  mutable std::mutex devices_mutex_;
  std::condition_variable devices_cv_;
  /// Per-slot lease + lifetime counters (guarded by devices_mutex_).
  struct SlotState {
    bool busy = false;
    std::size_t in_flight = 0;  ///< requests of the leasing batch
    long long dispatched = 0;
    long long lost = 0;
  };
  std::vector<SlotState> slots_;
  /// Devices lost to chaos and replaced by failover.  Kept alive (and
  /// declared before plan_cache_) because cached plans built on them
  /// release their accounted memory on destruction.
  std::vector<std::unique_ptr<vgpu::Device>> quarantined_;

  /// Shard layouts per registered handle (guarded by shard_mutex_;
  /// empty in legacy mode and for matrices below shard_min_nnz).
  mutable std::mutex shard_mutex_;
  std::unordered_map<MatrixHandle, Sharding> shardings_;
  long long sharded_requests_total_ = 0;  ///< guarded by shard_mutex_

  PlanCache plan_cache_;
  CircuitBreaker breaker_;
  /// Per-tenant SLO burn-rate accountant (null unless slo_enabled).
  std::unique_ptr<SloTracker> slo_;
  /// Flight-recorder state-provider registration (-1 = none).
  int flight_state_id_ = -1;
  std::size_t shed_threshold_ = 0;  ///< queue depth; 0 = shedding off
  std::atomic<bool> degraded_{false};
  std::atomic<int> degrade_successes_{0};
  std::atomic<long long> modeled_clock_us_{0};
  std::atomic<std::uint64_t> admit_seq_{0};  ///< retry-jitter salt source

  /// Serializes register_matrix (taken before registry_mutex_).
  std::mutex register_mutex_;
  mutable std::mutex registry_mutex_;
  std::unordered_map<MatrixHandle, std::shared_ptr<const sparse::CsrD>>
      registry_;
  /// Per-handle registration counters; guarded by registry_mutex_.
  std::unordered_map<MatrixHandle, std::uint64_t> versions_;

  /// WAL + snapshotter (null without a durable dir).  Declared after the
  /// registry: the snapshotter thread reads the registry via
  /// capture_snapshot, so it must be stopped (store destroyed) first.
  std::unique_ptr<durability::DurableStore> store_;
  durability::RecoveryInfo recovery_info_;

  // Submission queue + dispatcher state.
  mutable std::mutex queue_mutex_;
  std::condition_variable queue_cv_;   ///< dispatcher: work available
  std::condition_variable space_cv_;   ///< submitters: space available
  std::condition_variable idle_cv_;    ///< drain(): queue empty + idle
  std::deque<std::unique_ptr<Request>> queue_;
  std::size_t in_flight_ = 0;          ///< dispatched but not yet settled
  std::size_t in_flight_batches_ = 0;  ///< dispatch gate: <= num_workers_
  bool accepting_ = true;
  bool paused_ = false;
  bool reject_pending_ = false;  ///< shutdown(kReject): fail, don't run
  bool stop_dispatcher_ = false;
  bool shut_down_ = false;

  // Metrics (guarded by stats_mutex_).
  mutable std::mutex stats_mutex_;
  std::size_t peak_queue_depth_ = 0;
  long long accepted_ = 0;
  long long rejected_full_ = 0;
  long long timed_out_ = 0;
  long long rejected_shutdown_ = 0;
  long long completed_ = 0;
  long long failed_ = 0;
  long long retries_ = 0;
  long long shed_ = 0;
  long long failovers_ = 0;
  long long degraded_entered_ = 0;
  long long batches_ = 0;
  long long max_batch_ = 0;
  std::vector<long long> batch_histogram_;
  std::vector<double> latencies_ms_;  ///< ring of <= kLatencyWindow samples
  std::size_t latency_next_ = 0;      ///< ring cursor once the window is full

  vgpu::ThreadPool pool_;
  std::thread dispatcher_;
};

/// The structure fingerprint used for MatrixHandle keys: FNV-1a over the
/// row offsets AND column indices, mixed with dims and nnz.  A strict
/// refinement of the row-structure quantities SpmvPlan's execute-side
/// guard checks, so equal handles always satisfy the plan guard.
MatrixHandle pattern_fingerprint(const sparse::CsrD& a);

}  // namespace mps::serve

#pragma once
// mps::telemetry — roofline attribution profiler (docs/observability.md).
//
// The paper's central claim is that merge-path SpMV is bandwidth-bound
// regardless of sparsity structure.  The profiler makes that checkable
// at runtime: every modeled kernel launch records the bytes it moved,
// the flops it performed, and the achieved-vs-peak-bandwidth fraction of
// the device it ran on, attributed along five axes — device, phase, op
// (kernel name), tenant (serve MatrixHandle), and shard.  A per-batch
// imbalance detector flags sharded dispatches whose critical-path device
// sits more than a threshold above the fleet mean, naming the straggler
// shard.
//
// Attribution context travels in plain thread-local storage: the serving
// engine scopes the tenant and phase around execution, the shard
// executor scopes the shard index and device ordinal around each shard
// kernel.  Scoping is only done while the profiler is enabled, so the
// disabled path in vgpu::Device::launch is one relaxed atomic load — and
// the profiler never charges the modeled cost model in either state
// (bench/plan_reuse_spmv and bench/serve_throughput assert the bit-zero
// modeled-time delta, like the tracer and chaos contracts).
//
// Enable with profiler().enable(), or configure_from_env() which honors
// the strict-parsed knobs:
//   MPS_PROFILE                — 1 enables the profiler (default 0)
//   MPS_PROFILE_IMBALANCE_PCT  — flag a sharded batch when its critical-
//                                path device exceeds the mean per-device
//                                busy time by more than this percentage
//                                (default 50)
//   MPS_PROFILE_ROOFLINE_FRAC  — achieved-bandwidth fraction below which
//                                an op aggregate is reported as NOT
//                                bandwidth-bound (default 0.35)

#include <atomic>
#include <cstdint>
#include <iosfwd>
#include <map>
#include <mutex>
#include <span>
#include <string>
#include <utility>
#include <vector>

namespace mps::telemetry {

/// Thread-local attribution for kernel launches.  Unset axes stay at
/// their defaults (tenant 0, shard/device -1, empty phase).
struct ProfAttr {
  std::uint64_t tenant = 0;  ///< serve MatrixHandle; 0 = none
  int shard = -1;            ///< shard index within the dispatch; -1 = unsharded
  int device = -1;           ///< fleet ordinal; -1 = unassigned
  const char* phase = "";    ///< coarse stage ("serve.spmv", "shard.spmv", ...)
};

/// The calling thread's attribution context (mutable reference).
ProfAttr& current_prof_attr();

/// RAII: overlay `attr` onto the thread's attribution for the scope.
/// Near-free (two thread-local struct copies, no atomics, no locks);
/// call sites still guard on profiler().enabled() to keep the disabled
/// path untouched.
class ProfAttrScope {
 public:
  explicit ProfAttrScope(const ProfAttr& attr) : prev_(current_prof_attr()) {
    current_prof_attr() = attr;
  }
  ~ProfAttrScope() { current_prof_attr() = prev_; }
  ProfAttrScope(const ProfAttrScope&) = delete;
  ProfAttrScope& operator=(const ProfAttrScope&) = delete;

 private:
  ProfAttr prev_;
};

/// Roofline aggregate over one attribution bucket.
struct RooflineAgg {
  long long launches = 0;
  double bytes = 0.0;       ///< global + gathered traffic
  double flops = 0.0;
  double modeled_ms = 0.0;
  /// Bytes the device(s) could have moved at peak bandwidth in the same
  /// modeled time (modeled_ns x peak bytes/ns rounded to whole bytes,
  /// summed per launch, so the sum is exact in any order) — the
  /// denominator of the achieved fraction, correct across heterogeneous
  /// devices.
  double capacity_bytes = 0.0;

  /// Achieved-vs-peak-bandwidth fraction: 1.0 means every modeled cycle
  /// was a memory cycle at full bandwidth.
  double achieved_frac() const {
    return capacity_bytes > 0.0 ? bytes / capacity_bytes : 0.0;
  }
  /// Arithmetic intensity (flops per byte moved).
  double intensity() const { return bytes > 0.0 ? flops / bytes : 0.0; }

  RooflineAgg& operator+=(const RooflineAgg& o) {
    launches += o.launches;
    bytes += o.bytes;
    flops += o.flops;
    modeled_ms += o.modeled_ms;
    capacity_bytes += o.capacity_bytes;
    return *this;
  }
};

/// One shard's contribution to a sharded dispatch (imbalance input).
struct ShardSample {
  std::size_t shard = 0;
  int device = -1;
  double busy_ms = 0.0;  ///< halo + kernel time charged to the device
};

/// A flagged sharded dispatch: the critical-path device exceeded the
/// fleet mean by more than the threshold.  Names the straggler.
struct ImbalanceFlag {
  std::uint64_t tenant = 0;
  std::size_t straggler_shard = 0;  ///< heaviest shard on the straggler
  int straggler_device = -1;
  double straggler_ms = 0.0;  ///< the critical-path device's busy time
  double mean_ms = 0.0;       ///< mean busy over devices that did work
  double ratio = 0.0;         ///< straggler_ms / mean_ms
};

/// Snapshot of everything the profiler aggregated (report()).
struct ProfileReport {
  std::map<std::string, RooflineAgg> by_op;     ///< kernel name
  std::map<std::string, RooflineAgg> by_phase;  ///< ProfAttr::phase
  std::map<int, RooflineAgg> by_device;         ///< fleet ordinal (-1 = unassigned)
  std::map<std::uint64_t, RooflineAgg> by_tenant;
  std::map<std::pair<std::uint64_t, int>, RooflineAgg> by_shard;  ///< (tenant, shard)
  /// Ops whose aggregate achieved fraction fell below roofline_frac —
  /// "not bandwidth-bound" by the paper's criterion.
  std::vector<std::string> below_roofline;
  long long shard_batches = 0;  ///< sharded dispatches examined
  std::vector<ImbalanceFlag> imbalance_flags;  ///< bounded (most recent kept)
  long long imbalance_total = 0;  ///< flags raised (>= imbalance_flags.size())
  double imbalance_threshold_pct = 0.0;
  double roofline_frac = 0.0;
};

/// Process-wide roofline attribution collector.  Thread-safe; disabled
/// by default (record paths degenerate to one relaxed atomic load at the
/// call sites that guard on enabled()).
class Profiler {
 public:
  bool enabled() const { return enabled_.load(std::memory_order_relaxed); }
  void enable() { enabled_.store(true, std::memory_order_relaxed); }
  void disable() { enabled_.store(false, std::memory_order_relaxed); }
  /// Drop every aggregate and flag (thresholds are kept).
  void clear();

  /// Strict-parse the MPS_PROFILE_* knobs (garbage raises
  /// InvalidInputError naming the variable) and enable when MPS_PROFILE
  /// is 1.  Returns enabled().
  bool configure_from_env();

  void set_imbalance_threshold_pct(double pct);
  void set_roofline_frac(double frac);
  double imbalance_threshold_pct() const;
  double roofline_frac() const;

  /// Record one modeled kernel launch.  `bytes` is the kernel's summed
  /// global + gathered traffic, `peak_bytes_per_ns` the launching
  /// device's DeviceProperties::global_bytes_per_ns().  Attribution axes
  /// come from the calling thread's ProfAttr.  Never touches modeled
  /// time.
  void record_kernel(const std::string& name, double bytes, double flops,
                     double modeled_ms, double peak_bytes_per_ns);

  /// Examine one sharded dispatch's per-shard busy samples; raises an
  /// ImbalanceFlag when the critical-path device's summed busy time
  /// exceeds the mean over active devices by more than the threshold.
  /// Returns true when flagged.
  bool note_shard_batch(std::uint64_t tenant,
                        std::span<const ShardSample> samples);

  ProfileReport report() const;
  /// JSON snapshot of report() (self-contained object; embedded in
  /// flight-recorder debug bundles).
  void write_json(std::ostream& out) const;

 private:
  std::atomic<bool> enabled_{false};
  mutable std::mutex mutex_;
  std::map<std::string, RooflineAgg> by_op_;
  std::map<std::string, RooflineAgg> by_phase_;
  std::map<int, RooflineAgg> by_device_;
  std::map<std::uint64_t, RooflineAgg> by_tenant_;
  std::map<std::pair<std::uint64_t, int>, RooflineAgg> by_shard_;
  long long shard_batches_ = 0;
  long long imbalance_total_ = 0;
  std::vector<ImbalanceFlag> imbalance_flags_;  ///< ring of kMaxFlags
  std::size_t flag_next_ = 0;
  double imbalance_threshold_pct_ = 50.0;
  double roofline_frac_ = 0.35;

  static constexpr std::size_t kMaxFlags = 256;
};

/// The process-wide profiler.
Profiler& profiler();

}  // namespace mps::telemetry

#pragma once
// Merge-path SpMV (paper Section III-A).
//
// Parallelism is exposed at the granularity of individual nonzeros: every
// CTA is assigned exactly `tile` products regardless of row geometry.
// Three phases:
//
//   partition — one binary search per CTA locates the last row whose
//               offset precedes the CTA's first nonzero, stored in S;
//   reduction — each CTA loads its row-offset window into shared memory,
//               expands row indices, forms products, and runs a CTA-wide
//               segmented scan; complete rows are stored to y, the open
//               trailing row's partial sum goes to the carry buffer r;
//   update    — a segmented scan over r folds each CTA's carry into the
//               first row of the following CTA.  It runs as the reduction
//               launch's serialized last-CTA tail (vgpu::Device::launch),
//               so reduction + update are one launch and pay one launch
//               floor; SpmvStats::update_ms reports the tail's share.
//
// Empty rows: the fast path requires none (carry row ids would collide);
// when A has empty rows the kernel compacts the row offsets first (the
// "slightly slower method" the paper describes) and runs the same kernel
// on the compacted view.
//
// Iterative workloads (CG, PageRank, AMG smoothing, Markov evolution)
// apply the same sparsity pattern thousands of times, so the partition
// and compaction phases — which depend only on the row offsets and the
// CTA geometry — can be computed once and reused: build an `SpmvPlan`
// with `spmv_plan`, then call `spmv_execute` per iteration.  Execution
// through a plan runs only the reduction + update phases (one launch) and is
// bit-identical to one-shot `spmv` (the one-shot entry point itself runs
// through a transient plan).  A cheap pattern fingerprint
// (dims/nnz + row-offset checksum) rejects a mismatched matrix.

#include <cstdint>
#include <optional>
#include <span>
#include <vector>

#include "sparse/csr.hpp"
#include "vgpu/device.hpp"

namespace mps::core::merge {

struct SpmvConfig {
  int block_threads = 128;
  int items_per_thread = 7;  ///< statically tuned, paper Section III-A
  /// Force the empty-row compaction path even when not needed (testing).
  bool force_compaction = false;
  int tile() const { return block_threads * items_per_thread; }
};

struct SpmvStats {
  double partition_ms = 0.0;
  /// The reduce launch's modeled time, split: update_ms is its
  /// serialized carry-update tail, reduce_ms the rest (grid makespan plus
  /// the one launch floor).
  double reduce_ms = 0.0;
  double update_ms = 0.0;
  double compact_ms = 0.0;
  /// One-time setup cost (partition + compaction).  For one-shot spmv it
  /// equals partition_ms + compact_ms; for spmv_execute it reports the
  /// plan's build cost, which modeled_ms() deliberately excludes — the
  /// steady-state per-iteration cost is reduce_ms + update_ms.
  double plan_ms = 0.0;
  /// Modeled cost of integrity guards (resilience/integrity.hpp): plan
  /// state verification and output postcondition scans.  Exactly 0.0
  /// unless MPS_INTEGRITY_CHECK is set — the guarded path must cost
  /// nothing when guards are off (bench/plan_reuse_spmv.cpp asserts it).
  double integrity_ms = 0.0;
  bool used_compaction = false;
  /// True when the run reused an SpmvPlan: partition and compaction were
  /// not re-executed (their per-call stats above are zero).
  bool setup_amortized = false;
  int num_ctas = 0;
  double modeled_ms() const {
    return partition_ms + reduce_ms + update_ms + compact_ms + integrity_ms;
  }
  double wall_ms = 0.0;
};

/// y = A x.  `y` must hold A.num_rows elements (fully overwritten).
SpmvStats spmv(vgpu::Device& device, const sparse::CsrD& a,
               std::span<const double> x, std::span<double> y,
               const SpmvConfig& cfg = {});

/// Single-precision variant (the bandwidth-bound kernel runs ~2x faster
/// in fp32; the evaluation figures use fp64 as in the paper).
SpmvStats spmv(vgpu::Device& device, const sparse::CsrMatrix<float>& a,
               std::span<const float> x, std::span<float> y,
               const SpmvConfig& cfg = {});

namespace detail {
struct SpmvPlanAccess;
}

/// Reusable execution metadata for merge SpMV: everything that depends
/// only on A's sparsity pattern and the CTA geometry — the per-CTA
/// partition fences, the empty-row compacted view (when needed), and the
/// carry-buffer sizing.  Amortizes the setup phases across repeated
/// applications of the same pattern; the arrays stay pinned in
/// (accounted) device memory for the plan's lifetime.
class SpmvPlan {
 public:
  SpmvPlan() = default;
  SpmvPlan(SpmvPlan&&) = default;
  SpmvPlan& operator=(SpmvPlan&&) = default;
  SpmvPlan(const SpmvPlan&) = delete;
  SpmvPlan& operator=(const SpmvPlan&) = delete;

  bool valid() const { return num_ctas_ >= 0; }
  int num_ctas() const { return num_ctas_; }
  bool used_compaction() const { return used_compaction_; }
  /// Modeled cost of the phases the plan ran at build time.
  double partition_ms() const { return partition_ms_; }
  double compact_ms() const { return compact_ms_; }
  /// Total one-time build cost (partition + compaction) — the work every
  /// spmv_execute call amortizes away.
  double plan_ms() const { return partition_ms_ + compact_ms_; }
  /// sizeof the value type the plan was built for (4 or 8).
  std::size_t value_bytes() const { return value_bytes_; }
  /// Exact heap footprint of the plan's arrays: the per-CTA partition
  /// fences plus the empty-row compacted view.  This is what a cached
  /// plan actually holds resident between executes — the serving engine's
  /// plan cache (src/serve/plan_cache.hpp) charges entries by it.
  std::size_t bytes() const {
    return (s_bounds_.capacity() + compact_offsets_.capacity() +
            compact_row_ids_.capacity()) *
           sizeof(index_t);
  }
  /// Accounted device footprint held until the plan is destroyed.
  std::size_t device_bytes() const {
    return device_mem_ ? device_mem_->bytes() : 0;
  }

 private:
  friend struct detail::SpmvPlanAccess;

  SpmvConfig cfg_;
  int num_ctas_ = -1;
  bool used_compaction_ = false;
  std::size_t value_bytes_ = 0;
  // Pattern fingerprint checked by spmv_execute.
  index_t num_rows_ = 0;
  index_t num_cols_ = 0;
  index_t nnz_ = 0;
  std::uint64_t offsets_fingerprint_ = 0;
  /// Checksum over the plan's own arrays (s_bounds_ + compacted view),
  /// taken at build time *before* the pin registration exposes them to
  /// the fault layer.  spmv_execute re-verifies it under
  /// MPS_INTEGRITY_CHECK and raises IntegrityError on drift, so a bit
  /// flip landing in pinned plan state is detected instead of silently
  /// misrouting rows.
  std::uint64_t state_checksum_ = 0;
  double partition_ms_ = 0.0;
  double compact_ms_ = 0.0;
  std::vector<index_t> s_bounds_;         ///< per-CTA row fences, num_ctas + 1
  std::vector<index_t> compact_offsets_;  ///< nonempty-row view (compaction only)
  std::vector<index_t> compact_row_ids_;  ///< original row per compacted row
  std::optional<vgpu::ScopedDeviceAlloc> device_mem_;
};

/// Run the partition search (and empty-row compaction when needed) once
/// for A's pattern and pin the results.  The plan is tied to A's sparsity
/// pattern, the config's CTA geometry, and the value type of `a`.
SpmvPlan spmv_plan(vgpu::Device& device, const sparse::CsrD& a,
                   const SpmvConfig& cfg = {});
SpmvPlan spmv_plan(vgpu::Device& device, const sparse::CsrMatrix<float>& a,
                   const SpmvConfig& cfg = {});

/// y = A x through a prebuilt plan: only the reduction + update phases
/// run, as one launch.  A must match the plan's pattern fingerprint (dims, nnz,
/// row-offset checksum) — values may differ freely; a mismatch throws
/// std::logic_error instead of computing garbage.  Output is bit-identical
/// to one-shot spmv with the plan's config.
SpmvStats spmv_execute(vgpu::Device& device, const sparse::CsrD& a,
                       std::span<const double> x, std::span<double> y,
                       const SpmvPlan& plan);
SpmvStats spmv_execute(vgpu::Device& device, const sparse::CsrMatrix<float>& a,
                       std::span<const float> x, std::span<float> y,
                       const SpmvPlan& plan);

}  // namespace mps::core::merge

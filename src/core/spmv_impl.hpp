#pragma once
// Templated implementation of merge-path SpMV (see spmv.hpp for the
// algorithm description).  Instantiated for double and float in spmv.cpp.
//
// The implementation is split along the plan/execute seam: plan building
// runs the pattern-only phases (empty-row compaction, CTA partition) and
// execution runs the value phases (reduction, carry update).  Planned and
// one-shot SpMV share one reduce launch (reduce_launch below); they differ
// only in where each CTA gets its row fences — the plan's pinned array, or
// two binary searches the CTA runs itself inside the launch.

#include <vector>

#include "core/spmv.hpp"
#include "primitives/search.hpp"
#include "resilience/integrity.hpp"
#include "sparse/validate.hpp"
#include "telemetry/span.hpp"
#include "util/error.hpp"
#include "util/timer.hpp"

namespace mps::core::merge {

namespace detail {

inline namespace spmv_detail {

/// Row offsets restricted to nonempty rows plus the original row id of
/// each compacted row.
struct CompactView {
  std::vector<index_t> offsets;  ///< strictly increasing, size rows+1
  std::vector<index_t> row_ids;  ///< original row per compacted row
};

template <typename V>
CompactView compact_offsets(const sparse::CsrMatrix<V>& a) {
  CompactView v;
  v.offsets.reserve(static_cast<std::size_t>(a.num_rows) + 1);
  v.row_ids.reserve(static_cast<std::size_t>(a.num_rows));
  v.offsets.push_back(0);
  for (index_t r = 0; r < a.num_rows; ++r) {
    if (a.row_length(r) > 0) {
      v.offsets.push_back(a.row_offsets[static_cast<std::size_t>(r) + 1]);
      v.row_ids.push_back(r);
    }
  }
  return v;
}

/// FNV-1a over the row offsets, one step per 32-bit offset: the cheap
/// O(num_rows) pattern checksum spmv_execute re-evaluates to reject a
/// drifted matrix.  Word steps, not resilience::checksum_bytes' byte
/// steps: this runs on every execute, and a byte-wise hash is four
/// serial multiplies per row.
inline std::uint64_t offsets_fingerprint(std::span<const index_t> offsets) {
  std::uint64_t h = resilience::kChecksumSeed;
  for (const index_t v : offsets) {
    h ^= static_cast<std::uint64_t>(static_cast<std::uint32_t>(v));
    h *= 1099511628211ull;
  }
  return h;
}

/// The streaming pass over the offsets array that builds the compacted
/// view (the view itself is computed on the host by compact_offsets).
/// Returns its modeled ms.
template <typename V>
double compact_launch(vgpu::Device& device, const sparse::CsrMatrix<V>& a,
                      const SpmvConfig& cfg) {
  return device
      .launch("merge.spmv_compact", std::max(1, a.num_rows / 2048 + 1),
              cfg.block_threads,
              [&](vgpu::Cta& cta) {
                const std::size_t rows_per_cta = 2048;
                const std::size_t lo =
                    static_cast<std::size_t>(cta.cta_id()) * rows_per_cta;
                const std::size_t hi = std::min(
                    static_cast<std::size_t>(a.num_rows), lo + rows_per_cta);
                if (lo >= hi) return;
                cta.charge_global((hi - lo) * 3 * sizeof(index_t));
                cta.charge_alu_uniform(hi - lo);
              })
      .modeled_ms;
}

/// The fused reduction + carry-update launch (`merge.spmv_reduce`) shared
/// by planned and one-shot SpMV.  `offsets` are the segment offsets (A's
/// own, or the compacted view whose original row ids are `row_ids`;
/// empty `row_ids` means identity).  `s_bounds` holds a plan's per-CTA
/// row fences; when it is empty each CTA finds its own two fences with
/// binary searches over `offsets` — the paper's partition phase run
/// inside the reduce launch, charged to the searching CTA.  Writes the
/// reduce and update shares of the launch into `stats`; y must already
/// be zeroed.
template <typename V>
void reduce_launch(vgpu::Device& device, const sparse::CsrMatrix<V>& a,
                   std::span<const V> x, std::span<V> y, const SpmvConfig& cfg,
                   int num_ctas, std::span<const index_t> offsets,
                   std::span<const index_t> row_ids,
                   std::span<const index_t> s_bounds, SpmvStats& stats) {
  const std::size_t nnz = static_cast<std::size_t>(a.nnz());
  const index_t num_seg_rows = static_cast<index_t>(offsets.size()) - 1;
  const std::span<const index_t> seg_starts =
      offsets.subspan(0, static_cast<std::size_t>(num_seg_rows));
  const std::size_t tile = static_cast<std::size_t>(cfg.tile());

  // Carries: the open trailing row of each CTA (original row id, partial
  // sum).  The inter-CTA carry update runs as the launch's serialized
  // tail (the last CTA to finish folds the carries), so the whole
  // reduction + update is a single launch.
  std::vector<index_t> carry_row(static_cast<std::size_t>(num_ctas), -1);
  std::vector<V> carry_val(static_cast<std::size_t>(num_ctas), V{});
  const auto s = device.launch(
      "merge.spmv_reduce", num_ctas, cfg.block_threads, [&](vgpu::Cta& cta) {
        const std::size_t cta_id = static_cast<std::size_t>(cta.cta_id());
        const std::size_t p_lo = cta_id * tile;
        const std::size_t p_hi = std::min(nnz, p_lo + tile);
        index_t row_lo = 0;
        index_t row_hi = 0;
        if (s_bounds.empty()) {
          // Fence i = last segment whose offset <= min(i * tile, nnz),
          // exactly what a plan's partition launch stores.
          row_lo = static_cast<index_t>(primitives::segment_of(
              seg_starts, static_cast<index_t>(p_lo)));
          row_hi = static_cast<index_t>(primitives::segment_of(
              seg_starts, static_cast<index_t>(p_hi)));
          cta.charge_binary_search(static_cast<std::size_t>(num_seg_rows));
          cta.charge_binary_search(static_cast<std::size_t>(num_seg_rows));
        } else {
          row_lo = s_bounds[cta_id];
          row_hi = s_bounds[cta_id + 1];
        }

        // Row-offset window staged through shared memory.
        auto shm_offsets = cta.shm().alloc<index_t>(
            static_cast<std::size_t>(row_hi - row_lo) + 2);
        (void)shm_offsets;
        cta.charge_global((static_cast<std::size_t>(row_hi - row_lo) + 2) *
                          sizeof(index_t));

        // Strided loads of column indices and values, x gathers,
        // blocked transpose, and the CTA-wide segmented scan.
        cta.charge_global((p_hi - p_lo) * (sizeof(index_t) + sizeof(V)));
        cta.charge_gather(p_hi - p_lo);
        cta.charge_shared_elems(3 * (p_hi - p_lo));
        cta.charge_alu_uniform(2 * (p_hi - p_lo));
        cta.charge_flops(2 * (p_hi - p_lo));  // one multiply-add per nnz
        cta.charge_sync();
        cta.charge_sync();

        // Functional reduction: walk rows covering [p_lo, p_hi).
        for (index_t r = row_lo; r <= row_hi && r < num_seg_rows; ++r) {
          const std::size_t seg_lo = std::max(
              p_lo, static_cast<std::size_t>(offsets[static_cast<std::size_t>(r)]));
          const std::size_t seg_hi = std::min(
              p_hi,
              static_cast<std::size_t>(offsets[static_cast<std::size_t>(r) + 1]));
          if (seg_lo >= seg_hi) continue;
          V acc{};
          for (std::size_t k = seg_lo; k < seg_hi; ++k) {
            acc += a.val[k] * x[static_cast<std::size_t>(a.col[k])];
          }
          const bool row_ends_here =
              static_cast<std::size_t>(
                  offsets[static_cast<std::size_t>(r) + 1]) <= p_hi;
          const index_t out_row =
              row_ids.empty() ? r : row_ids[static_cast<std::size_t>(r)];
          if (row_ends_here) {
            y[static_cast<std::size_t>(out_row)] += acc;
            cta.charge_global(sizeof(V));
          } else {
            carry_row[cta_id] = out_row;
            carry_val[cta_id] = acc;
            cta.charge_global(sizeof(V) + sizeof(index_t));
          }
        }
      },
      [&](vgpu::Cta& cta) {
        // Canonical accumulation order: a CTA-spanning row received its
        // final segment in the reduce phase and its earlier segments as
        // carries, an addition order that depends on the tile geometry.
        // The fixup instead rebuilds each spanning row (exactly the rows
        // with carry records) with one ascending-k accumulation, so merge
        // output is bitwise identical to the sequential reference for
        // every tile config — the contract the autotuner's differential
        // oracle relies on.  The modeled cost is the carry fold the GPU
        // kernel performs (docs/cost_model.md, "Launch tails", says why
        // the host-side rebuild is not charged).
        index_t prev = -1;
        for (int i = 0; i < num_ctas; ++i) {
          const index_t r = carry_row[static_cast<std::size_t>(i)];
          if (r < 0 || r == prev) continue;
          prev = r;
          V acc{};
          for (index_t k = a.row_offsets[static_cast<std::size_t>(r)];
               k < a.row_offsets[static_cast<std::size_t>(r) + 1]; ++k) {
            acc += a.val[static_cast<std::size_t>(k)] *
                   x[static_cast<std::size_t>(a.col[static_cast<std::size_t>(k)])];
          }
          cta.charge_flops(2 * static_cast<std::size_t>(a.row_length(r)));
          y[static_cast<std::size_t>(r)] = acc;
        }
        cta.charge_global(static_cast<std::size_t>(num_ctas) *
                          (sizeof(index_t) + sizeof(V)));
        cta.charge_shared_elems(static_cast<std::size_t>(num_ctas));
        cta.charge_alu_uniform(static_cast<std::size_t>(num_ctas));
      });
  stats.reduce_ms = s.modeled_ms - s.tail_ms;
  stats.update_ms = s.tail_ms;
}

}  // namespace

/// Friend gateway into SpmvPlan's private state for the templated
/// build/execute implementations.
struct SpmvPlanAccess {
  /// Checksum over every array the plan owns; chained so a flip in any of
  /// them changes the result.
  static std::uint64_t state_checksum(const SpmvPlan& plan) {
    std::uint64_t h = resilience::checksum_span(
        std::span<const index_t>(plan.s_bounds_));
    h = resilience::checksum_span(
        std::span<const index_t>(plan.compact_offsets_), h);
    return resilience::checksum_span(
        std::span<const index_t>(plan.compact_row_ids_), h);
  }

  template <typename V>
  static SpmvPlan build(vgpu::Device& device, const sparse::CsrMatrix<V>& a,
                        const SpmvConfig& cfg) {
    telemetry::ScopedSpan span("spmv.plan_build");
    if (sparse::strict_validation()) sparse::validate_csr(a, "spmv: A");
    SpmvPlan plan;
    plan.cfg_ = cfg;
    plan.value_bytes_ = sizeof(V);
    plan.num_rows_ = a.num_rows;
    plan.num_cols_ = a.num_cols;
    plan.nnz_ = a.nnz();
    plan.offsets_fingerprint_ = offsets_fingerprint(a.row_offsets);
    const std::size_t nnz = static_cast<std::size_t>(a.nnz());
    if (nnz == 0) {
      plan.num_ctas_ = 0;  // valid; execute only clears y
      plan.state_checksum_ = state_checksum(plan);
      return plan;
    }

    // --- Empty-row detection / compaction (paper's adaptive switch) -----
    plan.used_compaction_ = cfg.force_compaction || a.has_empty_rows();
    if (plan.used_compaction_) {
      auto compact = compact_offsets(a);
      plan.compact_offsets_ = std::move(compact.offsets);
      plan.compact_row_ids_ = std::move(compact.row_ids);
      plan.compact_ms_ = compact_launch(device, a, cfg);
    }
    const std::span<const index_t> offsets =
        plan.used_compaction_ ? std::span<const index_t>(plan.compact_offsets_)
                              : std::span<const index_t>(a.row_offsets);
    const index_t num_seg_rows = static_cast<index_t>(offsets.size()) - 1;

    const std::size_t tile = static_cast<std::size_t>(cfg.tile());
    const int num_ctas = static_cast<int>(ceil_div(nnz, tile));
    plan.num_ctas_ = num_ctas;

    // --- Partition ------------------------------------------------------
    // S[i] = last row whose offset <= i * tile.
    plan.s_bounds_.assign(static_cast<std::size_t>(num_ctas) + 1, 0);
    auto& s_bounds = plan.s_bounds_;
    {
      const int fences = num_ctas + 1;
      const int part_ctas = static_cast<int>(
          ceil_div(static_cast<std::size_t>(fences),
                   static_cast<std::size_t>(cfg.block_threads)));
      const auto s = device.launch(
          "merge.spmv_partition", part_ctas, cfg.block_threads,
          [&](vgpu::Cta& cta) {
            const std::size_t lo = static_cast<std::size_t>(cta.cta_id()) *
                                   static_cast<std::size_t>(cfg.block_threads);
            const std::size_t hi =
                std::min(static_cast<std::size_t>(fences),
                         lo + static_cast<std::size_t>(cfg.block_threads));
            for (std::size_t f = lo; f < hi; ++f) {
              const index_t target = static_cast<index_t>(std::min(f * tile, nnz));
              s_bounds[f] = static_cast<index_t>(primitives::segment_of(
                  offsets.subspan(0, static_cast<std::size_t>(num_seg_rows)),
                  target));
              cta.charge_binary_search(static_cast<std::size_t>(num_seg_rows));
            }
            cta.charge_global((hi - lo) * sizeof(index_t));
          });
      plan.partition_ms_ = s.modeled_ms;
    }

    // Checksum the plan's state *before* the pin below registers it with
    // the fault layer: a bit flip landing at pin time is then caught by
    // the execute-side verification instead of being baked in.
    plan.state_checksum_ = state_checksum(plan);

    // Pin the plan's arrays for its lifetime: partition fences, the
    // compacted view, and the carry buffer every execute reuses.  The
    // partition-fence storage is passed as the live window so armed
    // bit-flip faults land in real plan state (and only there — the rest
    // of the pinned byte total has no single contiguous backing array).
    const std::size_t pinned_bytes =
        (plan.s_bounds_.size() + plan.compact_offsets_.size() +
         plan.compact_row_ids_.size()) *
            sizeof(index_t) +
        static_cast<std::size_t>(num_ctas) * (sizeof(index_t) + sizeof(V));
    plan.device_mem_.emplace(device.memory(), pinned_bytes,
                             plan.s_bounds_.data(),
                             plan.s_bounds_.size() * sizeof(index_t));
    return plan;
  }

  template <typename V>
  static SpmvStats execute(vgpu::Device& device, const sparse::CsrMatrix<V>& a,
                           std::span<const V> x, std::span<V> y,
                           const SpmvPlan& plan) {
    if (!plan.valid()) {
      throw PlanMismatchError("spmv_execute requires a built plan");
    }
    if (plan.value_bytes_ != sizeof(V)) {
      throw PlanMismatchError("plan was built for a different value precision");
    }
    MPS_CHECK(x.size() >= static_cast<std::size_t>(a.num_cols));
    MPS_CHECK(y.size() >= static_cast<std::size_t>(a.num_rows));
    // Pattern-fingerprint guard: values may change between executes, the
    // structure may not.
    if (plan.num_rows_ != a.num_rows || plan.num_cols_ != a.num_cols ||
        plan.nnz_ != a.nnz() ||
        plan.offsets_fingerprint_ != offsets_fingerprint(a.row_offsets)) {
      throw PlanMismatchError("matrix pattern does not match the plan");
    }
    telemetry::ScopedSpan span("spmv.execute");
    util::WallTimer wall;
    SpmvStats stats;
    stats.setup_amortized = true;
    stats.plan_ms = plan.plan_ms();
    stats.used_compaction = plan.used_compaction_;
    stats.num_ctas = plan.num_ctas_;
    // Integrity guard (resilience/integrity.hpp): re-verify the plan's own
    // arrays against the build-time checksum before touching y, so a bit
    // flip in pinned plan state raises IntegrityError with the output
    // untouched.  Guards off ⇒ one getenv and a branch; no launches.
    const bool guards = resilience::integrity_checks_enabled();
    if (guards) {
      stats.integrity_ms += resilience::charge_guard_scan(
          device, (plan.s_bounds_.size() + plan.compact_offsets_.size() +
                   plan.compact_row_ids_.size()) *
                      sizeof(index_t));
      if (state_checksum(plan) != plan.state_checksum_) {
        resilience::integrity_failed(
            "spmv plan state drifted from its build-time checksum "
            "(rebuild the plan)");
      }
    }
    std::fill(y.begin(), y.begin() + a.num_rows, V{});
    const std::size_t nnz = static_cast<std::size_t>(a.nnz());
    if (nnz == 0) {
      stats.wall_ms = wall.milliseconds();
      return stats;
    }

    const std::span<const index_t> offsets =
        plan.used_compaction_ ? std::span<const index_t>(plan.compact_offsets_)
                              : std::span<const index_t>(a.row_offsets);
    reduce_launch<V>(device, a, x, y, plan.cfg_, plan.num_ctas_, offsets,
                     plan.compact_row_ids_, plan.s_bounds_, stats);
    // Output postcondition: y finite.  By this point y is written, so a
    // failure reports corrupted output rather than preserving it — that
    // is the guard's job (never return silently wrong data).
    if (guards) {
      stats.integrity_ms += resilience::check_finite(
          device,
          std::span<const V>(y.data(), static_cast<std::size_t>(a.num_rows)),
          "merge.spmv: y");
    }
    stats.wall_ms = wall.milliseconds();
    return stats;
  }
};

/// One-shot SpMV: no plan.  The compaction pass runs first when A has
/// empty rows (or the config forces it), then one fused reduce launch in
/// which every CTA finds its own row fences.  One launch on the fast path,
/// two with compaction.
template <typename V>
SpmvStats spmv_impl(vgpu::Device& device, const sparse::CsrMatrix<V>& a,
                    std::span<const V> x, std::span<V> y, const SpmvConfig& cfg) {
  MPS_CHECK(x.size() >= static_cast<std::size_t>(a.num_cols));
  MPS_CHECK(y.size() >= static_cast<std::size_t>(a.num_rows));
  telemetry::ScopedSpan span("spmv.execute");
  if (sparse::strict_validation()) sparse::validate_csr(a, "spmv: A");
  util::WallTimer wall;
  SpmvStats stats;
  const std::size_t nnz = static_cast<std::size_t>(a.nnz());
  if (nnz == 0) {
    std::fill(y.begin(), y.begin() + a.num_rows, V{});
    stats.wall_ms = wall.milliseconds();
    return stats;
  }
  const int num_ctas =
      static_cast<int>(ceil_div(nnz, static_cast<std::size_t>(cfg.tile())));
  stats.num_ctas = num_ctas;
  stats.used_compaction = cfg.force_compaction || a.has_empty_rows();
  CompactView compact;
  if (stats.used_compaction) compact = compact_offsets(a);
  // The compacted view and the carry buffer are allocated (and
  // accounted) before y is touched, so an allocation failure leaves the
  // caller's output unmodified.
  const vgpu::ScopedDeviceAlloc device_mem(
      device.memory(),
      (compact.offsets.size() + compact.row_ids.size()) * sizeof(index_t) +
          static_cast<std::size_t>(num_ctas) * (sizeof(index_t) + sizeof(V)));
  if (stats.used_compaction) {
    stats.compact_ms = compact_launch(device, a, cfg);
  }
  stats.plan_ms = stats.compact_ms;
  std::fill(y.begin(), y.begin() + a.num_rows, V{});
  const std::span<const index_t> offsets =
      stats.used_compaction ? std::span<const index_t>(compact.offsets)
                            : std::span<const index_t>(a.row_offsets);
  reduce_launch<V>(device, a, x, y, cfg, num_ctas, offsets, compact.row_ids,
                   {}, stats);
  if (resilience::integrity_checks_enabled()) {
    stats.integrity_ms += resilience::check_finite(
        device,
        std::span<const V>(y.data(), static_cast<std::size_t>(a.num_rows)),
        "merge.spmv: y");
  }
  stats.wall_ms = wall.milliseconds();
  return stats;
}

}  // namespace detail

}  // namespace mps::core::merge

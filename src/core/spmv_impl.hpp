#pragma once
// Templated implementation of merge-path SpMV, and of SpMM as SpMV over k
// vectors (see spmv.hpp).  Instantiated for double and float in spmv.cpp.
//
// The implementation is split along the plan/execute seam: plan building
// runs the pattern-only phases (empty-row compaction, CTA partition) and
// execution runs the value phases (reduction, carry update).  Planned and
// one-shot runs share one reduce launch (reduce_kernel below); they differ
// only in where each CTA gets its row fences — the plan's pinned array, or
// two binary searches the CTA runs itself inside the launch.

#include <optional>
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

/// dst[0..B) = the products of nonzeros [lo, hi) with B adjacent columns
/// of the row-major block X (k vectors wide; `x` points at the first of
/// the B columns in X's row 0).  The B sums live in a register tile for
/// the whole row and are stored once, so a dst that may alias x costs no
/// reload per product.  Each column starts from +0 and adds in ascending
/// position: the canonical order, bit for bit.
template <std::size_t B, typename V>
void row_columns(const sparse::CsrMatrix<V>& a, const V* x, std::size_t k,
                 std::size_t lo, std::size_t hi, V* dst) {
  V acc[B] = {};
  for (std::size_t i = lo; i < hi; ++i) {
    const V v = a.val[i];
    const V* xr = x + static_cast<std::size_t>(a.col[i]) * k;
    for (std::size_t j = 0; j < B; ++j) acc[j] += v * xr[j];
  }
  for (std::size_t j = 0; j < B; ++j) dst[j] = acc[j];
}

/// dst[0..k) = the products of nonzeros [lo, hi) with their rows of the
/// row-major block X, each column accumulated in ascending position (the
/// canonical order).  K = 1 is SpMV's scalar loop; K = 0 reads `k` and
/// runs the columns in register tiles of up to 8 (row_columns), so every
/// width up to 8 is one pass over the row.
template <std::size_t K, typename V>
void row_products(const sparse::CsrMatrix<V>& a, std::span<const V> x,
                  std::size_t k, index_t lo, index_t hi, V* dst) {
  const auto b = static_cast<std::size_t>(lo);
  const auto e = static_cast<std::size_t>(hi);
  if constexpr (K == 1) {
    V acc{};
    for (std::size_t i = b; i < e; ++i) {
      acc += a.val[i] * x[static_cast<std::size_t>(a.col[i])];
    }
    *dst = acc;
  } else {
    for (std::size_t j = 0; j < k; j += 8) {
      const V* xj = x.data() + j;
      V* dj = dst + j;
      switch (std::min<std::size_t>(8, k - j)) {
        case 1: row_columns<1>(a, xj, k, b, e, dj); break;
        case 2: row_columns<2>(a, xj, k, b, e, dj); break;
        case 3: row_columns<3>(a, xj, k, b, e, dj); break;
        case 4: row_columns<4>(a, xj, k, b, e, dj); break;
        case 5: row_columns<5>(a, xj, k, b, e, dj); break;
        case 6: row_columns<6>(a, xj, k, b, e, dj); break;
        case 7: row_columns<7>(a, xj, k, b, e, dj); break;
        default: row_columns<8>(a, xj, k, b, e, dj); break;
      }
    }
  }
}

/// The fused reduction + carry-update launch (`merge.spmv_reduce`) shared
/// by planned and one-shot SpMV and SpMM.  x and y are row-major blocks of
/// `k` vectors (K as in row_products).  `offsets` are the segment offsets
/// (A's own, or the compacted view whose original row ids are `row_ids`;
/// empty `row_ids` means identity).  `s_bounds` holds a plan's per-CTA row
/// fences; when it is empty each CTA finds its own two fences with binary
/// searches over `offsets` — the paper's partition phase run inside the
/// reduce launch, charged to the searching CTA.  Writes the reduce and
/// update shares of the launch into `stats`; y must already be zeroed.
template <std::size_t K, typename V>
void reduce_kernel(vgpu::Device& device, const sparse::CsrMatrix<V>& a,
                   std::span<const V> x, std::span<V> y, std::size_t k,
                   const SpmvConfig& cfg, int num_ctas,
                   std::span<const index_t> offsets,
                   std::span<const index_t> row_ids,
                   std::span<const index_t> s_bounds, SpmvStats& stats) {
  const std::size_t kv = K == 1 ? 1 : k;
  const std::size_t nnz = static_cast<std::size_t>(a.nnz());
  const index_t num_seg_rows = static_cast<index_t>(offsets.size()) - 1;
  const std::span<const index_t> seg_starts =
      offsets.subspan(0, static_cast<std::size_t>(num_seg_rows));
  const std::size_t tile = static_cast<std::size_t>(cfg.tile());

  // Carry records: the open trailing row of each CTA (original row id).
  // The inter-CTA carry update runs as the launch's serialized tail (the
  // last CTA to finish folds the carries), so the whole reduction +
  // update is a single launch.
  std::vector<index_t> carry_row(static_cast<std::size_t>(num_ctas), -1);
  const auto s = device.launch(
      "merge.spmv_reduce", num_ctas, cfg.block_threads, [&](vgpu::Cta& cta) {
        const std::size_t cta_id = static_cast<std::size_t>(cta.cta_id());
        const std::size_t p_lo = cta_id * tile;
        const std::size_t p_hi = std::min(nnz, p_lo + tile);
        const std::size_t count = p_hi - p_lo;
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

        // Strided loads of column indices and values, X-row loads (the
        // first element a gather, the other k - 1 streamed: SpMM's
        // bandwidth edge over k SpMVs), blocked transpose, and the
        // CTA-wide segmented scan per vector.
        cta.charge_global(count * (sizeof(index_t) + sizeof(V)) +
                          count * (kv - 1) * sizeof(V));
        cta.charge_gather(count);
        cta.charge_shared_elems(3 * count * kv);
        cta.charge_alu_uniform(2 * count * kv);
        cta.charge_flops(2 * count * kv);  // one multiply-add per product
        cta.charge_sync();
        cta.charge_sync();

        // Functional reduction: walk rows covering [p_lo, p_hi).  A row
        // that spans CTAs is rebuilt whole by the tail, so only rows
        // wholly inside the tile are computed here.  Each row the tile
        // ends writes k values, each carry k values and its row id;
        // both counts are charged once, after the walk.
        std::size_t rows_written = 0;
        std::size_t carries = 0;
        for (index_t r = row_lo; r <= row_hi && r < num_seg_rows; ++r) {
          const std::size_t row_begin =
              static_cast<std::size_t>(offsets[static_cast<std::size_t>(r)]);
          const std::size_t row_end = static_cast<std::size_t>(
              offsets[static_cast<std::size_t>(r) + 1]);
          if (std::max(p_lo, row_begin) >= std::min(p_hi, row_end)) continue;
          const index_t out_row =
              row_ids.empty() ? r : row_ids[static_cast<std::size_t>(r)];
          if (row_end <= p_hi) {
            if (row_begin >= p_lo) {
              row_products<K>(a, x, kv, offsets[static_cast<std::size_t>(r)],
                              offsets[static_cast<std::size_t>(r) + 1],
                              y.data() + static_cast<std::size_t>(out_row) * kv);
            }
            ++rows_written;
          } else {
            carry_row[cta_id] = out_row;
            ++carries;
          }
        }
        cta.charge_global(rows_written * kv * sizeof(V) +
                          carries * (kv * sizeof(V) + sizeof(index_t)));
      },
      [&](vgpu::Cta& cta) {
        // Canonical accumulation order: a CTA-spanning row received its
        // final segment in the reduce phase and its earlier segments as
        // carries, an addition order that depends on the tile geometry.
        // The fixup instead rebuilds each spanning row (exactly the rows
        // with carry records) with one ascending-k accumulation, so merge
        // output is bitwise identical to the sequential reference for
        // every tile config and every column — the contract the autotuner's
        // oracle and the engine's batching rely on.  The modeled cost is
        // the carry fold the GPU kernel performs (docs/cost_model.md, "Launch tails", says why
        // the host-side rebuild is not charged).
        index_t prev = -1;
        for (int i = 0; i < num_ctas; ++i) {
          const index_t r = carry_row[static_cast<std::size_t>(i)];
          if (r < 0 || r == prev) continue;
          prev = r;
          const auto ri = static_cast<std::size_t>(r);
          row_products<K>(a, x, kv, a.row_offsets[ri], a.row_offsets[ri + 1],
                          y.data() + ri * kv);
          cta.charge_flops(2 * static_cast<std::size_t>(a.row_length(r)) * kv);
        }
        const std::size_t n = static_cast<std::size_t>(num_ctas);
        cta.charge_global(n * (sizeof(index_t) + kv * sizeof(V)));
        cta.charge_shared_elems(n * kv);
        cta.charge_alu_uniform(n * kv);
      });
  stats.reduce_ms = s.modeled_ms - s.tail_ms;
  stats.update_ms = s.tail_ms;
}

/// Checks that x and y hold row-major blocks of `num_vectors` vectors;
/// returns that count.
template <typename V>
std::size_t block_width(const sparse::CsrMatrix<V>& a, std::span<const V> x,
                        std::span<V> y, index_t num_vectors) {
  MPS_CHECK(num_vectors > 0);
  const std::size_t k = static_cast<std::size_t>(num_vectors);
  MPS_CHECK(x.size() >= static_cast<std::size_t>(a.num_cols) * k);
  MPS_CHECK(y.size() >= static_cast<std::size_t>(a.num_rows) * k);
  return k;
}

/// Zero y, run the reduce launch (k = 1 compiled as SpMV's scalar loop)
/// unless A is empty, then, under `guards`, check all of y finite.  y is
/// written by then: a guard failure reports corrupted output, never
/// silently wrong data.
template <typename V>
void reduce_launch(vgpu::Device& device, const sparse::CsrMatrix<V>& a,
                   std::span<const V> x, std::span<V> y, std::size_t k,
                   const SpmvConfig& cfg, int num_ctas,
                   std::span<const index_t> offsets,
                   std::span<const index_t> row_ids,
                   std::span<const index_t> s_bounds, bool guards,
                   SpmvStats& stats) {
  const std::size_t out = static_cast<std::size_t>(a.num_rows) * k;
  std::fill_n(y.begin(), out, V{});
  if (a.nnz() == 0) return;
  if (k == 1) {
    reduce_kernel<1>(device, a, x, y, k, cfg, num_ctas, offsets, row_ids,
                     s_bounds, stats);
  } else {
    reduce_kernel<0>(device, a, x, y, k, cfg, num_ctas, offsets, row_ids,
                     s_bounds, stats);
  }
  if (guards) {
    stats.integrity_ms += resilience::check_finite(
        device, std::span<const V>(y.data(), out),
        k == 1 ? "merge.spmv: y" : "merge.spmm: y");
  }
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
                           const SpmvPlan& plan, index_t num_vectors) {
    if (!plan.valid()) {
      throw PlanMismatchError("spmv_execute requires a built plan");
    }
    if (plan.value_bytes_ != sizeof(V)) {
      throw PlanMismatchError("plan was built for a different value precision");
    }
    const std::size_t k = block_width<V>(a, x, y, num_vectors);
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
    // The plan pins one carry value per CTA; a block of k vectors needs
    // k.  The rest is reserved before y is touched, so an allocation
    // failure leaves the caller's output unmodified.
    std::optional<vgpu::ScopedDeviceAlloc> block_carry;
    if (k > 1 && plan.num_ctas_ > 0) {
      block_carry.emplace(device.memory(),
                          static_cast<std::size_t>(plan.num_ctas_) * (k - 1) *
                              sizeof(V));
    }
    const std::span<const index_t> offsets =
        plan.used_compaction_ ? std::span<const index_t>(plan.compact_offsets_)
                              : std::span<const index_t>(a.row_offsets);
    reduce_launch<V>(device, a, x, y, k, plan.cfg_, plan.num_ctas_, offsets,
                     plan.compact_row_ids_, plan.s_bounds_, guards, stats);
    stats.wall_ms = wall.milliseconds();
    return stats;
  }
};

/// One-shot SpMV over a block of `num_vectors` vectors: no plan.  The
/// compaction pass runs first when A has empty rows (or the config forces
/// it), then one fused reduce launch in which every CTA finds its own row
/// fences.  One launch on the fast path, two with compaction.
template <typename V>
SpmvStats spmv_impl(vgpu::Device& device, const sparse::CsrMatrix<V>& a,
                    std::span<const V> x, std::span<V> y, const SpmvConfig& cfg,
                    index_t num_vectors) {
  const std::size_t k = block_width<V>(a, x, y, num_vectors);
  telemetry::ScopedSpan span("spmv.execute");
  if (sparse::strict_validation()) sparse::validate_csr(a, "spmv: A");
  util::WallTimer wall;
  SpmvStats stats;
  const std::size_t nnz = static_cast<std::size_t>(a.nnz());
  CompactView compact;
  std::optional<vgpu::ScopedDeviceAlloc> device_mem;
  if (nnz > 0) {
    stats.num_ctas =
        static_cast<int>(ceil_div(nnz, static_cast<std::size_t>(cfg.tile())));
    stats.used_compaction = cfg.force_compaction || a.has_empty_rows();
    if (stats.used_compaction) compact = compact_offsets(a);
    // The compacted view and the carry buffer are allocated (and
    // accounted) before y is touched, so an allocation failure leaves the
    // caller's output unmodified.
    device_mem.emplace(
        device.memory(),
        (compact.offsets.size() + compact.row_ids.size()) * sizeof(index_t) +
            static_cast<std::size_t>(stats.num_ctas) *
                (sizeof(index_t) + k * sizeof(V)));
    if (stats.used_compaction) {
      stats.compact_ms = compact_launch(device, a, cfg);
    }
    stats.plan_ms = stats.compact_ms;
  }
  const std::span<const index_t> offsets =
      stats.used_compaction ? std::span<const index_t>(compact.offsets)
                            : std::span<const index_t>(a.row_offsets);
  reduce_launch<V>(device, a, x, y, k, cfg, stats.num_ctas, offsets,
                   compact.row_ids, {}, resilience::integrity_checks_enabled(),
                   stats);
  stats.wall_ms = wall.milliseconds();
  return stats;
}

}  // namespace detail

}  // namespace mps::core::merge

#include "core/spgemm.hpp"

#include <algorithm>
#include <atomic>
#include <bit>
#include <memory>
#include <mutex>
#include <numeric>
#include <string>
#include <vector>

#include "primitives/cta_radix_sort.hpp"
#include "primitives/device_radix_sort.hpp"
#include "primitives/scan.hpp"
#include "primitives/search.hpp"
#include "resilience/integrity.hpp"
#include "sparse/validate.hpp"
#include "telemetry/span.hpp"
#include "util/timer.hpp"
#include "vgpu/thread_pool.hpp"

namespace mps::core::merge {

using sparse::CsrD;

namespace {

/// CTA tiling aligned to the *global* product stream: boundaries sit at
/// multiples of tile in global coordinates, so the first CTA of a chunk
/// whose stream starts mid-tile (phase > 0) is short by `phase` products.
/// For phase == 0 this is the plain [cta * tile, (cta+1) * tile) tiling.
struct ProductTiling {
  std::size_t tile;
  std::size_t phase;   ///< global origin % tile
  std::size_t n_prod;  ///< local product count
  int num_ctas() const {
    return static_cast<int>(ceil_div(n_prod + phase, tile));
  }
  std::size_t lo(int cta) const {
    const std::size_t bound = static_cast<std::size_t>(cta) * tile;
    return bound < phase ? 0 : std::min(n_prod, bound - phase);
  }
  std::size_t hi(int cta) const {
    return std::min(n_prod, (static_cast<std::size_t>(cta) + 1) * tile - phase);
  }
};

/// The number of source nonzeros of A that the product range [p_lo, p_hi)
/// of the expansion described by the scan S spans: from the source
/// holding p_lo through the one holding p_hi - 1, counting those between
/// whose B row is empty.
std::size_t range_sources(std::span<const std::uint64_t> S, std::size_t p_lo,
                          std::size_t p_hi) {
  if (p_lo >= p_hi) return 0;
  const auto starts = S.first(S.size() - 1);
  return primitives::segment_of(starts, static_cast<std::uint64_t>(p_hi - 1)) -
         primitives::segment_of(starts, static_cast<std::uint64_t>(p_lo)) + 1;
}

void charge_expansion(vgpu::Cta& cta, std::size_t a_nnz, std::size_t count,
                      std::size_t sources, bool with_values) {
  cta.charge_binary_search(a_nnz);
  // A segment (cols + offsets window) streams coalesced; each distinct
  // source dereferences one B row start (a sector), after which that
  // row's columns/values stream contiguously.
  cta.charge_global(sources * 2 * sizeof(index_t));
  cta.charge_gather(sources);
  cta.charge_global(count * sizeof(index_t));  // B columns, run-contiguous
  if (with_values) {
    cta.charge_global(sources * sizeof(double));  // A values
    cta.charge_global(count * sizeof(double));    // B values
  }
  cta.charge_alu_uniform(2 * count);
}

/// A's rows cut into consecutive ranges of about kRowGrain products each,
/// the unit the host row passes run on the vgpu pool: range i is rows
/// [cuts[i], cuts[i + 1]).
std::vector<index_t> row_ranges(const CsrD& a,
                                std::span<const std::uint64_t> S) {
  constexpr std::uint64_t kRowGrain = 1 << 13;
  std::vector<index_t> cuts{0};
  std::uint64_t base = 0;
  for (index_t r = 0; r < a.num_rows; ++r) {
    const auto next = static_cast<std::size_t>(r) + 1;
    const std::uint64_t end = S[static_cast<std::size_t>(a.row_offsets[next])];
    if (end - base >= kRowGrain || r + 1 == a.num_rows) {
      cuts.push_back(r + 1);
      base = end;
    }
  }
  return cuts;
}

/// Scratch of one host row-pass task, dense over B's columns.
struct RowScratch {
  /// Symbolic, per column the current row touched: the last tile holding
  /// one of the entry's products, and how many tiles do.
  struct Stamp {
    std::uint32_t tile = 0;
    std::uint32_t tiles = 0;
  };
  std::vector<Stamp> stamp;
  /// Symbolic: the columns the current row touched, and one bit per
  /// column, set for exactly those.
  std::vector<index_t> touched;
  std::vector<std::uint64_t> touched_bits;
  /// Numeric: column -> C entry of the current row.
  std::vector<index_t> pos;
};

/// The row scratch of one pass.  A task leases one for its duration, so
/// the pass makes at most one per task running at once, and frees them
/// all when it returns: no B width stays resident after a call.
struct ScratchPool {
  std::mutex mu;
  std::vector<std::unique_ptr<RowScratch>> idle;
};

class ScratchLease {
 public:
  explicit ScratchLease(ScratchPool& pool) : pool_(pool) {
    {
      const std::lock_guard<std::mutex> lock(pool_.mu);
      if (!pool_.idle.empty()) {
        s_ = std::move(pool_.idle.back());
        pool_.idle.pop_back();
      }
    }
    if (!s_) s_ = std::make_unique<RowScratch>();
  }
  /// Gives the scratch back, also when the task throws.
  ~ScratchLease() {
    const std::lock_guard<std::mutex> lock(pool_.mu);
    try {
      pool_.idle.push_back(std::move(s_));
    } catch (const std::bad_alloc&) {
      // Not pooled: freed with the lease.
    }
  }
  ScratchLease(const ScratchLease&) = delete;
  ScratchLease& operator=(const ScratchLease&) = delete;

  RowScratch* operator->() const { return s_.get(); }

 private:
  ScratchPool& pool_;
  std::unique_ptr<RowScratch> s_;
};

/// Grows `v` to at least `n` value-initialized elements; returns its data.
template <typename T>
T* at_least(std::vector<T>& v, std::size_t n) {
  if (v.size() < n) v.resize(n);
  return v.data();
}

/// Sorts the current row's touched columns `t`.  A row whose columns
/// span at most t.size() * bit_width(t.size()) bitmap words reads them
/// off `bits` in order; a wider one sorts them.  Reading the bitmap is the
/// faster order on the banded Table II products (Protein, Cantilever,
/// Ship), and sorting on the scattered rows of Webbase and Epidemiology.
void order_touched(std::vector<index_t>& t, const std::uint64_t* bits) {
  if (t.empty()) return;
  const auto [lo_it, hi_it] = std::minmax_element(t.begin(), t.end());
  const auto w_lo = static_cast<std::size_t>(*lo_it) / 64;
  const auto w_hi = static_cast<std::size_t>(*hi_it) / 64;
  const auto sort_cost =
      t.size() * static_cast<std::size_t>(std::bit_width(t.size()));
  if (w_hi - w_lo > sort_cost) {
    std::sort(t.begin(), t.end());
    return;
  }
  std::size_t n = 0;
  for (std::size_t w = w_lo; w <= w_hi; ++w) {
    for (std::uint64_t word = bits[w]; word != 0; word &= word - 1) {
      t[n++] = static_cast<index_t>(64 * w + static_cast<std::size_t>(
                                                 std::countr_zero(word)));
    }
  }
}

/// The symbolic row pass: C's pattern (values zeroed) and the counts the
/// modeled kernels' charges read, from one Gustavson walk of A's rows.
/// Product p of the expansion sits in tile (p + phase) / tile.  Each C
/// entry gets the number of tiles holding one of its products
/// (`entry_tiles`: its run length in the globally sorted stream), and
/// each tile t gets, added into tile_unique[t], its number of distinct C
/// entries (the tuples its block sort keeps).  Those are integer sums, so
/// the pool threads' order does not matter.
void symbolic_rows(const CsrD& a, const CsrD& b,
                   std::span<const std::uint64_t> S, std::size_t tile,
                   std::size_t phase, std::vector<std::uint64_t>& tile_unique,
                   std::vector<std::uint32_t>& entry_tiles, CsrD& c) {
  const std::vector<index_t> cuts = row_ranges(a, S);
  const std::size_t num_ranges = cuts.size() - 1;
  struct RangeOut {
    std::vector<index_t> cols;
    std::vector<std::uint32_t> tiles;
  };
  std::vector<RangeOut> outs(num_ranges);
  constexpr std::uint32_t kNoTile = ~std::uint32_t{0};
  const auto num_rows = static_cast<std::size_t>(a.num_rows);
  c.row_offsets.assign(num_rows + 1, 0);
  ScratchPool pool;
  vgpu::global_pool().parallel_for(num_ranges, [&](std::size_t i) {
    const ScratchLease sc(pool);
    const auto num_cols = static_cast<std::size_t>(b.num_cols);
    RowScratch::Stamp* stamp = at_least(sc->stamp, num_cols);
    std::uint64_t* bits = at_least(sc->touched_bits, num_cols / 64 + 1);
    std::vector<index_t>& touched = sc->touched;
    RangeOut& out = outs[i];
    // This range's distinct entries in tile cur_tile so far; a tile may
    // continue in the neighbouring ranges, so it is added atomically.
    std::uint32_t cur_tile = 0;
    std::uint64_t cur_count = 0;
    auto flush = [&] {
      if (cur_count == 0) return;
      std::atomic_ref<std::uint64_t>(tile_unique[cur_tile])
          .fetch_add(cur_count, std::memory_order_relaxed);
      cur_count = 0;
    };
    for (auto r = static_cast<std::size_t>(cuts[i]);
         r < static_cast<std::size_t>(cuts[i + 1]); ++r) {
      // Clear the bits of the scratch's last row (that row may be another
      // task's, cut short by a throw).
      for (const index_t col : touched) {
        bits[static_cast<std::size_t>(col) / 64] = 0;
      }
      touched.clear();
      for (auto k = static_cast<std::size_t>(a.row_offsets[r]);
           k < static_cast<std::size_t>(a.row_offsets[r + 1]); ++k) {
        const auto acol = static_cast<std::size_t>(a.col[k]);
        auto j = static_cast<std::size_t>(b.row_offsets[acol]);
        const auto j_end = static_cast<std::size_t>(b.row_offsets[acol + 1]);
        std::size_t p = static_cast<std::size_t>(S[k]) + phase;
        // The source's products, one tile-sized piece at a time.
        while (j < j_end) {
          const auto t = static_cast<std::uint32_t>(p / tile);
          const std::size_t piece_end =
              std::min(j_end, j + (static_cast<std::size_t>(t) + 1) * tile - p);
          if (t != cur_tile) {
            flush();
            cur_tile = t;
          }
          p += piece_end - j;
          for (; j < piece_end; ++j) {
            const auto col = static_cast<std::size_t>(b.col[j]);
            const std::uint64_t bit = std::uint64_t{1} << (col % 64);
            RowScratch::Stamp& st = stamp[col];
            if ((bits[col / 64] & bit) == 0) {
              // The row's first product in this column: a new C entry,
              // with no tile yet (tiles never reach kNoTile).
              touched.push_back(static_cast<index_t>(col));
              bits[col / 64] |= bit;
              st = {kNoTile, 0};
            }
            // A new (entry, tile) pair, counted without a branch: tile
            // changes within an entry are too frequent to predict.
            const std::uint32_t fresh = st.tile != t;
            st.tile = t;
            st.tiles += fresh;
            cur_count += fresh;
          }
        }
      }
      order_touched(touched, bits);
      for (const index_t col : touched) {
        out.cols.push_back(col);
        out.tiles.push_back(stamp[static_cast<std::size_t>(col)].tiles);
      }
      c.row_offsets[r + 1] = static_cast<index_t>(touched.size());
    }
    flush();
  });
  for (std::size_t r = 0; r < num_rows; ++r) {
    c.row_offsets[r + 1] += c.row_offsets[r];
  }
  const auto out_n = static_cast<std::size_t>(c.row_offsets[num_rows]);
  c.col.resize(out_n);
  c.val.assign(out_n, 0.0);
  entry_tiles.resize(out_n);
  vgpu::global_pool().parallel_for(num_ranges, [&](std::size_t i) {
    const auto e = static_cast<std::size_t>(
        c.row_offsets[static_cast<std::size_t>(cuts[i])]);
    std::copy(outs[i].cols.begin(), outs[i].cols.end(), c.col.begin() + e);
    std::copy(outs[i].tiles.begin(), outs[i].tiles.end(),
              entry_tiles.begin() + e);
  });
}

/// The numeric row pass: C's values in the canonical Gustavson order.
/// Each entry starts at +0.0 and adds a_val * b_val in ascending product
/// position, as seq::spgemm does, so the result is its bits.  `c` holds
/// the pattern.  A product whose column is not in its row's pattern (a
/// plan applied to drifted matrices) throws PlanMismatchError instead of
/// landing in another entry.
void numeric_rows(const CsrD& a, const CsrD& b,
                  std::span<const std::uint64_t> S, CsrD& c) {
  const std::vector<index_t> cuts = row_ranges(a, S);
  ScratchPool pool;
  vgpu::global_pool().parallel_for(cuts.size() - 1, [&](std::size_t i) {
    const ScratchLease sc(pool);
    index_t* pos = at_least(sc->pos, static_cast<std::size_t>(b.num_cols));
    double* val = c.val.data();
    for (auto r = static_cast<std::size_t>(cuts[i]);
         r < static_cast<std::size_t>(cuts[i + 1]); ++r) {
      const index_t e0 = c.row_offsets[r];
      const index_t e1 = c.row_offsets[r + 1];
      for (index_t e = e0; e < e1; ++e) {
        pos[c.col[static_cast<std::size_t>(e)]] = e;
        val[e] = 0.0;
      }
      for (auto k = static_cast<std::size_t>(a.row_offsets[r]);
           k < static_cast<std::size_t>(a.row_offsets[r + 1]); ++k) {
        const auto acol = static_cast<std::size_t>(a.col[k]);
        const double av = a.val[k];
        for (auto j = static_cast<std::size_t>(b.row_offsets[acol]);
             j < static_cast<std::size_t>(b.row_offsets[acol + 1]); ++j) {
          const index_t e = pos[b.col[j]];
          if (e < e0 || e >= e1 ||
              c.col[static_cast<std::size_t>(e)] != b.col[j]) {
            throw PlanMismatchError(
                "matrix pattern does not match the plan: row " +
                std::to_string(r) + " gains column " +
                std::to_string(b.col[j]));
          }
          val[e] += av * b.val[j];
        }
      }
    }
  });
}

}  // namespace

/// One flat pipeline over `a` (a whole matrix, or a row block's rows)
/// with CTA tiles aligned to global product `origin`: the symbolic plan,
/// then the numeric half, whose time splits over Fig 11's two numeric
/// phases by the kernel log (the last two launches are products +
/// reduce).  Strong guarantee: `c` is assigned only on success.
struct SpgemmBlock {
  static SpgemmStats run(vgpu::Device& device, const CsrD& a, const CsrD& b,
                         std::uint64_t origin, CsrD& c,
                         const SpgemmConfig& cfg) {
    util::WallTimer wall;
    SpgemmPlan plan;
    SpgemmStats stats = SpgemmPlan::build(device, a, b, plan, cfg, origin);
    if (stats.num_products == 0) {
      c = CsrD(a.num_rows, b.num_cols);
      stats.wall_ms = wall.milliseconds();
      return stats;
    }
    const std::size_t log_before = device.log().size();
    // The plan is this block's alone, so C takes its pattern, not a copy.
    numeric(device, a, b, plan, std::move(plan.pattern_), c);
    for (std::size_t i = log_before; i < device.log().size(); ++i) {
      const auto& k = device.log()[i];
      if (k.name == "merge.spgemm_reduce") {
        stats.phases.product_reduce_ms += k.modeled_ms;
      } else {
        stats.phases.product_compute_ms += k.modeled_ms;
      }
    }
    stats.wall_ms = wall.milliseconds();
    return stats;
  }

  /// The numeric phase (spgemm_numeric after its plan checks): C gets
  /// `pattern`'s structure and the plan's values.
  static double numeric(vgpu::Device& device, const CsrD& a, const CsrD& b,
                        const SpgemmPlan& plan, CsrD pattern, CsrD& c);
};

namespace {

/// Rows [r0, r1) of A as one flat block tiled at its global product
/// prefix: A itself when the block spans every row, else a slice.
SpgemmStats run_rows(vgpu::Device& device, const CsrD& a, const CsrD& b,
                     std::span<const std::uint64_t> row_prefix, index_t r0,
                     index_t r1, CsrD& c, const SpgemmConfig& cfg) {
  if (r0 == 0 && r1 == a.num_rows) {
    return SpgemmBlock::run(device, a, b, 0, c, cfg);
  }
  const CsrD block = sparse::row_slice(a, r0, r1);
  return SpgemmBlock::run(device, block, b,
                          row_prefix[static_cast<std::size_t>(r0)], c, cfg);
}

/// Conservative device footprint of one flat-pipeline invocation over a
/// chunk with `n_prod` intermediate products and `a_nnz` source nonzeros:
/// perm16 + head bits + the product-offset scan, the unique-tuple arrays
/// (bounded by n_prod) and the global sort's ping-pong buffers, plus a
/// fixed floor for the scan/sort scratch of tiny chunks.
std::size_t chunk_footprint(std::uint64_t n_prod, std::uint64_t a_nnz) {
  return static_cast<std::size_t>(40 * n_prod + 16 * a_nnz + 4096);
}

/// Share of free device memory a chunk may claim after a block overflows.
/// Below 1.0 leaves headroom because chunk_footprint is an estimate of
/// the sort's transient allocations, not an exact charge.
constexpr double kFreeMemoryFraction = 0.5;

/// The one chunk loop: rows [row_begin, row_end) as greedy whole-row
/// chunks whose estimated footprint fits `budget`, stitched into `c`.
/// Each chunk is one flat block with no step-down of its own, so a chunk
/// that still overflows throws.  A row is the atomic unit: a chunk takes
/// at least one row even when that row alone overshoots the budget.
SpgemmStats run_chunks(vgpu::Device& device, const CsrD& a, const CsrD& b,
                       std::span<const std::uint64_t> P, index_t row_begin,
                       index_t row_end, std::size_t budget, CsrD& c,
                       const SpgemmConfig& cfg) {
  util::WallTimer wall;
  SpgemmStats stats;
  stats.num_chunks = 0;
  // Built locally and assigned to `c` only on success (strong guarantee).
  CsrD out(0, b.num_cols);
  const auto end = static_cast<std::size_t>(row_end);
  for (auto r0 = static_cast<std::size_t>(row_begin); r0 < end;) {
    std::size_t r1 = r0 + 1;
    while (r1 < end &&
           chunk_footprint(P[r1 + 1] - P[r0],
                           static_cast<std::uint64_t>(a.row_offsets[r1 + 1] -
                                                      a.row_offsets[r0])) <=
               budget) {
      ++r1;
    }
    CsrD c_sub;
    const SpgemmStats sub =
        run_rows(device, a, b, P, static_cast<index_t>(r0),
                 static_cast<index_t>(r1), c_sub, cfg);
    stats.phases.setup_ms += sub.phases.setup_ms;
    stats.phases.block_sort_ms += sub.phases.block_sort_ms;
    stats.phases.global_sort_ms += sub.phases.global_sort_ms;
    stats.phases.product_compute_ms += sub.phases.product_compute_ms;
    stats.phases.product_reduce_ms += sub.phases.product_reduce_ms;
    stats.phases.other_ms += sub.phases.other_ms;
    stats.num_products += sub.num_products;
    stats.block_unique += sub.block_unique;
    stats.used_pair_sort = stats.used_pair_sort || sub.used_pair_sort;
    sparse::append_rows(out, c_sub);
    ++stats.num_chunks;
    r0 = r1;
  }
  c = std::move(out);
  // Under MPS_INTEGRITY_CHECK, the stitched C (each chunk's was checked).
  if (resilience::integrity_checks_enabled()) {
    stats.phases.other_ms +=
        resilience::check_csr(device, c, "merge.spgemm_chunked: C");
  }
  stats.wall_ms = wall.milliseconds();
  return stats;
}

}  // namespace

SpgemmStats spgemm_symbolic(vgpu::Device& device, const CsrD& a, const CsrD& b,
                            SpgemmPlan& plan, const SpgemmConfig& cfg) {
  return SpgemmPlan::build(device, a, b, plan, cfg, 0);
}

SpgemmStats SpgemmPlan::build(vgpu::Device& device, const CsrD& a,
                              const CsrD& b, SpgemmPlan& out_plan,
                              const SpgemmConfig& cfg, std::uint64_t origin) {
  MPS_CHECK(a.num_cols == b.num_rows);
  if (sparse::strict_validation()) {
    sparse::validate_csr(a, "spgemm: A");
    sparse::validate_csr(b, "spgemm: B");
  }
  telemetry::ScopedSpan sym_span("spgemm.symbolic");
  util::WallTimer wall;
  SpgemmStats stats;
  // Built locally and moved into `out_plan` only on success: a throw at
  // any allocation site leaves the caller's plan untouched and releases
  // all device accounting via RAII (strong exception-safety guarantee).
  SpgemmPlan plan;
  plan.cfg_ = cfg;
  plan.pattern_ = CsrD(a.num_rows, b.num_cols);

  const std::size_t a_nnz = static_cast<std::size_t>(a.nnz());
  const std::size_t tile = static_cast<std::size_t>(cfg.tile());
  const int col_bits = std::max(1, log2_ceil(static_cast<std::uint64_t>(
                                    std::max<index_t>(b.num_cols, 1))));
  const int row_bits = std::max(1, log2_ceil(static_cast<std::uint64_t>(
                                    std::max<index_t>(a.num_rows, 1))));
  const int rank_bits = log2_ceil(tile);
  plan.phase_ = static_cast<std::size_t>(origin % tile);

  // ======================= Setup =======================================
  // The segmented product-offset scan S over A's nonzeros.
  telemetry::ScopedSpan setup_span("spgemm.setup");
  auto& S = plan.prod_offsets_;
  S.assign(a_nnz + 1, 0);
  for (std::size_t k = 0; k < a_nnz; ++k) {
    S[k] = static_cast<std::uint64_t>(b.row_length(a.col[k]));
  }
  {
    const int setup_ctas =
        static_cast<int>(ceil_div(a_nnz, std::size_t{2048})) + 1;
    auto s = device.launch("merge.spgemm_setup", setup_ctas, cfg.block_threads,
                           [&](vgpu::Cta& cta) {
      const std::size_t lo = static_cast<std::size_t>(cta.cta_id()) * 2048;
      const std::size_t hi = std::min(a_nnz, lo + 2048);
      if (lo >= hi) return;
      cta.charge_global((hi - lo) * 2 * sizeof(index_t));
      cta.charge_gather(hi - lo);  // B row-length dereferences
      cta.charge_global((hi - lo) * sizeof(index_t));
    });
    stats.phases.setup_ms += s.modeled_ms;
  }
  const std::uint64_t num_products = primitives::device_exclusive_scan(
      device, "merge.spgemm_setup_scan", std::span<const std::uint64_t>(S),
      std::span<std::uint64_t>(S));
  stats.phases.setup_ms += device.log().back().modeled_ms;
  plan.num_products_ = static_cast<long long>(num_products);
  stats.num_products = plan.num_products_;
  setup_span.end();
  if (num_products == 0) {
    stats.wall_ms = wall.milliseconds();
    out_plan = std::move(plan);
    return stats;
  }

  const std::size_t n_prod = static_cast<std::size_t>(num_products);
  const ProductTiling tiling{tile, plan.phase_, n_prod};
  const int num_ctas = tiling.num_ctas();
  plan.num_ctas_ = num_ctas;

  // The modeled kernel's state carried between its two expansion passes
  // — its device footprint (what overflows on Dense): a 16-bit local
  // permutation and a head-flag bit per product, plus S.
  plan.device_mem_.emplace(device.memory(),
                           n_prod * sizeof(std::uint16_t) + n_prod / 8 + 1 +
                               (a_nnz + 1) * sizeof(std::uint64_t));

  // The key-rank embedding fits when col_bits + rank_bits <= 32; otherwise
  // fall back to a key-value pair sort (paper: "when possible").  Sorting
  // full-width keys (the bit-limiting ablation) would scramble embedded
  // ranks, so it forces the pair sort as well.
  stats.used_pair_sort =
      cfg.force_pair_sort || cfg.force_full_bits || (col_bits + rank_bits > 32);
  const int sort_bits = cfg.force_full_bits ? 32 : col_bits;

  // ======================= Block Sort ===================================
  // The host computes C's pattern and every count the symbolic launches
  // charge in one row pass; the launches below only charge.
  telemetry::ScopedSpan block_sort_span("spgemm.block_sort");
  plan.unique_offset_.assign(static_cast<std::size_t>(num_ctas) + 1, 0);
  symbolic_rows(a, b, S, tile, plan.phase_, plan.unique_offset_,
                plan.entry_tiles_, plan.pattern_);
  {
    primitives::CtaSortConfig sort_cfg;
    sort_cfg.block_threads = cfg.block_threads;
    sort_cfg.items_per_thread = cfg.items_per_thread;
    const bool pair_sort = stats.used_pair_sort;
    auto s = device.launch("merge.spgemm_blocksort", num_ctas, cfg.block_threads,
                           [&](vgpu::Cta& cta) {
      // The modeled CTA expands its products' (row, col) indices, sorts
      // them by column with ONE stable bit-limited radix sort (equal
      // tuples end up adjacent; keys-only embeds the origin rank above
      // the column bits), flags its locally-unique tuples, and stores
      // the tuples, the 16-bit permutation and the head flags.
      const std::size_t p_lo = tiling.lo(cta.cta_id());
      const std::size_t p_hi = tiling.hi(cta.cta_id());
      const std::size_t count = p_hi - p_lo;
      charge_expansion(cta, a_nnz, count, range_sources(S, p_lo, p_hi),
                       /*with_values=*/false);
      primitives::cta_radix_sort_charge<std::uint32_t>(
          cta, count, pair_sort, 0, std::min(sort_bits, 32), sort_cfg);
      const std::uint64_t u =
          plan.unique_offset_[static_cast<std::size_t>(cta.cta_id())];
      cta.charge_global(count * sizeof(std::uint16_t) + count / 8 + 1);
      cta.charge_global(u * sizeof(std::uint64_t));
      cta.charge_shared_elems(count);
      cta.charge_sync();
    });
    stats.phases.block_sort_ms += s.modeled_ms;
  }
  const std::uint64_t num_unique = primitives::device_exclusive_scan(
      device, "merge.spgemm_unique_scan",
      std::span<const std::uint64_t>(plan.unique_offset_),
      std::span<std::uint64_t>(plan.unique_offset_));
  stats.phases.block_sort_ms += device.log().back().modeled_ms;
  stats.block_unique = static_cast<long long>(num_unique);
  block_sort_span.end();

  // ======================= Global Sort ==================================
  // The permutation-only device sort of the reduced (row, col) tuples
  // (values still unformed), then the inverse permutation: each pre-sort
  // tuple's rank.
  telemetry::ScopedSpan global_sort_span("spgemm.global_sort");
  const auto m = static_cast<std::size_t>(num_unique);
  vgpu::ScopedDeviceAlloc unique_mem(
      device.memory(),
      m * (sizeof(std::uint64_t) + 2 * sizeof(std::uint32_t)));
  const auto gsort = primitives::device_radix_sort_charge(
      device, "merge.spgemm_globalsort", m, 64, /*pairs=*/true,
      std::min(64, row_bits + col_bits));
  stats.phases.global_sort_ms += gsort.modeled_ms;
  {
    const int rank_ctas = static_cast<int>(ceil_div(m, std::size_t{2048})) + 1;
    auto s = device.launch("merge.spgemm_rank", rank_ctas, cfg.block_threads,
                           [&](vgpu::Cta& cta) {
      const std::size_t lo = static_cast<std::size_t>(cta.cta_id()) * 2048;
      const std::size_t hi = std::min(m, lo + 2048);
      if (lo >= hi) return;
      cta.charge_global((hi - lo) * sizeof(std::uint32_t));
      cta.charge_gather(hi - lo);
    });
    stats.phases.global_sort_ms += s.modeled_ms;
  }
  global_sort_span.end();

  // ================== Other: pattern + segment assembly =================
  // The sorted key stream still holds cross-CTA duplicates; unique runs
  // become C's entries, and each entry's run is what the numeric phase
  // reduces with a plain segmented sum.
  {
    telemetry::ScopedSpan pattern_span("spgemm.pattern");
    const int csr_ctas = static_cast<int>(ceil_div(m, std::size_t{2048})) + 1;
    auto s = device.launch("merge.spgemm_pattern", csr_ctas, cfg.block_threads,
                           [&](vgpu::Cta& cta) {
      const std::size_t lo = static_cast<std::size_t>(cta.cta_id()) * 2048;
      const std::size_t hi = std::min(m, lo + 2048);
      if (lo >= hi) return;
      cta.charge_global((hi - lo) * sizeof(std::uint64_t));   // scan keys
      cta.charge_global((hi - lo) * 2 * sizeof(index_t));     // emit cols/segs
      cta.charge_alu_uniform(hi - lo);
    });
    stats.phases.other_ms += s.modeled_ms;
  }

  stats.wall_ms = wall.milliseconds();
  out_plan = std::move(plan);
  return stats;
}

double spgemm_numeric(vgpu::Device& device, const CsrD& a, const CsrD& b,
                      const SpgemmPlan& plan, CsrD& c) {
  if (!plan.valid()) {
    throw PlanMismatchError("spgemm_numeric requires a built plan");
  }
  MPS_CHECK(a.num_cols == b.num_rows);
  if (a.num_rows != plan.pattern_.num_rows ||
      b.num_cols != plan.pattern_.num_cols) {
    throw PlanMismatchError(
        "matrix shape does not match the plan: C is " +
        std::to_string(a.num_rows) + "x" + std::to_string(b.num_cols) +
        ", planned " + std::to_string(plan.pattern_.num_rows) + "x" +
        std::to_string(plan.pattern_.num_cols));
  }
  if (a.nnz() + 1 != static_cast<index_t>(plan.prod_offsets_.size())) {
    throw PlanMismatchError("matrix pattern does not match the plan: " +
                            std::to_string(a.nnz()) + " nonzeros vs " +
                            std::to_string(plan.prod_offsets_.size() - 1) +
                            " planned");
  }
  // The plan encodes the patterns: every source nonzero must still expand
  // to the same number of products (an O(nnz) check, negligible next to
  // the O(products) numeric work, and it catches same-size pattern drift).
  for (std::size_t k = 0; k < static_cast<std::size_t>(a.nnz()); ++k) {
    if (static_cast<std::uint64_t>(b.row_length(a.col[k])) !=
        plan.prod_offsets_[k + 1] - plan.prod_offsets_[k]) {
      throw PlanMismatchError(
          "matrix pattern does not match the plan: nonzero " +
          std::to_string(k) + " expands to a different product count");
    }
  }
  return SpgemmBlock::numeric(device, a, b, plan, plan.pattern_, c);
}

double SpgemmBlock::numeric(vgpu::Device& device, const CsrD& a,
                            const CsrD& b, const SpgemmPlan& plan,
                            CsrD pattern, CsrD& c) {
  telemetry::ScopedSpan num_span("spgemm.numeric");
  double modeled_ms = 0.0;
  // Built locally and assigned to `c` only on success so a mid-pipeline
  // throw (an injected allocation failure, say) leaves the caller's
  // output untouched.
  CsrD out = std::move(pattern);
  if (plan.num_products_ == 0) {
    c = std::move(out);
    return modeled_ms;
  }

  const auto& cfg = plan.cfg_;
  const std::size_t tile = static_cast<std::size_t>(cfg.tile());
  const std::size_t n_prod = static_cast<std::size_t>(plan.num_products_);
  const std::size_t a_nnz = static_cast<std::size_t>(a.nnz());
  const std::span<const std::uint64_t> uniques(plan.unique_offset_);
  const ProductTiling tiling{tile, plan.phase_, n_prod};

  // ======================= Product Compute ==============================
  // The launch charges the replayed expansion forming values, the
  // permuted segmented reduce within each CTA and the scatter of its
  // partial sums into sorted order.  The host computes C's values in one
  // row pass instead (numeric_rows).
  telemetry::ScopedSpan products_span("spgemm.products");
  vgpu::ScopedDeviceAlloc vals_mem(device.memory(),
                                   uniques.back() * sizeof(double));
  auto s = device.launch("merge.spgemm_products", plan.num_ctas_,
                         cfg.block_threads, [&](vgpu::Cta& cta) {
    const auto cta_id = static_cast<std::size_t>(cta.cta_id());
    const std::size_t p_lo = tiling.lo(cta.cta_id());
    const std::size_t p_hi = tiling.hi(cta.cta_id());
    const std::size_t count = p_hi - p_lo;
    charge_expansion(cta, a_nnz, count,
                     range_sources(plan.prod_offsets_, p_lo, p_hi),
                     /*with_values=*/true);
    const std::uint64_t wrote = uniques[cta_id + 1] - uniques[cta_id];
    // Load perm/flags, shared-memory permute + segmented scan, scattered
    // stores of the reduced set.
    cta.charge_global(count * sizeof(std::uint16_t) + count / 8 + 1);
    cta.charge_shared_elems(3 * count);
    cta.charge_alu_uniform(2 * count);
    cta.charge_gather(wrote);
    cta.charge_sync();
    cta.charge_sync();
  });
  modeled_ms += s.modeled_ms;
  numeric_rows(a, b, plan.prod_offsets_, out);
  products_span.end();

  // ======================= Product Reduce ===============================
  telemetry::ScopedSpan reduce_span("spgemm.reduce");
  // Cross-CTA duplicates are adjacent in sorted order: each C entry sums
  // the run of one partial per tile holding it.
  constexpr std::size_t kRedTile = 2048;
  const std::size_t out_n = out.col.size();
  const int red_ctas = static_cast<int>(ceil_div(out_n, kRedTile)) + 1;
  auto red = device.launch("merge.spgemm_reduce", red_ctas, cfg.block_threads,
                           [&](vgpu::Cta& cta) {
    const std::size_t lo = static_cast<std::size_t>(cta.cta_id()) * kRedTile;
    const std::size_t hi = std::min(out_n, lo + kRedTile);
    if (lo >= hi) return;
    const std::span<const std::uint32_t> lens(plan.entry_tiles_.data() + lo,
                                              hi - lo);
    const std::size_t read =
        std::accumulate(lens.begin(), lens.end(), std::size_t{0});
    cta.charge_warp_divergent(lens);
    cta.charge_global(read * sizeof(double) +
                      (hi - lo) * (sizeof(double) + 2 * sizeof(index_t)));
  });
  modeled_ms += red.modeled_ms;
  reduce_span.end();
  c = std::move(out);
  // Output postcondition under MPS_INTEGRITY_CHECK: offsets monotone,
  // columns in range, values finite.
  if (resilience::integrity_checks_enabled()) {
    modeled_ms += resilience::check_csr(device, c, "merge.spgemm: C");
  }
  return modeled_ms;
}

SpgemmStats spgemm(vgpu::Device& device, const CsrD& a, const CsrD& b, CsrD& c,
                   const SpgemmConfig& cfg) {
  return SpgemmBlock::run(device, a, b, 0, c, cfg);
}

std::vector<std::uint64_t> spgemm_row_prefix(const CsrD& a, const CsrD& b) {
  MPS_CHECK(a.num_cols == b.num_rows);
  const auto num_rows = static_cast<std::size_t>(a.num_rows);
  std::vector<std::uint64_t> prefix(num_rows + 1, 0);
  for (std::size_t r = 0; r < num_rows; ++r) {
    std::uint64_t row_products = 0;
    for (index_t k = a.row_offsets[r]; k < a.row_offsets[r + 1]; ++k) {
      row_products += static_cast<std::uint64_t>(
          b.row_length(a.col[static_cast<std::size_t>(k)]));
    }
    prefix[r + 1] = prefix[r] + row_products;
  }
  return prefix;
}

SpgemmStats spgemm_row_block(vgpu::Device& device, const CsrD& a,
                             const CsrD& b,
                             std::span<const std::uint64_t> row_prefix,
                             index_t row_begin, index_t row_end, CsrD& c_block,
                             const SpgemmConfig& cfg) {
  MPS_CHECK(row_prefix.size() == static_cast<std::size_t>(a.num_rows) + 1);
  MPS_CHECK(0 <= row_begin && row_begin <= row_end && row_end <= a.num_rows);
  util::WallTimer wall;
  const std::size_t log_before = device.log().size();
  try {
    return run_rows(device, a, b, row_prefix, row_begin, row_end, c_block, cfg);
  } catch (const vgpu::DeviceOomError&) {
    // The block unwound cleanly (accounting restored, c_block untouched).
    // Re-run its rows in chunks sized to the memory now free, and charge
    // the kernels the failed attempt launched before it overflowed.
    double wasted_ms = 0.0;
    for (std::size_t i = log_before; i < device.log().size(); ++i) {
      wasted_ms += device.log()[i].modeled_ms;
    }
    const std::size_t free_bytes =
        device.memory().capacity() - device.memory().in_use();
    SpgemmStats stats = run_chunks(
        device, a, b, row_prefix, row_begin, row_end,
        static_cast<std::size_t>(kFreeMemoryFraction *
                                 static_cast<double>(free_bytes)),
        c_block, cfg);
    stats.phases.other_ms += wasted_ms;
    stats.wall_ms = wall.milliseconds();
    return stats;
  }
}

SpgemmStats spgemm_chunked(vgpu::Device& device, const CsrD& a, const CsrD& b,
                           CsrD& c, const ChunkedConfig& cfg) {
  MPS_CHECK(a.num_cols == b.num_rows);
  if (sparse::strict_validation()) {
    sparse::validate_csr(a, "spgemm_chunked: A");
    sparse::validate_csr(b, "spgemm_chunked: B");
  }
  const std::vector<std::uint64_t> P = spgemm_row_prefix(a, b);
  if (cfg.chunk_bytes == 0) {
    return spgemm_row_block(device, a, b, P, 0, a.num_rows, c, cfg.flat);
  }
  return run_chunks(device, a, b, P, 0, a.num_rows, cfg.chunk_bytes, c,
                    cfg.flat);
}

}  // namespace mps::core::merge

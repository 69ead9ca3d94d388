#include "core/spgemm.hpp"

#include <algorithm>
#include <limits>
#include <memory>
#include <numeric>
#include <vector>

#include "primitives/cta_radix_sort.hpp"
#include "primitives/device_radix_sort.hpp"
#include "primitives/scan.hpp"
#include "primitives/search.hpp"
#include "resilience/integrity.hpp"
#include "sparse/convert.hpp"
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

/// Walks the product range [p_lo, p_hi) of the expansion described by the
/// scan S one source nonzero of A at a time, invoking fn(off, len, k, bk):
/// the range's products [off, off + len) are source k's, multiplying B's
/// entries [bk, bk + len).  Returns the number of sources the range
/// spans, counting those whose B row is empty.
template <typename Fn>
std::size_t expand_products(const CsrD& a, const CsrD& b,
                            std::span<const std::uint64_t> S, std::size_t p_lo,
                            std::size_t p_hi, Fn&& fn) {
  if (p_lo >= p_hi) return 0;
  const std::size_t a_nnz = static_cast<std::size_t>(a.nnz());
  const std::size_t k0 = primitives::segment_of(
      S.first(a_nnz), static_cast<std::uint64_t>(p_lo));
  std::size_t k = k0;
  for (std::size_t p = p_lo;; ++k) {
    const std::size_t end = std::min(static_cast<std::size_t>(S[k + 1]), p_hi);
    if (end > p) {
      const auto bk = static_cast<std::size_t>(
          b.row_offsets[static_cast<std::size_t>(a.col[k])]) +
          (p - static_cast<std::size_t>(S[k]));
      fn(p - p_lo, end - p, k, bk);
      p = end;
    }
    if (p == p_hi) break;
  }
  return k - k0 + 1;
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

/// Per-thread scratch of the block-sort, products and reduce CTA bodies,
/// reused across CTAs and launches so a CTA body allocates nothing.
struct CtaScratch {
  std::vector<index_t> rows, cols, urows, ucols;
  std::vector<std::uint32_t> order, row_order, hist, lens;
  std::vector<std::uint64_t> wide;
  std::vector<double> vals, sums;
};

CtaScratch& cta_scratch() {
  thread_local CtaScratch scratch;
  return scratch;
}

/// Grows `v` to at least `n` elements and returns its storage.
template <typename T>
T* at_least(std::vector<T>& v, std::size_t n) {
  if (v.size() < n) v.resize(n);
  return v.data();
}

/// A counting pass sorts keys that span at most this many values per
/// key; wider keys sort as (key, index) pairs instead.
constexpr std::size_t kCountingSpanPerKey = 8;

/// order[0..n) = the indices of keys[0..n) sorted by key, ties by index:
/// the stable order a radix sort on the keys produces.
void stable_order(const index_t* keys, std::size_t n, std::uint32_t* order,
                  CtaScratch& sc) {
  if (n == 0) return;
  const auto [lo_it, hi_it] = std::minmax_element(keys, keys + n);
  const index_t lo = *lo_it;
  const auto span = static_cast<std::size_t>(*hi_it - lo) + 1;
  if (span == 1) {
    std::iota(order, order + n, 0u);
    return;
  }
  if (span <= kCountingSpanPerKey * n) {
    sc.hist.assign(span, 0);
    std::uint32_t* hist = sc.hist.data();
    for (std::size_t i = 0; i < n; ++i) ++hist[keys[i] - lo];
    std::uint32_t acc = 0;
    for (std::size_t d = 0; d < span; ++d) {
      const std::uint32_t c = hist[d];
      hist[d] = acc;
      acc += c;
    }
    for (std::size_t i = 0; i < n; ++i) {
      order[hist[keys[i] - lo]++] = static_cast<std::uint32_t>(i);
    }
    return;
  }
  std::uint64_t* wide = at_least(sc.wide, n);
  for (std::size_t i = 0; i < n; ++i) {
    wide[i] = (static_cast<std::uint64_t>(keys[i]) << 32) | i;
  }
  std::sort(wide, wide + n);
  for (std::size_t i = 0; i < n; ++i) {
    order[i] = static_cast<std::uint32_t>(wide[i]);
  }
}

/// Sorts [first, last) made of ascending runs by bottom-up merging of
/// adjacent natural runs.  std::inplace_merge keeps the earlier run's
/// element first on ties.
void merge_natural_runs(std::uint64_t* first, std::uint64_t* last,
                        std::vector<std::size_t>& bounds) {
  const auto n = static_cast<std::size_t>(last - first);
  bounds.assign(1, 0);
  for (std::size_t i = 1; i < n; ++i) {
    if (first[i] < first[i - 1]) bounds.push_back(i);
  }
  if (bounds.size() == 1) return;
  bounds.push_back(n);
  while (bounds.size() > 2) {
    std::size_t out = 1;
    std::size_t i = 0;
    for (; i + 2 < bounds.size(); i += 2) {
      std::inplace_merge(first + bounds[i], first + bounds[i + 1],
                         first + bounds[i + 2]);
      bounds[out++] = bounds[i + 2];
    }
    if (i + 1 < bounds.size()) bounds[out++] = bounds[i + 1];
    bounds.resize(out);
  }
}

/// One block-sort CTA's unique tuples regrouped by row for the global
/// pass.  `ent` holds (col << 32 | u), u being the tuple's index in the
/// CTA's pre-sort (column-major) order, row by row in ascending row order
/// and, within a row, in ascending column order; `rows` holds each row's
/// (row, count).
struct CtaTuples {
  std::vector<std::uint64_t> ent;
  std::vector<std::pair<index_t, std::uint32_t>> rows;
};

/// Stable regrouping by row of a CTA's n uniques, given in column-major
/// order as (urow[u], ucol[u]).
void group_by_row(const index_t* urow, const index_t* ucol, std::size_t n,
                  CtaScratch& sc, CtaTuples& out) {
  std::uint32_t* order = at_least(sc.row_order, n);
  stable_order(urow, n, order, sc);
  out.ent.resize(n);
  out.rows.clear();
  for (std::size_t j = 0; j < n; ++j) {
    const std::uint32_t u = order[j];
    out.ent[j] = (static_cast<std::uint64_t>(ucol[u]) << 32) | u;
    if (out.rows.empty() || out.rows.back().first != urow[u]) {
      out.rows.emplace_back(urow[u], 0);
    }
    ++out.rows.back().second;
  }
}

/// The global sort's stable order and C's pattern, computed from the
/// structure of the block sort's output rather than by radix passes.
/// The device sort orders the per-CTA unique tuples, packed as
/// row << col_bits | col, by all their bits, ties by pre-sort position.
/// Two facts make that a per-row problem:
///   * rows never decrease from one CTA to the next, because the tiles
///     cut the row-major product stream in order;
///   * each CTA emits any one row's columns in ascending order, because
///     its tuples are sorted by column, ties by row.
/// So the order is a stable counting sort on rows, plus, in a row that
/// spans CTAs, a stable merge of its CTAs' runs in which the earlier run
/// wins ties.  The same per-row pass writes rank (pre-sort position ->
/// sorted index), C's columns and row offsets, and seg (each C entry's
/// range of the sorted stream).
void global_order_and_pattern(std::span<const CtaTuples> ctas,
                              std::span<const std::uint64_t> unique_offset,
                              std::vector<std::uint32_t>& rank,
                              std::vector<index_t>& seg, CsrD& c) {
  // One job per nonempty row of C: its CTA groups, in CTA order.
  struct Group {
    std::uint32_t cta, begin, count;
  };
  struct RowJob {
    index_t row;
    std::size_t group_begin, group_end;
    std::uint64_t start = 0;   ///< first index in the sorted stream
    std::uint64_t count = 0;   ///< tuples (sorted-stream entries)
    std::uint64_t merged = 0;  ///< offset into `spans` (spanning rows)
    index_t distinct = 0;      ///< C entries
    bool spans_ctas() const { return group_end - group_begin > 1; }
  };
  std::vector<Group> groups;
  std::vector<RowJob> jobs;
  std::uint64_t m = 0;
  for (std::size_t t = 0; t < ctas.size(); ++t) {
    std::uint32_t begin = 0;
    for (const auto& [row, count] : ctas[t].rows) {
      if (jobs.empty() || jobs.back().row != row) {
        MPS_CHECK(jobs.empty() || jobs.back().row < row);
        jobs.push_back({row, groups.size(), groups.size()});
        jobs.back().start = m;
      }
      groups.push_back({static_cast<std::uint32_t>(t), begin, count});
      jobs.back().group_end = groups.size();
      jobs.back().count += count;
      begin += count;
      m += count;
    }
  }
  MPS_CHECK(m <= std::numeric_limits<std::uint32_t>::max());
  std::uint64_t merged_size = 0;
  for (RowJob& job : jobs) {
    if (!job.spans_ctas()) continue;
    job.merged = merged_size;
    merged_size += job.count;
  }

  // Job ranges of about kGrain tuples each, run on the vgpu pool.  Every
  // job writes only its own row's outputs.
  constexpr std::uint64_t kGrain = 1 << 15;
  std::vector<std::size_t> cuts{0};
  for (std::size_t j = 0; j < jobs.size(); ++j) {
    if (jobs[j].start + jobs[j].count - jobs[cuts.back()].start >= kGrain) {
      cuts.push_back(j + 1);
    }
  }
  if (cuts.back() != jobs.size()) cuts.push_back(jobs.size());
  auto for_each_job = [&](auto&& fn) {
    vgpu::global_pool().parallel_for(cuts.size() - 1, [&](std::size_t r) {
      for (std::size_t j = cuts[r]; j < cuts[r + 1]; ++j) fn(jobs[j]);
    });
  };
  auto position = [&](const Group& g, std::uint64_t e) {
    return unique_offset[g.cta] + (e & 0xffffffffu);
  };

  // A row spanning CTAs merges its runs, as (col << 32 | position), in a
  // per-thread buffer, writes its ranks, and keeps only its C entries,
  // as (col << 32 | seg - start), in its slice of `spans`.  The slice is
  // sized for every tuple but filled only up to the row's entries, and
  // is left uninitialized, so the pages beyond them are never touched.
  rank.resize(m);
  const std::unique_ptr<std::uint64_t[]> spans(new std::uint64_t[merged_size]);
  for_each_job([&](RowJob& job) {
    if (!job.spans_ctas()) {
      job.distinct = static_cast<index_t>(job.count);
      return;
    }
    thread_local std::vector<std::uint64_t> run;
    thread_local std::vector<std::size_t> bounds;
    std::uint64_t* first = at_least(run, job.count);
    std::uint64_t* last = first;
    for (std::size_t gi = job.group_begin; gi < job.group_end; ++gi) {
      const Group& g = groups[gi];
      for (std::uint32_t k = 0; k < g.count; ++k) {
        const std::uint64_t e = ctas[g.cta].ent[g.begin + k];
        *last++ = (e & ~std::uint64_t{0xffffffffu}) | position(g, e);
      }
    }
    merge_natural_runs(first, last, bounds);
    std::uint64_t* out = spans.get() + job.merged;
    std::uint64_t prev_col = ~std::uint64_t{0};
    for (std::uint64_t k = 0; k < job.count; ++k) {
      const std::uint64_t col = first[k] >> 32;
      rank[first[k] & 0xffffffffu] = static_cast<std::uint32_t>(job.start + k);
      if (col != prev_col) {
        prev_col = col;
        out[job.distinct++] = (col << 32) | k;
      }
    }
  });

  const auto num_rows = static_cast<std::size_t>(c.num_rows);
  c.row_offsets.assign(num_rows + 1, 0);
  for (const RowJob& job : jobs) {
    c.row_offsets[static_cast<std::size_t>(job.row) + 1] = job.distinct;
  }
  for (std::size_t r = 0; r < num_rows; ++r) {
    c.row_offsets[r + 1] += c.row_offsets[r];
  }
  const auto out_n = static_cast<std::size_t>(c.row_offsets[num_rows]);
  c.col.resize(out_n);
  c.val.assign(out_n, 0.0);
  seg.resize(out_n + 1);
  for_each_job([&](const RowJob& job) {
    const auto e = static_cast<std::size_t>(
        c.row_offsets[static_cast<std::size_t>(job.row)]);
    if (job.spans_ctas()) {
      const std::uint64_t* entries = spans.get() + job.merged;
      for (index_t k = 0; k < job.distinct; ++k) {
        const auto ek = e + static_cast<std::size_t>(k);
        c.col[ek] = static_cast<index_t>(entries[k] >> 32);
        seg[ek] = static_cast<index_t>(job.start + (entries[k] & 0xffffffffu));
      }
      return;
    }
    const Group& g = groups[job.group_begin];
    for (std::uint32_t k = 0; k < g.count; ++k) {
      const std::uint64_t ent = ctas[g.cta].ent[g.begin + k];
      rank[position(g, ent)] = static_cast<std::uint32_t>(job.start + k);
      c.col[e + k] = static_cast<index_t>(ent >> 32);
      seg[e + k] = static_cast<index_t>(job.start + k);
    }
  });
  seg[out_n] = static_cast<index_t>(m);
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
  plan.col_bits_ = col_bits;
  plan.phase_ = static_cast<std::size_t>(origin % tile);

  // ======================= Setup =======================================
  // Row ids of A's nonzeros and the segmented product-offset scan S.
  telemetry::ScopedSpan setup_span("spgemm.setup");
  plan.a_rows_ = sparse::expand_row_indices(a);
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
    plan.seg_offsets_.assign(1, 0);
    stats.wall_ms = wall.milliseconds();
    out_plan = std::move(plan);
    return stats;
  }

  const std::size_t n_prod = static_cast<std::size_t>(num_products);
  const ProductTiling tiling{tile, plan.phase_, n_prod};
  const int num_ctas = tiling.num_ctas();
  plan.num_ctas_ = num_ctas;

  // Intermediate state carried between the two expansion passes — this is
  // the scheme's device footprint (what overflows on Dense): a 16-bit
  // local permutation and a head-flag bit per product, plus the plan's
  // smaller symbolic arrays.
  plan.device_mem_.emplace(device.memory(),
                           n_prod * sizeof(std::uint16_t) + n_prod / 8 + 1 +
                               (a_nnz + 1) * sizeof(std::uint64_t));
  plan.perm16_.reset(new std::uint16_t[n_prod]);
  plan.head_.reset(new std::uint8_t[n_prod]);

  // The key-rank embedding fits when col_bits + rank_bits <= 32; otherwise
  // fall back to a key-value pair sort (paper: "when possible").  Sorting
  // full-width keys (the bit-limiting ablation) would scramble embedded
  // ranks, so it forces the pair sort as well.
  stats.used_pair_sort =
      cfg.force_pair_sort || cfg.force_full_bits || (col_bits + rank_bits > 32);
  const int sort_bits = cfg.force_full_bits ? 32 : col_bits;

  // Per-CTA locally-unique tuples, then their compaction offsets.
  std::vector<CtaTuples> cta_tuples(static_cast<std::size_t>(num_ctas));
  plan.unique_offset_.assign(static_cast<std::size_t>(num_ctas) + 1, 0);

  // ======================= Block Sort ===================================
  telemetry::ScopedSpan block_sort_span("spgemm.block_sort");
  {
    primitives::CtaSortConfig sort_cfg;
    sort_cfg.block_threads = cfg.block_threads;
    sort_cfg.items_per_thread = cfg.items_per_thread;
    const bool pair_sort = stats.used_pair_sort;
    auto s = device.launch("merge.spgemm_blocksort", num_ctas, cfg.block_threads,
                           [&](vgpu::Cta& cta) {
      const auto cta_id = static_cast<std::size_t>(cta.cta_id());
      const std::size_t p_lo = tiling.lo(cta.cta_id());
      const std::size_t count = tiling.hi(cta.cta_id()) - p_lo;
      CtaScratch& sc = cta_scratch();
      index_t* rows = at_least(sc.rows, count);
      index_t* cols = at_least(sc.cols, count);
      const std::size_t sources = expand_products(
          a, b, S, p_lo, p_lo + count,
          [&](std::size_t off, std::size_t len, std::size_t k, std::size_t bk) {
            std::fill_n(rows + off, len, plan.a_rows_[k]);
            std::copy_n(b.col.begin() + static_cast<long>(bk), len, cols + off);
          });
      charge_expansion(cta, a_nnz, count, sources, /*with_values=*/false);

      // One bit-limited radix sort on column indices.  Expansion order is
      // (row-major, column-sorted within each source nonzero), so a single
      // STABLE pass on columns leaves equal (row, col) tuples adjacent.
      // Keys-only embeds the origin rank above the column bits; either
      // way the order is the stable column order, computed directly.
      primitives::cta_radix_sort_charge<std::uint32_t>(
          cta, count, pair_sort, 0, std::min(sort_bits, 32), sort_cfg);
      std::uint32_t* order = at_least(sc.order, count);
      stable_order(cols, count, order, sc);

      // Flag locally-unique tuples, store the permutation (16-bit) and the
      // reduced tuple set, regrouped by row for the global pass.
      std::uint16_t* perm = plan.perm16_.get() + p_lo;
      std::uint8_t* head = plan.head_.get() + p_lo;
      index_t* urows = at_least(sc.urows, count);
      index_t* ucols = at_least(sc.ucols, count);
      std::size_t u = 0;
      index_t prev_row = -1;
      index_t prev_col = -1;
      for (std::size_t s_i = 0; s_i < count; ++s_i) {
        const std::uint32_t o = order[s_i];
        const index_t row = rows[o];
        const index_t col = cols[o];
        const bool is_head = (row != prev_row) | (col != prev_col);
        perm[s_i] = static_cast<std::uint16_t>(o);
        head[s_i] = is_head;
        urows[u] = row;
        ucols[u] = col;
        u += is_head;
        prev_row = row;
        prev_col = col;
      }
      group_by_row(urows, ucols, u, sc, cta_tuples[cta_id]);
      plan.unique_offset_[cta_id] = u;
      // Permutation + flags + reduced tuples stream out.
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
  // tuple's rank.  Both are charged as launched; the host computes the
  // sort's stable order from the tuples' structure, together with C's
  // pattern (global_order_and_pattern).
  telemetry::ScopedSpan global_sort_span("spgemm.global_sort");
  const auto m = static_cast<std::size_t>(num_unique);
  vgpu::ScopedDeviceAlloc unique_mem(
      device.memory(),
      m * (sizeof(std::uint64_t) + 2 * sizeof(std::uint32_t)));
  const auto gsort = primitives::device_radix_sort_charge(
      device, "merge.spgemm_globalsort", m, 64, /*pairs=*/true,
      std::min(64, row_bits + col_bits));
  stats.phases.global_sort_ms += gsort.modeled_ms;
  global_order_and_pattern(cta_tuples, plan.unique_offset_, plan.rank_,
                           plan.seg_offsets_, plan.pattern_);
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
  // become C's entries, and seg_offsets_ records each entry's run so the
  // numeric phase reduces with a plain segmented sum.  The host did this
  // in global_order_and_pattern's row pass; the launch charges it.
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
  const std::size_t num_unique = plan.rank_.size();
  const ProductTiling tiling{tile, plan.phase_, n_prod};

  // ======================= Product Compute ==============================
  // Replay the expansion forming values, reduce within the CTA using the
  // stored permutation + flags, scatter partial sums into sorted order.
  telemetry::ScopedSpan products_span("spgemm.products");
  // Every entry is written once: rank is a permutation of the uniques.
  const std::unique_ptr<double[]> sorted_vals(new double[num_unique]);
  vgpu::ScopedDeviceAlloc vals_mem(device.memory(), num_unique * sizeof(double));
  auto s = device.launch("merge.spgemm_products", plan.num_ctas_,
                         cfg.block_threads, [&](vgpu::Cta& cta) {
    const std::size_t p_lo = tiling.lo(cta.cta_id());
    const std::size_t p_hi = tiling.hi(cta.cta_id());
    const std::size_t count = p_hi - p_lo;
    CtaScratch& sc = cta_scratch();
    double* vals = at_least(sc.vals, count);
    const std::size_t sources = expand_products(
        a, b, plan.prod_offsets_, p_lo, p_hi,
        [&](std::size_t off, std::size_t len, std::size_t k, std::size_t bk) {
          const double av = a.val[k];
          for (std::size_t i = 0; i < len; ++i) {
            vals[off + i] = av * b.val[bk + i];
          }
        });
    charge_expansion(cta, a_nnz, count, sources, /*with_values=*/true);

    // Permuted segmented reduction (stored perm + head flags): a unique's
    // partial sum is 0.0 plus its products in sorted order, kept per
    // unique without a branch, then scattered by global rank.
    const std::uint8_t* head = plan.head_.get() + p_lo;
    const std::uint16_t* perm = plan.perm16_.get() + p_lo;
    double* sums = at_least(sc.sums, count);
    std::size_t u = ~std::size_t{0};  // the first product is a head
    double acc = 0.0;
    for (std::size_t s_i = 0; s_i < count; ++s_i) {
      u += head[s_i];
      acc = (head[s_i] ? 0.0 : acc) + vals[perm[s_i]];
      sums[u] = acc;
    }
    const std::size_t wrote = u + 1;
    const std::uint32_t* rank =
        plan.rank_.data() + plan.unique_offset_[static_cast<std::size_t>(cta.cta_id())];
    for (std::size_t j = 0; j < wrote; ++j) sorted_vals[rank[j]] = sums[j];
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
  products_span.end();

  // ======================= Product Reduce ===============================
  telemetry::ScopedSpan reduce_span("spgemm.reduce");
  // Cross-CTA duplicates are adjacent in sorted order; the plan's segment
  // offsets turn the reduction into a plain segmented sum into C.
  constexpr std::size_t kRedTile = 2048;
  const std::size_t out_n = out.col.size();
  const int red_ctas = static_cast<int>(ceil_div(out_n, kRedTile)) + 1;
  auto red = device.launch("merge.spgemm_reduce", red_ctas, cfg.block_threads,
                           [&](vgpu::Cta& cta) {
    const std::size_t lo = static_cast<std::size_t>(cta.cta_id()) * kRedTile;
    const std::size_t hi = std::min(out_n, lo + kRedTile);
    if (lo >= hi) return;
    std::uint32_t* lens = at_least(cta_scratch().lens, hi - lo);
    std::size_t read = 0;
    for (std::size_t i = lo; i < hi; ++i) {
      double acc = 0.0;
      for (index_t k = plan.seg_offsets_[i]; k < plan.seg_offsets_[i + 1]; ++k) {
        acc += sorted_vals[static_cast<std::size_t>(k)];
      }
      out.val[i] = acc;
      const auto len = static_cast<std::uint32_t>(plan.seg_offsets_[i + 1] -
                                                  plan.seg_offsets_[i]);
      lens[i - lo] = len;
      read += len;
    }
    cta.charge_warp_divergent(std::span<const std::uint32_t>(lens, hi - lo));
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

#include "core/spgemm_chunked.hpp"

#include <algorithm>
#include <cstdint>
#include <vector>

#include "resilience/integrity.hpp"
#include "sparse/validate.hpp"
#include "util/timer.hpp"

namespace mps::core::merge {

using sparse::CsrD;

namespace {

/// Conservative device footprint of one flat-pipeline invocation over a
/// chunk with `n_prod` intermediate products and `a_nnz` source nonzeros:
/// perm16 + head bits + the product-offset scan, the unique-tuple arrays
/// (bounded by n_prod) and the global sort's ping-pong buffers, plus a
/// fixed floor for the scan/sort scratch of tiny chunks.
std::size_t chunk_footprint(std::uint64_t n_prod, std::uint64_t a_nnz) {
  return static_cast<std::size_t>(40 * n_prod + 16 * a_nnz + 4096);
}

/// Share of free device memory a chunk may claim when no budget is given.
/// Below 1.0 leaves headroom because chunk_footprint is an estimate of
/// the sort's transient allocations, not an exact charge.
constexpr double kFreeMemoryFraction = 0.5;

}  // namespace

ChunkedSpgemmStats spgemm_chunked(vgpu::Device& device, const CsrD& a,
                                  const CsrD& b, CsrD& c,
                                  const ChunkedConfig& cfg) {
  MPS_CHECK(a.num_cols == b.num_rows);
  if (sparse::strict_validation()) {
    sparse::validate_csr(a, "spgemm_chunked: A");
    sparse::validate_csr(b, "spgemm_chunked: B");
  }
  util::WallTimer wall;
  ChunkedSpgemmStats stats;

  // The chunking measure and each chunk's tile origin (spgemm_row_block).
  const std::vector<std::uint64_t> P = spgemm_row_prefix(a, b);
  const auto num_rows = static_cast<std::size_t>(a.num_rows);
  stats.num_products = static_cast<long long>(P[num_rows]);

  const std::size_t free_bytes =
      device.memory().capacity() - device.memory().in_use();
  stats.chunk_budget_bytes =
      cfg.chunk_bytes > 0
          ? cfg.chunk_bytes
          : static_cast<std::size_t>(kFreeMemoryFraction *
                                     static_cast<double>(free_bytes));

  // Built locally and assigned to `c` only on success (strong guarantee).
  CsrD out(0, b.num_cols);

  std::size_t r0 = 0;
  while (r0 < num_rows) {
    // Greedy: extend the chunk while its estimated footprint fits the
    // budget; a row is the atomic unit, so a chunk always takes at least
    // one row even when that row alone overshoots (the per-chunk pipeline
    // then reports the genuine OOM).
    std::size_t r1 = r0 + 1;
    while (r1 < num_rows &&
           chunk_footprint(P[r1 + 1] - P[r0],
                           static_cast<std::uint64_t>(a.row_offsets[r1 + 1] -
                                                      a.row_offsets[r0])) <=
               stats.chunk_budget_bytes) {
      ++r1;
    }

    CsrD c_sub;
    const SpgemmStats sub_stats =
        spgemm_row_block(device, a, b, P, static_cast<index_t>(r0),
                         static_cast<index_t>(r1), c_sub, cfg.flat);

    stats.phases.setup_ms += sub_stats.phases.setup_ms;
    stats.phases.block_sort_ms += sub_stats.phases.block_sort_ms;
    stats.phases.global_sort_ms += sub_stats.phases.global_sort_ms;
    stats.phases.product_compute_ms += sub_stats.phases.product_compute_ms;
    stats.phases.product_reduce_ms += sub_stats.phases.product_reduce_ms;
    stats.phases.other_ms += sub_stats.phases.other_ms;

    // Stitch: chunk-local rows r - r0 land at global rows r.
    sparse::append_rows(out, c_sub);

    ++stats.num_chunks;
    r0 = r1;
  }

  c = std::move(out);
  // Chunk outputs were checked inside spgemm; this covers the stitched
  // result under MPS_INTEGRITY_CHECK.
  if (resilience::integrity_checks_enabled()) {
    stats.phases.other_ms +=
        resilience::check_csr(device, c, "merge.spgemm_chunked: C");
  }
  stats.wall_ms = wall.milliseconds();
  return stats;
}

}  // namespace mps::core::merge

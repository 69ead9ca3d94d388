#pragma once
// Merge-path SpGEMM (paper Section III-C, Figures 3 and 11).
//
// The intermediate product stream (one entry per FLOP of the expansion)
// is partitioned at product granularity: every CTA receives exactly
// `tile` products irrespective of the rows they came from.  Processing is
// split into the paper's phases:
//
//   Setup           — scan of |B_row(A.col[k])| over A's nonzeros -> S,
//                     the product-offset array (work = num_products);
//   Block Sort      — each CTA expands its products' (row, col) indices
//                     (values stay unformed, Fig 3's "x"), runs ONE
//                     bit-limited CTA radix sort on the column indices
//                     (origin rank embedded in the unused upper key bits
//                     when it fits, else a key-value sort), flags and
//                     stores the locally-unique tuples plus the 16-bit
//                     local permutation;
//   Global Sort     — device radix sort of the locally reduced tuples,
//                     computing only a permutation (still no values);
//   Product Compute — the expansion replays, forming products this time;
//                     the stored local permutation and head flags reduce
//                     them within the CTA and the global ranks scatter the
//                     partial sums into globally sorted order;
//   Product Reduce  — reduce-by-key over the sorted stream forms C;
//   Other           — row-pointer construction and misc memory ops.
//
// Every phase is launched and charged as the modeled kernel above, but
// the host does its own work in two Gustavson row passes over A (see
// docs/cost_model.md):
//
//   symbolic (SpgemmPlan build) — C's pattern plus the counts the charges
//                     read: each tile's distinct (row, col) tuples and
//                     each C entry's number of tiles;
//   numeric         — each C entry starts at +0.0 and adds a_val * b_val
//                     in ascending product position: seq::spgemm's order,
//                     so C is its bits under every tiling.
//
// No sort order, permutation or per-product array exists on the host.

#include <cstddef>
#include <cstdint>
#include <optional>
#include <span>
#include <vector>

#include "sparse/csr.hpp"
#include "vgpu/device.hpp"

namespace mps::core::merge {

struct SpgemmConfig {
  int block_threads = 128;
  int items_per_thread = 11;  ///< the Fig 4 CTA geometry (tile = 1408)
  /// Disable the keys-only permutation-embedding optimization (ablation).
  bool force_pair_sort = false;
  /// Disable bit-limiting: always sort full 32-bit columns (ablation).
  bool force_full_bits = false;
  int tile() const { return block_threads * items_per_thread; }
};

/// Per-phase modeled time; the components of the paper's Figure 11.
struct SpgemmPhases {
  double setup_ms = 0.0;
  double block_sort_ms = 0.0;
  double global_sort_ms = 0.0;
  double product_compute_ms = 0.0;
  double product_reduce_ms = 0.0;
  double other_ms = 0.0;
  double total_ms() const {
    return setup_ms + block_sort_ms + global_sort_ms + product_compute_ms +
           product_reduce_ms + other_ms;
  }
};

struct SpgemmStats {
  SpgemmPhases phases;
  long long num_products = 0;   ///< paper's work measure (Fig 10 x-axis)
  long long block_unique = 0;   ///< tuples surviving the CTA-level reduction
  bool used_pair_sort = false;  ///< permutation embedding did not fit
  int num_chunks = 1;           ///< row blocks run (1: one flat block)
  double wall_ms = 0.0;
  double modeled_ms() const { return phases.total_ms(); }
};

/// C = A x B, the paper's flat pipeline.  Throws vgpu::DeviceOomError when
/// the intermediate exceeds device memory (the paper's Dense case in Fig 9);
/// on any throw, device accounting is restored and `c` is untouched (strong
/// guarantee).  spgemm_chunked is the bounded-memory entry point.
SpgemmStats spgemm(vgpu::Device& device, const sparse::CsrD& a,
                   const sparse::CsrD& b, sparse::CsrD& c,
                   const SpgemmConfig& cfg = {});

// Row blocks: the one rule that makes a row-split SpGEMM (spgemm_chunked,
// shard::spgemm) bitwise identical to flat and its charges those of the
// same tiles.  A block of whole rows of A owns every product of its
// output rows, so no sum crosses a block, and each row's values come
// from the same row pass as flat's.  Its products are tiled as if they
// sat at their *global* position in the flat product stream — CTA
// boundaries at multiples of tile() counted from product 0 of the whole
// A — so each tile holds the same products it holds in flat.

/// Per-row product prefix of A x B: entry r is the global index of row
/// r's first intermediate product (a.num_rows + 1 entries; the last is
/// the total product count).
std::vector<std::uint64_t> spgemm_row_prefix(const sparse::CsrD& a,
                                             const sparse::CsrD& b);

/// Rows [row_begin, row_end) of C = A x B into `c_block` (row_end -
/// row_begin rows, B's columns), tiled at the block's global product
/// origin row_prefix[row_begin] (`row_prefix` from spgemm_row_prefix).
/// Bitwise equal to those rows of spgemm(a, b).
///
/// The memory-pressure rule: the block first runs as one flat pipeline.
/// If that throws DeviceOomError, real or injected, its rows re-run as
/// whole-row sub-blocks sized to half the device's free memory.  It
/// throws only when a single row's expansion cannot fit.  Strong
/// guarantee: on throw, device accounting is restored and `c_block` is
/// untouched.
SpgemmStats spgemm_row_block(vgpu::Device& device, const sparse::CsrD& a,
                             const sparse::CsrD& b,
                             std::span<const std::uint64_t> row_prefix,
                             index_t row_begin, index_t row_end,
                             sparse::CsrD& c_block,
                             const SpgemmConfig& cfg = {});

struct ChunkedConfig {
  SpgemmConfig flat;  ///< geometry forwarded to each chunk's pipeline
  /// Per-chunk device budget in bytes.  0: spgemm_row_block over all of
  /// A (flat, stepping down to chunks only on DeviceOomError); > 0:
  /// chunks sized to this budget from the start, with no step-down.
  std::size_t chunk_bytes = 0;
};

/// C = A x B with bounded device footprint; bitwise identical to
/// spgemm().  Strong guarantee as spgemm_row_block.
SpgemmStats spgemm_chunked(vgpu::Device& device, const sparse::CsrD& a,
                           const sparse::CsrD& b, sparse::CsrD& c,
                           const ChunkedConfig& cfg = {});

/// Reusable symbolic state: everything that depends only on the sparsity
/// patterns of A and B.  Amortizes the setup/block-sort/global-sort work
/// across repeated multiplications with identical structure (the AMG and
/// graph-update pattern real SpGEMM libraries serve with their
/// symbolic/numeric split).  On the host it holds S, C's pattern and the
/// counts the numeric launches charge; it reserves the modeled kernel's
/// intermediate arrays (permutation, head flags, S) in accounted device
/// memory for its lifetime.
class SpgemmPlan {
 public:
  SpgemmPlan() = default;
  SpgemmPlan(SpgemmPlan&&) = default;
  SpgemmPlan& operator=(SpgemmPlan&&) = default;
  SpgemmPlan(const SpgemmPlan&) = delete;
  SpgemmPlan& operator=(const SpgemmPlan&) = delete;

  bool valid() const { return num_products_ >= 0; }
  long long num_products() const { return num_products_; }
  index_t output_nnz() const { return pattern_.nnz(); }

 private:
  /// The symbolic phase with CTA tiles aligned to global product `origin`
  /// (0 for a whole matrix; a row block's prefix for a row block).
  static SpgemmStats build(vgpu::Device& device, const sparse::CsrD& a,
                           const sparse::CsrD& b, SpgemmPlan& out_plan,
                           const SpgemmConfig& cfg, std::uint64_t origin);

  /// spgemm.cpp's one-block multiply (flat spgemm, and every row block).
  friend struct SpgemmBlock;
  friend SpgemmStats spgemm_symbolic(vgpu::Device&, const sparse::CsrD&,
                                     const sparse::CsrD&, SpgemmPlan&,
                                     const SpgemmConfig&);
  friend double spgemm_numeric(vgpu::Device&, const sparse::CsrD&,
                               const sparse::CsrD&, const SpgemmPlan&,
                               sparse::CsrD&);

  SpgemmConfig cfg_;
  long long num_products_ = -1;
  int num_ctas_ = 0;
  std::size_t phase_ = 0;  ///< origin % tile: first CTA's shortfall
  std::vector<std::uint64_t> prod_offsets_;   ///< S: per-A-nonzero scan
  /// Per-CTA base into the locally-unique tuples (the exclusive scan of
  /// each tile's distinct C entries); the last entry is their total.
  std::vector<std::uint64_t> unique_offset_;
  /// Per C entry, the number of tiles holding one of its products: its
  /// run length in the globally sorted stream, which the reduce charges.
  std::vector<std::uint32_t> entry_tiles_;
  sparse::CsrD pattern_;                      ///< C's structure (values zeroed)
  std::optional<vgpu::ScopedDeviceAlloc> device_mem_;
};

/// Build the symbolic plan and C's sparsity pattern (c gets structure with
/// zero-initialized values via spgemm_numeric).  The returned stats cover
/// only the symbolic phases.
SpgemmStats spgemm_symbolic(vgpu::Device& device, const sparse::CsrD& a,
                            const sparse::CsrD& b, SpgemmPlan& plan,
                            const SpgemmConfig& cfg = {});

/// Numeric phase: recompute C's values for (possibly new) values of A and
/// B whose sparsity patterns match the plan's.  Returns modeled ms (the
/// product-compute + product-reduce cost only).  Throws PlanMismatchError
/// when the matrices drifted from the plan's (C's shape, a product count
/// or a product's column); `c` is then untouched.
double spgemm_numeric(vgpu::Device& device, const sparse::CsrD& a,
                      const sparse::CsrD& b, const SpgemmPlan& plan,
                      sparse::CsrD& c);

}  // namespace mps::core::merge

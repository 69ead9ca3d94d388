#pragma once
// shard::ShardedMatrix — a CSR matrix partitioned into nnz-balanced row
// blocks for multi-device execution (docs/sharding.md).
//
// Each shard owns a standalone local CSR: its row block with offsets
// rebased to zero and columns remapped onto the shard's *halo* — the
// sorted set of global columns its nonzeros actually touch.  The remap
// is monotone (ascending), so within every local row the nonzeros keep
// their global ascending-k order and their exact values; gathering
// x[xmap[l]] into a local input vector therefore hands the local kernel
// bit-for-bit the same multiplicands, in the same order, as the global
// kernel sees for those rows.  Since merge SpMV's output is bitwise
// equal to the sequential ascending-k per-row sum at ANY tile geometry
// (src/core/spmv_impl.hpp's update phase; pinned by tests/oracle.hpp),
// per-shard results concatenate into exactly the single-device answer —
// the determinism argument in docs/sharding.md.
//
// Optional 2D split (split_2d_nnz > 0): rows with at least that many
// nonzeros are extracted from their shard's local matrix and cut into
// one contiguous nonzero segment per shard.  Segment partials are
// reduced in fixed segment order, which is deterministic run-to-run but
// NOT bitwise-identical to the unsharded sum (the fp regrouping is
// real), which is why it defaults off and is gated behind an explicit
// knob (serve::EngineConfig::shard_2d_nnz).

#include <cstddef>
#include <span>
#include <vector>

#include "shard/partition.hpp"
#include "sparse/csr.hpp"

namespace mps::shard {

/// One row-block shard: local CSR plus the halo gather map.
struct Shard {
  index_t row_begin = 0;
  index_t row_end = 0;
  int device = -1;  ///< fleet slot ordinal this shard is placed on
  double weight = 1.0;  ///< placement weight the cut was made with
  /// Rows rebased to [0, row_end - row_begin); columns remapped onto the
  /// halo (num_cols == xmap.size()).
  sparse::CsrD local;
  /// Monotone halo map: local column l corresponds to global column
  /// xmap[l].  The modeled halo exchange transfers exactly these
  /// entries of x to the shard's device.
  std::vector<index_t> xmap;
};

/// One column segment of a 2D-split dense row, with its own copy of the
/// segment's nonzeros (ascending global k order preserved).
struct DenseRowSegment {
  int device = -1;
  std::vector<index_t> col;
  std::vector<double> val;
};

/// A dense row extracted for 2D execution: the fixed, ascending-k
/// segment list whose partials are reduced in index order.
struct DenseRow {
  index_t row = 0;
  std::vector<DenseRowSegment> segments;
};

struct ShardOptions {
  /// Rows with >= this many nonzeros split by column (0 = off).
  long long split_2d_nnz = 0;
};

class ShardedMatrix {
 public:
  using Options = ShardOptions;

  /// Partition `a` into device_ordinals.size() row blocks with diagonal
  /// spans proportional to `weights` (partition_rows), building each
  /// shard's local CSR and halo map.  Deterministic: a pure function of
  /// (a, ordinals, weights, options).
  ShardedMatrix(const sparse::CsrD& a, std::span<const int> device_ordinals,
                std::span<const double> weights, const Options& options = {});

  index_t num_rows() const { return num_rows_; }
  index_t num_cols() const { return num_cols_; }
  const std::vector<Shard>& shards() const { return shards_; }
  const std::vector<DenseRow>& dense_rows() const { return dense_rows_; }

  /// Bytes of x the halo exchange moves for one SpMV (sum of every
  /// shard's |xmap| doubles).  >= num_cols * 8 only when rows overlap in
  /// column support across shards.
  std::size_t halo_bytes() const;

 private:
  index_t num_rows_ = 0;
  index_t num_cols_ = 0;
  std::vector<Shard> shards_;
  std::vector<DenseRow> dense_rows_;
};

}  // namespace mps::shard

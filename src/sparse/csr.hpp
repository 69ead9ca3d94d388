#pragma once
// Compressed sparse row (CSR) matrix.

#include <vector>

#include "util/common.hpp"

namespace mps::sparse {

template <typename V>
struct CsrMatrix {
  using value_type = V;

  index_t num_rows = 0;
  index_t num_cols = 0;
  /// num_rows + 1 offsets; row i spans [row_offsets[i], row_offsets[i+1]).
  std::vector<index_t> row_offsets;
  std::vector<index_t> col;
  std::vector<V> val;

  CsrMatrix() = default;
  CsrMatrix(index_t rows, index_t cols)
      : num_rows(rows), num_cols(cols), row_offsets(static_cast<std::size_t>(rows) + 1, 0) {}

  index_t nnz() const {
    return row_offsets.empty() ? 0 : row_offsets.back();
  }

  index_t row_length(index_t r) const {
    return row_offsets[static_cast<std::size_t>(r) + 1] -
           row_offsets[static_cast<std::size_t>(r)];
  }

  /// Structural validity: monotone offsets, matching array sizes,
  /// column indices in range and ascending within each row.
  bool is_valid() const {
    if (row_offsets.size() != static_cast<std::size_t>(num_rows) + 1) return false;
    if (row_offsets.front() != 0) return false;
    for (std::size_t i = 1; i < row_offsets.size(); ++i) {
      if (row_offsets[i] < row_offsets[i - 1]) return false;
    }
    if (col.size() != static_cast<std::size_t>(nnz())) return false;
    if (val.size() != col.size()) return false;
    for (index_t r = 0; r < num_rows; ++r) {
      for (index_t k = row_offsets[r]; k < row_offsets[r + 1]; ++k) {
        if (col[static_cast<std::size_t>(k)] < 0 ||
            col[static_cast<std::size_t>(k)] >= num_cols)
          return false;
        if (k > row_offsets[r] &&
            col[static_cast<std::size_t>(k - 1)] >= col[static_cast<std::size_t>(k)])
          return false;
      }
    }
    return true;
  }

  bool has_empty_rows() const {
    for (index_t r = 0; r < num_rows; ++r) {
      if (row_length(r) == 0) return true;
    }
    return false;
  }

  /// Accounted device footprint in bytes.
  std::size_t device_bytes() const {
    return row_offsets.size() * sizeof(index_t) +
           col.size() * (sizeof(index_t) + sizeof(V));
  }
};

using CsrD = CsrMatrix<double>;

/// The row slice [row_begin, row_end) of `a` as a standalone CSR with
/// rebased offsets and ORIGINAL column ids (num_cols is preserved).
/// The building block of row-block matrix ops (core::merge row blocks,
/// src/shard): per-slice kernel output stitches back into the full
/// result because columns keep their global meaning.
template <typename V>
CsrMatrix<V> row_slice(const CsrMatrix<V>& a, index_t row_begin,
                       index_t row_end) {
  CsrMatrix<V> sub;
  sub.num_rows = row_end - row_begin;
  sub.num_cols = a.num_cols;
  const index_t k0 = a.row_offsets[static_cast<std::size_t>(row_begin)];
  const index_t k1 = a.row_offsets[static_cast<std::size_t>(row_end)];
  sub.row_offsets.resize(static_cast<std::size_t>(sub.num_rows) + 1);
  for (index_t r = row_begin; r <= row_end; ++r) {
    sub.row_offsets[static_cast<std::size_t>(r - row_begin)] =
        a.row_offsets[static_cast<std::size_t>(r)] - k0;
  }
  sub.col.assign(a.col.begin() + k0, a.col.begin() + k1);
  sub.val.assign(a.val.begin() + k0, a.val.begin() + k1);
  return sub;
}

/// Append `sub`'s rows to `c`; columns are already global.  The inverse
/// of row_slice: per-slice outputs stitched in slice order rebuild the
/// full result.
template <typename V>
void append_rows(CsrMatrix<V>& c, const CsrMatrix<V>& sub) {
  const index_t base = c.nnz();
  for (index_t r = 0; r < sub.num_rows; ++r) {
    c.row_offsets.push_back(base +
                            sub.row_offsets[static_cast<std::size_t>(r) + 1]);
  }
  c.num_rows += sub.num_rows;
  c.col.insert(c.col.end(), sub.col.begin(), sub.col.end());
  c.val.insert(c.val.end(), sub.val.begin(), sub.val.end());
}

}  // namespace mps::sparse

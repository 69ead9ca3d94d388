#pragma once
// Structural and numerical comparison of sparse matrices (test support,
// but also part of the public API for validating user pipelines).

#include <cmath>
#include <cstring>
#include <span>
#include <string>

#include "sparse/convert.hpp"
#include "sparse/csr.hpp"

namespace mps::sparse {

struct CompareResult {
  bool equal = true;
  std::string detail;  ///< first difference, human-readable
};

/// Bitwise equality of two value arrays (sign of zero and NaN payloads
/// included).
template <typename V>
bool same_bits(std::span<const V> a, std::span<const V> b) {
  return a.size() == b.size() &&
         (a.empty() ||
          std::memcmp(a.data(), b.data(), a.size() * sizeof(V)) == 0);
}

/// Same sparsity pattern: same shape, row offsets and columns, whatever
/// the values.
template <typename V>
bool same_pattern(const CsrMatrix<V>& a, const CsrMatrix<V>& b) {
  return a.num_rows == b.num_rows && a.num_cols == b.num_cols &&
         a.row_offsets == b.row_offsets && a.col == b.col;
}

/// Bitwise equality of two CSR matrices: same pattern and same value
/// bits.  The check for a scheme that reproduces the sequential
/// reference's accumulation order.
template <typename V>
bool same_bits(const CsrMatrix<V>& a, const CsrMatrix<V>& b) {
  return same_pattern(a, b) &&
         same_bits(std::span<const V>(a.val), std::span<const V>(b.val));
}

/// Compare two CSR matrices entry-by-entry.  Structure must match exactly;
/// values must agree within `rtol * max(|a|,|b|) + atol` (the baseline
/// SpGEMM schemes reduce products in their own orders, so exact equality
/// is not expected of them).
template <typename V>
CompareResult compare_csr(const CsrMatrix<V>& a, const CsrMatrix<V>& b,
                          double rtol = 1e-10, double atol = 1e-12) {
  CompareResult res;
  auto fail = [&](std::string d) {
    res.equal = false;
    res.detail = std::move(d);
    return res;
  };
  if (a.num_rows != b.num_rows || a.num_cols != b.num_cols)
    return fail("shape mismatch");
  if (a.nnz() != b.nnz())
    return fail("nnz mismatch: " + std::to_string(a.nnz()) + " vs " +
                std::to_string(b.nnz()));
  for (index_t r = 0; r < a.num_rows; ++r) {
    if (a.row_offsets[static_cast<std::size_t>(r) + 1] !=
        b.row_offsets[static_cast<std::size_t>(r) + 1])
      return fail("row_offsets mismatch at row " + std::to_string(r));
  }
  for (std::size_t k = 0; k < a.col.size(); ++k) {
    if (a.col[k] != b.col[k])
      return fail("column mismatch at nnz " + std::to_string(k) + ": " +
                  std::to_string(a.col[k]) + " vs " + std::to_string(b.col[k]));
    const double av = static_cast<double>(a.val[k]);
    const double bv = static_cast<double>(b.val[k]);
    const double tol = rtol * std::max(std::abs(av), std::abs(bv)) + atol;
    if (std::abs(av - bv) > tol)
      return fail("value mismatch at nnz " + std::to_string(k) + ": " +
                  std::to_string(av) + " vs " + std::to_string(bv));
  }
  return res;
}

}  // namespace mps::sparse

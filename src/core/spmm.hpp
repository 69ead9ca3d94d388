#pragma once
// Merge-path SpMM: Y = A X for a dense block of `num_vectors` right-hand
// sides (row-major X and Y).  SpMM is merge SpMV over k vectors: the same
// launch, split and accumulation order, each nonzero multiplying a row of
// X (its first value a gather, the rest streamed — the reason blocked
// SpMV is a standard library feature).  Column j of Y is bitwise spmv of
// column j of X.  spmv / spmv_execute (spmv.hpp) take the vector count
// for the full stats and the planned form; spmm is the one-shot summary.

#include <span>

#include "core/spmv.hpp"
#include "sparse/csr.hpp"
#include "vgpu/device.hpp"

namespace mps::core::merge {

struct SpmmStats {
  double modeled_ms = 0.0;
  double wall_ms = 0.0;
  int num_ctas = 0;
};

/// Y = A X.  X is row-major (A.num_cols x num_vectors); Y is row-major
/// (A.num_rows x num_vectors) and fully overwritten.  Runs
/// spmv(device, a, x, y, {}, num_vectors).
SpmmStats spmm(vgpu::Device& device, const sparse::CsrD& a,
               std::span<const double> x, index_t num_vectors,
               std::span<double> y);

/// Single-precision variant.
SpmmStats spmm(vgpu::Device& device, const sparse::CsrMatrix<float>& a,
               std::span<const float> x, index_t num_vectors,
               std::span<float> y);

}  // namespace mps::core::merge

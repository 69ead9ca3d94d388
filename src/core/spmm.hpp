#pragma once
// Merge-path SpMM: Y = A X for a dense block of `num_vectors` right-hand
// sides (row-major X and Y).  Same flat nonzero decomposition as SpMV;
// each product row of the tile touches `num_vectors` consecutive values
// of X, so the gathers amortize into short coalesced bursts — the reason
// blocked SpMV is a standard library feature.  One launch: the inter-CTA
// carry update runs as its serialized last-CTA tail.

#include <span>

#include "sparse/csr.hpp"
#include "vgpu/device.hpp"

namespace mps::core::merge {

struct SpmmStats {
  double modeled_ms = 0.0;
  double wall_ms = 0.0;
  int num_ctas = 0;
};

/// Y = A X.  X is row-major (A.num_cols x num_vectors); Y is row-major
/// (A.num_rows x num_vectors) and fully overwritten.
SpmmStats spmm(vgpu::Device& device, const sparse::CsrD& a,
               std::span<const double> x, index_t num_vectors,
               std::span<double> y);

/// Single-precision variant.
SpmmStats spmm(vgpu::Device& device, const sparse::CsrMatrix<float>& a,
               std::span<const float> x, index_t num_vectors,
               std::span<float> y);

}  // namespace mps::core::merge

#pragma once
// Balanced-path SpAdd (paper Section III-B).
//
// Sparse matrix addition is formulated as a *set union* over (row, col)
// tuple keys (Algorithm 1's ordering packs into a 64-bit integer key).
// The two-phase scheme — count unique tuples / allocate / emit — is built
// on the balanced-path device set operation, so every CTA processes the
// same number of tuples no matter how the rows are segmented.
//
// The device is charged for that pipeline (key packing, then
// primitives::set_op_charge's partition / count / scan / emit) from the
// balanced-path fences and each tile's output offset.  The host writes C
// straight into CSR with one row merge, which passes every fence: each
// entry is one copy or one a + b, exactly as seq::spadd forms it (see
// "Charge and order" in docs/primitives.md).

#include "sparse/coo.hpp"
#include "sparse/csr.hpp"
#include "vgpu/device.hpp"

namespace mps::core::merge {

struct SpaddStats {
  double modeled_ms = 0.0;
  double wall_ms = 0.0;
  int num_chunks = 1;  ///< row blocks run (1: one flat block)
};

/// C = A + B.  Inputs must be canonical COO (sorted by (row, col), no
/// duplicate tuples); the result is canonical.
SpaddStats spadd(vgpu::Device& device, const sparse::CooD& a, const sparse::CooD& b,
                 sparse::CooD& c);

/// Single-precision variant.
SpaddStats spadd(vgpu::Device& device, const sparse::CooMatrix<float>& a,
                 const sparse::CooMatrix<float>& b, sparse::CooMatrix<float>& c);

/// General linear combination C = alpha A + beta B (csrgeam semantics:
/// the pattern is the union of the inputs' patterns even when entries
/// cancel numerically).  Same balanced-path engine; the scaling rides in
/// the per-side value loads at no extra modeled cost.
SpaddStats spadd_scaled(vgpu::Device& device, double alpha, const sparse::CooD& a,
                        double beta, const sparse::CooD& b, sparse::CooD& c);

/// C = A + B on canonical CSR (columns strictly ascending in each row),
/// charged exactly as spadd on the same tuples in COO.  Throws
/// vgpu::DeviceOomError when the block does not fit; on any throw,
/// device accounting is restored and `c` is untouched.
SpaddStats spadd_csr(vgpu::Device& device, const sparse::CsrD& a,
                     const sparse::CsrD& b, sparse::CsrD& c);

/// Rows [row_begin, row_end) of C = A + B into `c_block` (row_end -
/// row_begin rows, original column ids), charged as spadd_csr over those
/// rows of A and B.  Each entry of C is one copy or one a + b, so any row
/// split is bitwise equal to the same rows of spadd_csr(a, b).
///
/// The memory-pressure rule (spgemm_row_block's): the block first runs
/// flat.  If that throws DeviceOomError, real or injected, its rows
/// re-run as whole-row chunks sized to half the device's free memory,
/// and the failed attempt's launches are charged too.  It throws only
/// when a single row cannot fit.  Strong guarantee as spadd_csr.
SpaddStats spadd_row_block(vgpu::Device& device, const sparse::CsrD& a,
                           const sparse::CsrD& b, index_t row_begin,
                           index_t row_end, sparse::CsrD& c_block);

}  // namespace mps::core::merge

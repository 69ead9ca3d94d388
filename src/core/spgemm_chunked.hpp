#pragma once
// Chunked merge-path SpGEMM: the one bounded-memory SpGEMM, and the
// fallback for the paper's Dense case, where the flat pipeline's
// intermediate product stream does not fit in device memory.
//
// A is split into contiguous whole-row chunks sized so each chunk's
// device footprint stays under a budget; each chunk runs the flat merge
// pipeline as a row block (spgemm_row_block) and the per-chunk outputs
// are stitched into C.
//
// The stitched result is BITWISE identical to the flat path's:
//
//   * chunks are whole-row ranges, so every output tuple's intermediate
//     products live entirely inside one chunk — no partial sum ever
//     crosses a chunk boundary;
//   * each chunk is tiled at its global product prefix (the row-block
//     rule in spgemm.hpp), so the per-tuple partial-sum grouping (which
//     products each CTA reduces together) matches flat exactly, and
//     floating-point sums follow the identical association order.
//
// Rows are the atomic unit: a chunk never splits one row of A.  When a
// single row's expansion alone exceeds the memory available, the chunk
// holding it throws vgpu::DeviceOomError.

#include <cstddef>

#include "core/spgemm.hpp"
#include "sparse/csr.hpp"
#include "vgpu/device.hpp"

namespace mps::core::merge {

struct ChunkedConfig {
  SpgemmConfig flat;  ///< geometry forwarded to each chunk's pipeline
  /// Absolute per-chunk device budget in bytes; 0 gives each chunk half
  /// of the device's free memory.
  std::size_t chunk_bytes = 0;
};

struct ChunkedSpgemmStats {
  int num_chunks = 0;
  long long num_products = 0;          ///< total across all chunks
  SpgemmPhases phases;                 ///< summed across chunks
  std::size_t chunk_budget_bytes = 0;  ///< the budget chunks were sized to
  double wall_ms = 0.0;
  double modeled_ms() const { return phases.total_ms(); }
};

/// C = A x B with bounded device footprint; bitwise identical to
/// spgemm().  Strong guarantee: on throw, device accounting is restored
/// and `c` is untouched.
ChunkedSpgemmStats spgemm_chunked(vgpu::Device& device, const sparse::CsrD& a,
                                  const sparse::CsrD& b, sparse::CsrD& c,
                                  const ChunkedConfig& cfg = {});

}  // namespace mps::core::merge

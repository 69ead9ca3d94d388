#pragma once
// Adaptive SpGEMM — the paper's Section V future work, implemented.
//
// Sort-based SpGEMM pays for its obliviousness when the intermediate is
// huge relative to the output (Dense: near-zero duplicates per CTA, so
// the global pass sorts almost everything).  spgemm_adaptive has
// three tiers:
//
//   * dense-like — the expansion's mean products per output row, from the
//     setup scan alone, exceeds density_threshold of the output row
//     width: the segmented row-wise scheme (reason "dense-like");
//   * otherwise the flat merge pipeline (reason "flat");
//   * when flat throws DeviceOomError, real or injected: the bounded-
//     footprint chunked pipeline at its default budget (reason
//     "oom-retry"), bitwise identical to what flat would have produced.

#include "core/spgemm.hpp"
#include "core/spgemm_chunked.hpp"
#include "sparse/csr.hpp"
#include "vgpu/device.hpp"

namespace mps::core::merge {

struct AdaptiveConfig {
  SpgemmConfig flat;
  /// Use the segmented path when estimated products-per-row exceeds this
  /// fraction of the output row width (dense-like detection).
  double density_threshold = 0.5;
};

struct AdaptiveStats {
  bool used_segmented = false;
  bool used_chunked = false;
  /// "flat" | "dense-like" | "oom-retry"
  const char* reason = "flat";
  long long num_products = 0;
  double modeled_ms = 0.0;
  double wall_ms = 0.0;
  SpgemmStats flat_stats;            ///< populated when the flat path ran
  ChunkedSpgemmStats chunked_stats;  ///< populated on the oom-retry tier
};

/// C = A x B, choosing between the merge (flat), segmented row-wise, and
/// chunked merge schemes per instance.  Throws DeviceOomError only when
/// chunked does too: one row of A alone overflows the device.
AdaptiveStats spgemm_adaptive(vgpu::Device& device, const sparse::CsrD& a,
                              const sparse::CsrD& b, sparse::CsrD& c,
                              const AdaptiveConfig& cfg = {});

}  // namespace mps::core::merge

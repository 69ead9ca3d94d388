#include "core/spgemm_adaptive.hpp"

#include <algorithm>

#include "baselines/rowwise.hpp"
#include "baselines/seq.hpp"
#include "util/timer.hpp"

namespace mps::core::merge {

using sparse::CsrD;

AdaptiveStats spgemm_adaptive(vgpu::Device& device, const CsrD& a, const CsrD& b,
                              CsrD& c, const AdaptiveConfig& cfg) {
  util::WallTimer wall;
  AdaptiveStats stats;
  stats.num_products = baselines::seq::spgemm_num_products(a, b);

  const double rows = std::max<double>(1.0, static_cast<double>(a.num_rows));
  const double products_per_row = static_cast<double>(stats.num_products) / rows;
  const double density =
      products_per_row / std::max<double>(1.0, static_cast<double>(b.num_cols));

  if (density > cfg.density_threshold) {
    stats.used_segmented = true;
    stats.reason = "dense-like";
    const auto op = baselines::rowwise::spgemm(device, a, b, c);
    stats.modeled_ms = op.modeled_ms;
  } else {
    try {
      stats.flat_stats = spgemm(device, a, b, c, cfg.flat);
      stats.modeled_ms = stats.flat_stats.modeled_ms();
    } catch (const vgpu::DeviceOomError&) {
      // Flat unwound cleanly (accounting restored, c untouched), so retry
      // with the bounded-footprint chunked pipeline — bitwise identical
      // to what flat would have produced.
      ChunkedConfig chunk_cfg;
      chunk_cfg.flat = cfg.flat;
      stats.used_chunked = true;
      stats.reason = "oom-retry";
      stats.chunked_stats = spgemm_chunked(device, a, b, c, chunk_cfg);
      stats.modeled_ms = stats.chunked_stats.modeled_ms();
    }
  }
  stats.wall_ms = wall.milliseconds();
  return stats;
}

}  // namespace mps::core::merge

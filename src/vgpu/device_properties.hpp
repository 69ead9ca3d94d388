#pragma once
// Virtual GPU device description and analytic cost constants.
//
// The paper evaluates on a GTX Titan (GK110: 14 SMX, 0.876 GHz, 288 GB/s,
// 6 GiB).  We have no GPU here, so kernels execute *functionally* on host
// threads while an analytic SIMT timing model accounts for the costs that
// drive the paper's results:
//
//   * warp lockstep   — a divergent warp is charged max-over-lanes,
//   * coalescing      — contiguous warp accesses cost ceil(bytes/128B)
//                       transactions, gathers cost one 32 B sector each,
//   * CTA scheduling  — CTAs are assigned round-robin to SMs and an SM runs
//                       `ctas_per_sm` of its CTAs concurrently; kernel time
//                       is the max over SMs of their serialized residency.
//
// The constants below are derived from GK110 datasheet ratios (see
// DESIGN.md §2).  Absolute milliseconds are therefore *modeled*, but every
// scheme in the repository is charged through the same model, so ratios,
// crossovers and work-correlations — the paper's actual claims — are
// meaningful.

#include <cstddef>
#include <cstdint>

namespace mps::vgpu {

struct DeviceProperties {
  // Hardware shape (GTX Titan defaults).
  int num_sms = 14;
  double clock_ghz = 0.876;
  int warp_size = 32;
  int max_cta_threads = 1024;
  std::size_t shared_mem_per_cta = 48 * 1024;  ///< bytes
  std::size_t global_mem_bytes = 6ull << 30;   ///< 6 GiB
  /// CTAs resident per SM (occupancy).  Residency hides latency but does
  /// NOT multiply an SM's bandwidth or issue rate, so the timing model
  /// serializes each SM's CTAs at full SM throughput: the schedule has
  /// num_sms * ctas_per_sm slots only when cost constants are divided
  /// accordingly.  Default 1 = "one CTA owns the SM's throughput".
  int ctas_per_sm = 1;

  // --- Cost constants (SM cycles) -------------------------------------
  /// Device bandwidth is 288 GB/s at 0.876 GHz = ~327 B/cycle for the
  /// whole device, i.e. ~23 B/cycle per SM.
  double global_bytes_per_cycle_per_sm = 23.0;
  /// Random (uncoalesced) accesses fetch a sector per element; 16 B
  /// reflects the L2/texture cache absorbing about half of each 32 B
  /// sector for the reuse patterns sparse kernels exhibit.
  std::size_t gather_sector_bytes = 16;
  /// One warp-wide shared-memory access (bank-conflict free).
  double shared_op_cycles = 1.0;
  /// One warp-wide ALU iteration (a handful of instructions).
  double alu_warp_iter_cycles = 0.7;
  /// __syncthreads() per CTA.
  double sync_cycles = 30.0;
  /// Fixed per-kernel launch overhead (≈5 µs at 0.876 GHz).
  double kernel_launch_cycles = 4400.0;

  double cycles_to_ms(double cycles) const { return cycles / (clock_ghz * 1e6); }

  /// Whole-device global-memory bandwidth in bytes per modeled
  /// nanosecond (num_sms x per-SM bytes/cycle x clock).  The bandwidth
  /// term of the shard placement cost model (src/shard/placement.hpp,
  /// docs/sharding.md).
  double global_bytes_per_ns() const {
    return static_cast<double>(num_sms) * global_bytes_per_cycle_per_sm *
           clock_ghz;
  }
};

/// The paper's Table I device (defaults above).
inline DeviceProperties gtx_titan() { return DeviceProperties{}; }

// Heterogeneous-fleet profiles for DeviceSet specs (vgpu/device_set.hpp).
// Per-SM cost constants stay the Titan's, so per-byte kernel costs scale
// purely with SM count x clock — the same-model-everywhere property that
// makes cross-device ratios meaningful.

/// A wider, higher-clocked part: ~2.35x the Titan's modeled bandwidth.
inline DeviceProperties fast_profile() {
  DeviceProperties p;
  p.num_sms = 24;
  p.clock_ghz = 1.2;
  p.global_mem_bytes = 12ull << 30;
  return p;
}

/// A laptop-class part: ~0.39x the Titan's modeled bandwidth.
inline DeviceProperties slow_profile() {
  DeviceProperties p;
  p.num_sms = 8;
  p.clock_ghz = 0.6;
  p.global_mem_bytes = 4ull << 30;
  return p;
}

}  // namespace mps::vgpu

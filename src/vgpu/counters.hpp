#pragma once
// Per-CTA cost counters and per-kernel aggregate statistics.

#include <cstddef>
#include <cstdint>
#include <string>

#include "vgpu/device_properties.hpp"

namespace mps::vgpu {

/// Raw work counters accumulated by one CTA while a kernel runs.  All
/// charging goes through the Cta helpers (see cta.hpp); the counters are
/// converted to SM cycles after the kernel completes.
struct CtaCounters {
  std::uint64_t global_bytes = 0;    ///< coalesced traffic, bytes
  std::uint64_t gather_bytes = 0;    ///< uncoalesced traffic, bytes (sector-expanded)
  std::uint64_t shared_ops = 0;      ///< warp-wide shared memory accesses
  std::uint64_t warp_iters = 0;      ///< warp-lockstep ALU iterations
  std::uint64_t syncs = 0;           ///< CTA barriers
  /// Useful floating-point operations (multiply-adds count 2).  Purely
  /// observational — roofline attribution (telemetry/profile.hpp) reads
  /// it; cycles() below never does, so charging flops cannot perturb
  /// modeled time (ALU cost already rides warp_iters).
  std::uint64_t flops = 0;

  CtaCounters& operator+=(const CtaCounters& o) {
    global_bytes += o.global_bytes;
    gather_bytes += o.gather_bytes;
    shared_ops += o.shared_ops;
    warp_iters += o.warp_iters;
    syncs += o.syncs;
    flops += o.flops;
    return *this;
  }

  /// SM-cycles this CTA occupies one SM slot for.
  double cycles(const DeviceProperties& p) const {
    const double mem = static_cast<double>(global_bytes + gather_bytes) /
                       p.global_bytes_per_cycle_per_sm;
    const double compute = static_cast<double>(warp_iters) * p.alu_warp_iter_cycles +
                           static_cast<double>(shared_ops) * p.shared_op_cycles +
                           static_cast<double>(syncs) * p.sync_cycles;
    // Memory and compute overlap imperfectly; charge the max plus a fraction
    // of the smaller term (a standard roofline-with-overlap approximation).
    const double hi = mem > compute ? mem : compute;
    const double lo = mem > compute ? compute : mem;
    return hi + 0.2 * lo;
  }
};

/// Result of one kernel launch: modeled device time plus raw totals.
struct KernelStats {
  std::string name;
  int num_ctas = 0;
  double device_cycles = 0.0;  ///< modeled, includes launch overhead
  double modeled_ms = 0.0;
  /// Share of the above spent in the launch's serialized tail (zero for a
  /// launch without one; see Device::launch).
  double tail_cycles = 0.0;
  double tail_ms = 0.0;
  double wall_ms = 0.0;        ///< host wall time (informational only)
  CtaCounters totals;          ///< summed over CTAs
  /// Telemetry correlation (telemetry/span.hpp): the active span context
  /// at launch and the wall start time relative to the tracer epoch.
  /// Zero / negative while the tracer is disabled — stamping them never
  /// affects modeled time (the zero-overhead contract).
  std::uint64_t trace_id = 0;
  std::uint64_t span_id = 0;
  double start_us = -1.0;

  KernelStats& operator+=(const KernelStats& o) {
    num_ctas += o.num_ctas;
    device_cycles += o.device_cycles;
    modeled_ms += o.modeled_ms;
    tail_cycles += o.tail_cycles;
    tail_ms += o.tail_ms;
    wall_ms += o.wall_ms;
    totals += o.totals;
    return *this;
  }
};

}  // namespace mps::vgpu

#pragma once
// Cost-model shard placement (docs/sharding.md).
//
// The paper's Figure 6 shows merge-path time is affine in work: a
// near-perfect linear fit (rho_merge 1.00) with a non-zero intercept,
// the launch floor.  Applied per device, an op with L kernel launches
// runs a share of w modeled bytes on device d in
//
//   t_d(w) = L * floor_d + w / bw_d
//
// with floor_d = kernel_launch_cycles / clock (ns) and bw_d the device's
// global-memory bandwidth (bytes/ns).  Splitting W bytes over a device
// set S so that every member finishes together gives
//
//   T(S) = (W + L * sum_S floor_d * bw_d) / sum_S bw_d,
//   w_d  = (T(S) - L * floor_d) * bw_d.
//
// Adding a device lowers T exactly when its floor alone is below T
// (L * floor_d < T), so the best set is a floor-threshold prefix of the
// candidates sorted by floor.  A slow device whose launch floor exceeds
// the balanced finish time is dropped instead of becoming the critical
// path, and shard width falls out of the same model.  Bandwidth-only
// weights (w_d proportional to bw_d) are the W >> L * floor limit.

#include <span>
#include <vector>

#include "sparse/csr.hpp"
#include "vgpu/device_properties.hpp"

namespace mps::shard {

/// An op's modeled work: bytes it moves through global memory, and the
/// kernel launches each participating device pays a floor for.
struct OpCost {
  double bytes = 0.0;
  int launches = 1;
};

/// Merge SpMV (one launch): every nonzero streams its column index and
/// value and gathers one x sector; every row reads its offset and writes
/// its y entry.
OpCost spmv_cost(const sparse::CsrD& a);
/// Merge SpAdd (spadd_csr): key packing plus the balanced-path union's
/// partition, count, scan and emit launches, one more with
/// MPS_INTEGRITY_CHECK's output guard.
OpCost spadd_cost(const sparse::CsrD& a, const sparse::CsrD& b);
/// Merge SpGEMM: the launch sequence of core::merge::spgemm for these
/// shapes (the global radix sort's pass count follows the key width).
/// Bytes are the two expansion passes and the setup, which the pattern
/// fixes before the symbolic phase; the unique-tuple sort, whose size
/// only the symbolic phase knows, is left out, so this is a lower bound.
OpCost spgemm_cost(const sparse::CsrD& a, const sparse::CsrD& b);

/// One candidate fleet slot.
struct Candidate {
  int ordinal = -1;
  vgpu::DeviceProperties props;
};

struct Placement {
  std::vector<int> ordinals;    ///< chosen slots, in partition order
  std::vector<double> weights;  ///< one positive weight per chosen slot
  double finish_ns = 0.0;       ///< predicted equal-finish time T
};

/// Per-launch floor of a device in modeled ns.
double launch_floor_ns(const vgpu::DeviceProperties& p);

/// Choose at most `width` of `candidates` for an op of cost `cost`: a
/// stable sort by launch floor (so equal slots keep the caller's order),
/// then the prefix with the smallest equal-finish time T whose every
/// member has L * floor < T.  Weights are (T - L * floor_d) * bw_d;
/// when every chosen slot has the same floor and bandwidth they are
/// bw_d exactly, the bandwidth weights, so a homogeneous fleet keeps
/// every slot up to `width` with bit-identical cuts.  Pure and
/// deterministic.
Placement place(std::span<const Candidate> candidates, const OpCost& cost,
                int width);

}  // namespace mps::shard

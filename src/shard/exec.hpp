#pragma once
// Distributed execution over a ShardedMatrix (docs/sharding.md).
//
// Every entry point follows the same scatter/compute/gather shape: the
// dense input is gathered per shard through its halo map (the modeled
// halo exchange, charged at the receiving device's global bandwidth),
// each shard's kernel runs on its placed device, and the disjoint output
// row ranges land directly in the caller's buffer — no reduction step,
// so the gather order cannot perturb the result.  SpMV/SpMM outputs are
// bitwise identical to single-device execution (the monotone-remap
// argument in sharded_matrix.hpp); SpAdd row-slices both inputs so each
// output row is produced by exactly one device's kernel; SpGEMM runs
// each slice as a core row block (core::merge::spgemm_row_block, the
// rule spgemm_chunked uses), tiled at the slice's global product prefix,
// so CTA tile boundaries, partial-sum grouping, and therefore every
// floating-point sum match the flat path bit for bit.  A slice whose
// block overflows its device steps down to smaller row chunks there.
// One slot and weight {1.0} is one block on the whole matrix: bitwise
// the core kernel, in output and in modeled time.
//
// Shards run sequentially on the calling thread (CTA-level parallelism
// already fans out through the device's pool); ExecStats::modeled_ms
// models the *fleet* running concurrently: the busiest device's total.
//
// `devices` is indexed by fleet slot ordinal — shard.device and
// DenseRowSegment::device select into it.  A kernel-level device loss
// surfaces as ShardLostError carrying that ordinal, so the serving layer
// can quarantine just the lost device and re-place its shards.

#include <memory>
#include <span>
#include <string>

#include "autotune/autotune.hpp"
#include "shard/sharded_matrix.hpp"
#include "sparse/csr.hpp"
#include "vgpu/chaos.hpp"
#include "vgpu/device.hpp"

namespace mps::shard {

/// Device loss attributed to a shard's fleet slot: the serving engine
/// quarantines device_ordinal() and re-places only the shards on it.
class ShardLostError : public vgpu::DeviceLostError {
 public:
  ShardLostError(const std::string& what, int device_ordinal)
      : vgpu::DeviceLostError(what), device_ordinal_(device_ordinal) {}
  int device_ordinal() const { return device_ordinal_; }

 private:
  int device_ordinal_;
};

struct ExecStats {
  /// Busiest device's kernel + halo time: the fleet-concurrent model the
  /// serving engine and the scaling bench report.
  double modeled_ms = 0.0;
  /// Total modeled halo-exchange time across shards.
  double halo_ms = 0.0;
  /// Serial sum of all per-shard kernel time (the 1-device equivalent
  /// work; sum_ms / modeled_ms is the modeled speedup).
  double sum_ms = 0.0;
  int shards = 0;
};

/// y = A x across the fleet: spmm with one vector.  Bitwise identical to
/// single-device merge SpMV for the 1D row shards; 2D-split dense rows
/// (if any) reduce in fixed segment order (deterministic, not bitwise —
/// see sharded_matrix.hpp).
ExecStats spmv(const ShardedMatrix& sm, std::span<vgpu::Device* const> devices,
               std::span<const double> x, std::span<double> y);

/// The one per-slice SpMV body.  x and y are row-major blocks of
/// num_vectors right-hand sides (1: plain SpMV); halo bytes scale by
/// num_vectors (each halo column drags the whole row of X).  tuned[i]
/// drives shards()[i] through TunedPlan::execute; a null entry runs
/// one-shot merge.  Bit-identical either way: every autotune candidate
/// shares merge's canonical accumulation order, and the engine keys plans
/// per shard, so the oracle gates apply per shard.
ExecStats spmv_tuned(
    const ShardedMatrix& sm, std::span<vgpu::Device* const> devices,
    std::span<const std::shared_ptr<const autotune::TunedPlan>> tuned,
    std::span<const double> x, std::span<double> y, index_t num_vectors = 1);

/// Y = A X with no plans: spmv_tuned with every entry null.
ExecStats spmm(const ShardedMatrix& sm, std::span<vgpu::Device* const> devices,
               std::span<const double> x_block, index_t num_vectors,
               std::span<double> y_block);

/// C = A + B, row-partitioned on the *combined* staircase (a's plus b's
/// row offsets) so a row dense in either input still balances.  Slice i
/// runs on devices[ordinals[i]] with diagonal span proportional to
/// weights[i] as a core row block (spadd_row_block, which steps down to
/// row chunks on DeviceOomError); per-slice outputs keep original column
/// ids and concatenate row-wise into C.  Bitwise: each output entry is
/// one copy or one a+b add, never regrouped.
ExecStats spadd(const sparse::CsrD& a, const sparse::CsrD& b,
                std::span<vgpu::Device* const> devices,
                std::span<const int> ordinals, std::span<const double> weights,
                sparse::CsrD& c);

/// C = A B, row-partitioned on the intermediate-product staircase.  Each
/// slice multiplies against a full replica of B (replication for shards
/// past the first is the modeled halo cost) as a core row block
/// (spgemm_row_block, which steps down to row chunks on DeviceOomError),
/// so the stitched C is bitwise identical to flat spgemm — the
/// spgemm_chunked argument verbatim.
ExecStats spgemm(const sparse::CsrD& a, const sparse::CsrD& b,
                 std::span<vgpu::Device* const> devices,
                 std::span<const int> ordinals, std::span<const double> weights,
                 sparse::CsrD& c);

}  // namespace mps::shard

#pragma once
// Device-wide, balanced-path set operations (paper Section III-B, Fig 2).
//
// Both phases of the classic two-phase output scheme are balanced-path
// partitioned, so every CTA handles the same number of *path elements*
// (± the star adjustment) regardless of how duplicates are distributed:
//
//   1. partition — one balanced-path search per CTA fence,
//   2. count     — each CTA runs the serial multiset kernel, counting,
//   3. scan      — exclusive scan of CTA output counts,
//   4. emit      — re-run, writing keys (and combined values) at offset.
//
// The charge and the order are separate (docs/primitives.md, "Charge and
// order"): set_op_charge makes the reservations and launches from the
// fences and the per-tile output offsets alone, and the caller writes
// the output in order on the host — device_set_op tile by tile, SpAdd
// with one row merge straight into CSR.

#include <cstdint>
#include <functional>
#include <span>
#include <string>
#include <vector>

#include "primitives/balanced_path.hpp"
#include "vgpu/device.hpp"

namespace mps::primitives {

/// Tile geometry used by all balanced-path CTA kernels (ModernGPU-style
/// 128 threads x 11 values).
struct SetOpConfig {
  int block_threads = 128;
  int items_per_thread = 11;
  int tile() const { return block_threads * items_per_thread; }
};

template <typename K, typename V>
struct SetOpResult {
  std::vector<K> keys;
  std::vector<V> vals;
  double modeled_ms = 0.0;  ///< summed over the op's kernels
  double wall_ms = 0.0;
};

/// The device charge of a balanced-path set op, from its fences and its
/// per-tile output offsets alone: it reads no key.  fences[p] (num_parts
/// + 1 balanced cuts at diagonals min(p * tile, |A| + |B|), as
/// balanced_path_partitions cuts them) bound tile p, which writes
/// outputs [offsets[p], offsets[p + 1]).  Each key is `key_bytes` wide
/// and carries `value_bytes` of value (0: keys only).
///
/// Makes the op's three reservations (fences, counts, output) and its
/// four launches with their grids and per-CTA charges:
///
///   setop.partition — one balanced-path search per fence,
///   setop.count     — each tile's keys (and values) through the serial
///                     kernel, one count out,
///   setop.scan      — exclusive scan of the counts,
///   setop.emit      — each tile again, its outputs written.
///
/// Returns the modeled ms summed over the four launches.
inline double set_op_charge(vgpu::Device& device, std::size_t key_bytes,
                            std::size_t value_bytes,
                            std::span<const BalancedCut> fences,
                            std::span<const std::size_t> offsets,
                            SetOpConfig cfg = {}) {
  MPS_CHECK(fences.size() >= 2 && offsets.size() == fences.size());
  const std::size_t total = fences.back().a_index + fences.back().b_index;
  const std::size_t num_parts = fences.size() - 1;
  const std::size_t tile = static_cast<std::size_t>(cfg.tile());
  const auto block = static_cast<std::size_t>(cfg.block_threads);

  // Inputs are device-resident; account temporaries only (fences + counts).
  vgpu::ScopedDeviceAlloc fences_mem(
      device.memory(), fences.size() * (2 * sizeof(std::uint64_t) + 1));

  // Phase 1: partition.  One logical thread per fence: a merge-path
  // diagonal search plus two run searches.
  const int fence_ctas = static_cast<int>(ceil_div(fences.size(), block));
  auto s1 = device.launch(
      "setop.partition", fence_ctas, cfg.block_threads, [&](vgpu::Cta& cta) {
        const std::size_t lo = static_cast<std::size_t>(cta.cta_id()) * block;
        const std::size_t hi = std::min(fences.size(), lo + block);
        for (std::size_t f = lo; f < hi; ++f) {
          cta.charge_binary_search(total);
          cta.charge_binary_search(total);
          cta.charge_binary_search(total);
        }
        cta.charge_global((hi - lo) * 2 * sizeof(std::uint64_t));
      });

  // Phase 2: count outputs per partition.
  vgpu::ScopedDeviceAlloc counts_mem(device.memory(), num_parts * sizeof(index_t));
  auto charge_tile = [&](vgpu::Cta& cta) {
    const auto p = static_cast<std::size_t>(cta.cta_id());
    const std::size_t n = (fences[p + 1].a_index - fences[p].a_index) +
                          (fences[p + 1].b_index - fences[p].b_index);
    cta.charge_global(n * (key_bytes + value_bytes));
    // Thread-level balanced-path split in shared memory + serial merge.
    cta.charge_shared_elems(block * static_cast<std::size_t>(log2_ceil(tile) + 1));
    cta.charge_shared_elems(n);
    cta.charge_alu_uniform(n);
    cta.charge_sync();
  };
  auto s2 = device.launch("setop.count", static_cast<int>(num_parts),
                          cfg.block_threads, [&](vgpu::Cta& cta) {
                            charge_tile(cta);
                            cta.charge_global(sizeof(index_t));
                          });

  // Phase 3: scan counts, size the output.
  auto s3 = device.launch("setop.scan", 1, cfg.block_threads, [&](vgpu::Cta& cta) {
    cta.charge_global(2 * num_parts * sizeof(index_t));
    cta.charge_shared_elems(num_parts);
  });
  vgpu::ScopedDeviceAlloc out_mem(device.memory(),
                                  offsets.back() * (key_bytes + value_bytes));

  // Phase 4: emit.
  auto s4 = device.launch(
      "setop.emit", static_cast<int>(num_parts), cfg.block_threads,
      [&](vgpu::Cta& cta) {
        const auto p = static_cast<std::size_t>(cta.cta_id());
        charge_tile(cta);
        cta.charge_global((offsets[p + 1] - offsets[p]) * (key_bytes + value_bytes));
      });
  return s1.modeled_ms + s2.modeled_ms + s3.modeled_ms + s4.modeled_ms;
}

/// Generic key-value multiset operation.  `vals_a` / `vals_b` may be empty
/// (keys-only: the result's vals stays empty).  `combine(x, y)` merges the
/// values of a matched pair (union/intersection); unmatched emissions copy
/// their source value.  The host runs the serial kernel tile by tile
/// between the balanced-path fences, which concatenates to exactly the
/// whole op, and the device is charged by set_op_charge.
template <typename K, typename V, typename Combine, typename Less = std::less<K>>
SetOpResult<K, V> device_set_op(vgpu::Device& device, std::span<const K> keys_a,
                                std::span<const V> vals_a, std::span<const K> keys_b,
                                std::span<const V> vals_b, SetOp op, Combine combine,
                                Less less = {}, SetOpConfig cfg = {}) {
  MPS_CHECK(vals_a.empty() || vals_a.size() == keys_a.size());
  MPS_CHECK(vals_b.empty() || vals_b.size() == keys_b.size());
  // Values are in play iff every non-empty key side brought a value array
  // (an empty side trivially "has" values, so A + empty works).
  const bool with_vals = vals_a.size() == keys_a.size() &&
                         vals_b.size() == keys_b.size() &&
                         !(keys_a.empty() && keys_b.empty());
  util::WallTimer wall;
  SetOpResult<K, V> res;
  const auto fences = balanced_path_partitions(
      keys_a, keys_b, static_cast<std::size_t>(cfg.tile()), less);
  std::vector<std::size_t> offsets(fences.size(), 0);
  res.keys.reserve(keys_a.size() + keys_b.size());
  if (with_vals) res.vals.reserve(keys_a.size() + keys_b.size());
  for (std::size_t p = 0; p + 1 < fences.size(); ++p) {
    set_op_serial(
        keys_a, keys_b, fences[p].a_index, fences[p + 1].a_index,
        fences[p].b_index, fences[p + 1].b_index, op,
        [&](std::size_t i) {
          res.keys.push_back(keys_a[i]);
          if (with_vals) res.vals.push_back(vals_a[i]);
        },
        [&](std::size_t j) {
          res.keys.push_back(keys_b[j]);
          if (with_vals) res.vals.push_back(vals_b[j]);
        },
        [&](std::size_t i, std::size_t j) {
          res.keys.push_back(keys_a[i]);
          if (with_vals) res.vals.push_back(combine(vals_a[i], vals_b[j]));
        },
        less);
    offsets[p + 1] = res.keys.size();
  }
  res.modeled_ms = set_op_charge(device, sizeof(K), with_vals ? sizeof(V) : 0,
                                 fences, offsets, cfg);
  res.wall_ms = wall.milliseconds();
  return res;
}

/// Keys-only convenience wrapper.
template <typename K, typename Less = std::less<K>>
SetOpResult<K, K> device_set_op_keys(vgpu::Device& device, std::span<const K> a,
                                     std::span<const K> b, SetOp op, Less less = {},
                                     SetOpConfig cfg = {}) {
  return device_set_op<K, K>(device, a, std::span<const K>{}, b,
                             std::span<const K>{}, op,
                             [](const K& x, const K&) { return x; }, less, cfg);
}

}  // namespace mps::primitives

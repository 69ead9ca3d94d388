#pragma once
// Device-wide LSD radix sort (the "Global Sort" engine).
//
// Classic three-kernel-per-pass structure (Merrill & Grimshaw):
// per-tile digit histograms, a scan of the histogram matrix, and a
// ranked scatter.  Each kernel's global traffic is charged per pass, so
// the modeled cost scales with passes x bytes exactly the way the
// paper's global sorting phase does.  The charge depends only on the key
// count, width, payload and bit range; the host computes the same stable
// order with one plain counting sort per digit.
//
// `sort_pairs` sorts a u32/u64 key array together with a u32 payload
// (SpGEMM sorts *permutations*, not products — the values are formed
// later, see paper Section III-C).  `bit_end` defaults to the full key
// width; pass log2_ceil(num_cols) etc. to exploit bit-limiting.

#include <cstddef>
#include <cstdint>
#include <span>
#include <string>

#include "vgpu/device.hpp"

namespace mps::primitives {

struct DeviceSortStats {
  int passes = 0;
  double modeled_ms = 0.0;
  double wall_ms = 0.0;
};

/// The modeled cost of a device radix sort of `n` keys `key_bits` (32 or
/// 64) wide on bits [0, bit_end), with a u32 payload when `pairs`: the
/// ping-pong and histogram reservations, then per 8-bit pass the
/// `<name>.hist`, `<name>.scan` and `<name>.scatter` launches.  A function
/// of those counts alone, so a caller that already knows the stable order
/// (merge SpGEMM's global sort) charges it without running the sort.
DeviceSortStats device_radix_sort_charge(vgpu::Device& device, const std::string& name,
                                         std::size_t n, int key_bits, bool pairs,
                                         int bit_end);

/// Stable LSD sort of `keys` (and `payload` alongside) on bits
/// [0, bit_end).  Both spans are permuted in place: device_radix_sort_charge
/// plus the host's stable order.
DeviceSortStats device_radix_sort_pairs(vgpu::Device& device, const std::string& name,
                                        std::span<std::uint32_t> keys,
                                        std::span<std::uint32_t> payload, int bit_end = 32);

DeviceSortStats device_radix_sort_pairs(vgpu::Device& device, const std::string& name,
                                        std::span<std::uint64_t> keys,
                                        std::span<std::uint32_t> payload, int bit_end = 64);

/// Keys-only variants.
DeviceSortStats device_radix_sort_keys(vgpu::Device& device, const std::string& name,
                                       std::span<std::uint32_t> keys, int bit_end = 32);
DeviceSortStats device_radix_sort_keys(vgpu::Device& device, const std::string& name,
                                       std::span<std::uint64_t> keys, int bit_end = 64);

}  // namespace mps::primitives

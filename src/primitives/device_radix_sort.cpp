#include "primitives/device_radix_sort.hpp"

#include "primitives/cta_radix_sort.hpp"
#include "util/common.hpp"

namespace mps::primitives {

namespace {

constexpr int kDigitBits = 8;
constexpr std::size_t kRadix = std::size_t{1} << kDigitBits;
constexpr int kBlock = 256;
constexpr int kItems = 8;
constexpr std::size_t kTile = static_cast<std::size_t>(kBlock) * kItems;

template <typename K>
DeviceSortStats sort_impl(vgpu::Device& device, const std::string& name,
                          std::span<K> keys, std::span<std::uint32_t> payload,
                          int bit_end) {
  MPS_CHECK(payload.empty() || payload.size() == keys.size());
  DeviceSortStats stats =
      device_radix_sort_charge(device, name, keys.size(),
                               static_cast<int>(sizeof(K) * 8),
                               !payload.empty(), bit_end);
  util::WallTimer wall;
  stable_sort_by_bits(keys, payload, 0, bit_end);
  stats.wall_ms += wall.milliseconds();
  return stats;
}

}  // namespace

DeviceSortStats device_radix_sort_charge(vgpu::Device& device,
                                         const std::string& name, std::size_t n,
                                         int key_bits, bool pairs, int bit_end) {
  MPS_CHECK(key_bits == 32 || key_bits == 64);
  MPS_CHECK(bit_end >= 0 && bit_end <= key_bits);
  DeviceSortStats stats;
  if (n == 0) return stats;
  const int num_passes = ceil_div(bit_end, kDigitBits);
  stats.passes = num_passes;
  const int num_tiles = static_cast<int>(ceil_div(n, kTile));

  util::WallTimer wall;
  const std::size_t elem_bytes =
      static_cast<std::size_t>(key_bits / 8) + (pairs ? sizeof(std::uint32_t) : 0);
  vgpu::ScopedDeviceAlloc pingpong(device.memory(), n * elem_bytes);
  vgpu::ScopedDeviceAlloc hist_mem(
      device.memory(), static_cast<std::size_t>(num_tiles) * kRadix * sizeof(index_t));
  auto tile_size = [&](const vgpu::Cta& cta) {
    const std::size_t lo = static_cast<std::size_t>(cta.cta_id()) * kTile;
    return std::min(n, lo + kTile) - lo;
  };
  for (int pass = 0; pass < num_passes; ++pass) {
    // Kernel 1: per-tile digit histogram.
    auto s1 = device.launch(name + ".hist", num_tiles, kBlock, [&](vgpu::Cta& cta) {
      const std::size_t count = tile_size(cta);
      cta.charge_global(count * static_cast<std::size_t>(key_bits / 8) +
                        kRadix * sizeof(index_t));
      cta.charge_shared_elems(count);
      cta.charge_alu_uniform(count);
      cta.charge_sync();
    });
    stats.modeled_ms += s1.modeled_ms;

    // Kernel 2: scan the histogram matrix digit-major so that equal digits
    // order by tile (stability across tiles).
    auto s2 = device.launch(name + ".scan", 1, kBlock, [&](vgpu::Cta& cta) {
      const std::size_t cells = static_cast<std::size_t>(num_tiles) * kRadix;
      cta.charge_global(2 * cells * sizeof(index_t));
      cta.charge_shared_elems(cells);
      cta.charge_alu_uniform(cells);
      cta.charge_sync();
    });
    stats.modeled_ms += s2.modeled_ms;

    // Kernel 3: ranked scatter (stable within a tile by construction).
    auto s3 = device.launch(name + ".scatter", num_tiles, kBlock, [&](vgpu::Cta& cta) {
      const std::size_t count = tile_size(cta);
      cta.charge_global(count * elem_bytes);  // coalesced read
      cta.charge_gather(count);               // scattered write
      cta.charge_shared_elems(2 * count);     // local rank + stage
      cta.charge_alu_uniform(count);
      cta.charge_sync();
    });
    stats.modeled_ms += s3.modeled_ms;
  }
  stats.wall_ms = wall.milliseconds();
  return stats;
}

DeviceSortStats device_radix_sort_pairs(vgpu::Device& device, const std::string& name,
                                        std::span<std::uint32_t> keys,
                                        std::span<std::uint32_t> payload, int bit_end) {
  return sort_impl<std::uint32_t>(device, name, keys, payload, bit_end);
}

DeviceSortStats device_radix_sort_pairs(vgpu::Device& device, const std::string& name,
                                        std::span<std::uint64_t> keys,
                                        std::span<std::uint32_t> payload, int bit_end) {
  return sort_impl<std::uint64_t>(device, name, keys, payload, bit_end);
}

DeviceSortStats device_radix_sort_keys(vgpu::Device& device, const std::string& name,
                                       std::span<std::uint32_t> keys, int bit_end) {
  return sort_impl<std::uint32_t>(device, name, keys, std::span<std::uint32_t>{},
                                  bit_end);
}

DeviceSortStats device_radix_sort_keys(vgpu::Device& device, const std::string& name,
                                       std::span<std::uint64_t> keys, int bit_end) {
  return sort_impl<std::uint64_t>(device, name, keys, std::span<std::uint32_t>{},
                                  bit_end);
}

}  // namespace mps::primitives

// Tests for CTA-level and device-wide radix sorts.
#include <gtest/gtest.h>

#include <algorithm>
#include <numeric>
#include <string>
#include <vector>

#include "primitives/cta_radix_sort.hpp"
#include "primitives/device_radix_sort.hpp"
#include "util/rng.hpp"
#include "vgpu/device.hpp"

namespace mps::primitives {
namespace {

TEST(CtaRadixSort, SortsFullKeys) {
  vgpu::Device dev;
  util::Rng rng(3);
  dev.launch("sort", 1, 128, [&](vgpu::Cta& cta) {
    std::vector<std::uint32_t> keys(1408);
    for (auto& k : keys) k = rng.next_u32();
    auto expect = keys;
    std::sort(expect.begin(), expect.end());
    cta_radix_sort_keys<std::uint32_t>(cta, keys, 0, 32);
    EXPECT_EQ(keys, expect);
  });
}

TEST(CtaRadixSort, BitLimitedSortIsStable) {
  // Sorting only the low 8 bits must stable-preserve the order of equal
  // low bytes — the property the SpGEMM block sort relies on.
  vgpu::Device dev;
  util::Rng rng(5);
  dev.launch("sort", 1, 128, [&](vgpu::Cta& cta) {
    std::vector<std::uint32_t> keys(1000);
    for (std::size_t i = 0; i < keys.size(); ++i) {
      keys[i] = (static_cast<std::uint32_t>(i) << 8) |
                static_cast<std::uint32_t>(rng.uniform(256));
    }
    auto expect = keys;
    std::stable_sort(expect.begin(), expect.end(),
                     [](std::uint32_t a, std::uint32_t b) {
                       return (a & 0xFF) < (b & 0xFF);
                     });
    cta_radix_sort_keys<std::uint32_t>(cta, keys, 0, 8);
    EXPECT_EQ(keys, expect);
  });
}

TEST(CtaRadixSort, PairsFollowKeys) {
  vgpu::Device dev;
  util::Rng rng(7);
  dev.launch("sort", 1, 128, [&](vgpu::Cta& cta) {
    std::vector<std::uint32_t> keys(512), vals(512);
    for (std::size_t i = 0; i < keys.size(); ++i) {
      keys[i] = static_cast<std::uint32_t>(rng.uniform(64));
      vals[i] = static_cast<std::uint32_t>(i);
    }
    auto ref = keys;
    cta_radix_sort<std::uint32_t>(cta, keys, vals, 0, 6);
    for (std::size_t i = 0; i < keys.size(); ++i) {
      EXPECT_EQ(ref[vals[i]], keys[i]);  // value still labels its key
      if (i) {
        EXPECT_LE(keys[i - 1], keys[i]);
      }
    }
    // Stability: equal keys keep ascending original indices.
    for (std::size_t i = 1; i < keys.size(); ++i) {
      if (keys[i - 1] == keys[i]) {
        EXPECT_LT(vals[i - 1], vals[i]);
      }
    }
  });
}

TEST(CtaRadixSort, CostScalesWithBitsAndPairs) {
  vgpu::Device dev;
  util::Rng rng(11);
  auto cycles_for = [&](int bits, bool pairs, int invocations) {
    auto stats = dev.launch("sort", 1, 128, [&](vgpu::Cta& cta) {
      std::vector<std::uint32_t> keys(1408), vals(1408);
      for (auto& k : keys) k = rng.next_u32() & ((bits == 32) ? 0xFFFFFFFFu : ((1u << bits) - 1));
      for (std::size_t i = 0; i < vals.size(); ++i) vals[i] = static_cast<std::uint32_t>(i);
      for (int r = 0; r < invocations; ++r) {
        if (pairs) {
          cta_radix_sort<std::uint32_t>(cta, keys, vals, 0, bits);
        } else {
          cta_radix_sort_keys<std::uint32_t>(cta, keys, 0, bits);
        }
      }
    });
    // Per-CTA cost: exclude the fixed kernel-launch overhead.
    return stats.totals.cycles(dev.props());
  };
  // Fig 4's orderings: 2P-pairs > 1P-pairs > 1P-keys > bit-limited keys.
  const double two_pass_pairs = cycles_for(32, true, 2);
  const double one_pass_pairs = cycles_for(32, true, 1);
  const double one_pass_keys = cycles_for(32, false, 1);
  const double keys_20 = cycles_for(20, false, 1);
  const double keys_12 = cycles_for(12, false, 1);
  EXPECT_GT(two_pass_pairs, 1.8 * one_pass_pairs);
  EXPECT_GT(one_pass_pairs, one_pass_keys);
  EXPECT_GT(one_pass_keys, keys_20);
  EXPECT_GT(keys_20, keys_12);
}

TEST(CtaRadixSort, FinalPassMaskDoesNotSpillPastBitEnd) {
  // Regression: sorting bits [0, 9) of keys whose bits >= 9 hold live
  // payload (embedded ranks) must ignore those bits even though the last
  // 4-bit digit pass straddles bit 9.  Before the fix the pass read bits
  // 8..11 and scrambled the stable order.
  vgpu::Device dev;
  util::Rng rng(17);
  dev.launch("sort", 1, 128, [&](vgpu::Cta& cta) {
    const int low_bits = 9;
    std::vector<std::uint32_t> keys(1408);
    for (std::size_t i = 0; i < keys.size(); ++i) {
      keys[i] = static_cast<std::uint32_t>(rng.uniform(1u << low_bits)) |
                (static_cast<std::uint32_t>(i) << low_bits);
    }
    auto expect = keys;
    std::stable_sort(expect.begin(), expect.end(),
                     [&](std::uint32_t a, std::uint32_t b) {
                       return (a & 0x1FFu) < (b & 0x1FFu);
                     });
    cta_radix_sort_keys<std::uint32_t>(cta, keys, 0, low_bits);
    EXPECT_EQ(keys, expect);
  });
}

TEST(DeviceSort, FinalPassMaskDoesNotSpillPastBitEnd) {
  vgpu::Device dev;
  util::Rng rng(19);
  const int low_bits = 9;  // 8-bit digits: second pass straddles bit 9
  std::vector<std::uint32_t> keys(30000);
  for (std::size_t i = 0; i < keys.size(); ++i) {
    keys[i] = static_cast<std::uint32_t>(rng.uniform(1u << low_bits)) |
              (static_cast<std::uint32_t>(i % 1024) << low_bits);
  }
  auto expect = keys;
  std::stable_sort(expect.begin(), expect.end(),
                   [&](std::uint32_t a, std::uint32_t b) {
                     return (a & 0x1FFu) < (b & 0x1FFu);
                   });
  device_radix_sort_keys(dev, "t", keys, low_bits);
  EXPECT_EQ(keys, expect);
}

TEST(CtaRadixSort, RejectsOversizedTile) {
  vgpu::Device dev;
  dev.launch("sort", 1, 128, [&](vgpu::Cta& cta) {
    std::vector<std::uint32_t> keys(2000);  // > 128*11
    EXPECT_THROW(cta_radix_sort_keys<std::uint32_t>(cta, keys, 0, 32),
                 mps::InvalidInputError);
  });
}

class DeviceSortTest : public ::testing::TestWithParam<std::size_t> {};

TEST_P(DeviceSortTest, SortsKeys32) {
  vgpu::Device dev;
  util::Rng rng(GetParam());
  std::vector<std::uint32_t> keys(GetParam());
  for (auto& k : keys) k = rng.next_u32();
  auto expect = keys;
  std::sort(expect.begin(), expect.end());
  const auto stats = device_radix_sort_keys(dev, "t", keys);
  EXPECT_EQ(keys, expect);
  if (!keys.empty()) {
    EXPECT_EQ(stats.passes, 4);
    EXPECT_GT(stats.modeled_ms, 0.0);
  }
}

TEST_P(DeviceSortTest, SortsPairs64Stable) {
  vgpu::Device dev;
  util::Rng rng(GetParam() + 1);
  const std::size_t n = GetParam();
  std::vector<std::uint64_t> keys(n);
  std::vector<std::uint32_t> payload(n);
  for (std::size_t i = 0; i < n; ++i) {
    keys[i] = rng.uniform(50);  // heavy duplication to stress stability
    payload[i] = static_cast<std::uint32_t>(i);
  }
  auto ref = keys;
  device_radix_sort_pairs(dev, "t", std::span<std::uint64_t>(keys),
                          std::span<std::uint32_t>(payload), 6);
  for (std::size_t i = 0; i < n; ++i) {
    EXPECT_EQ(ref[payload[i]], keys[i]);
    if (i) {
      EXPECT_LE(keys[i - 1], keys[i]);
      if (keys[i - 1] == keys[i]) {
        EXPECT_LT(payload[i - 1], payload[i]);
      }
    }
  }
}

INSTANTIATE_TEST_SUITE_P(Sizes, DeviceSortTest,
                         ::testing::Values(0, 1, 2, 100, 2048, 2049, 100000));

TEST(DeviceSort, BitLimitingCutsPasses) {
  vgpu::Device dev;
  std::vector<std::uint32_t> keys(10000, 3);
  const auto full = device_radix_sort_keys(dev, "t", keys, 32);
  const auto limited = device_radix_sort_keys(dev, "t", keys, 8);
  EXPECT_EQ(full.passes, 4);
  EXPECT_EQ(limited.passes, 1);
  EXPECT_LT(limited.modeled_ms, full.modeled_ms);
}

TEST(DeviceSort, AccountsDeviceMemory) {
  vgpu::DeviceProperties tiny = vgpu::gtx_titan();
  tiny.global_mem_bytes = 1 << 16;  // 64 KiB device
  vgpu::Device dev(tiny);
  std::vector<std::uint64_t> keys(100000);
  std::vector<std::uint32_t> payload(100000);
  EXPECT_THROW(device_radix_sort_pairs(dev, "t", std::span<std::uint64_t>(keys),
                                       std::span<std::uint32_t>(payload)),
               vgpu::DeviceOomError);
}

// ---------------------------------------------------------------------------
// Charge and order: each sort is its charge function plus a stable order,
// and the charge depends on counts alone.

void expect_same_counters(const vgpu::CtaCounters& got,
                          const vgpu::CtaCounters& want) {
  EXPECT_EQ(got.global_bytes, want.global_bytes);
  EXPECT_EQ(got.gather_bytes, want.gather_bytes);
  EXPECT_EQ(got.shared_ops, want.shared_ops);
  EXPECT_EQ(got.warp_iters, want.warp_iters);
  EXPECT_EQ(got.syncs, want.syncs);
  EXPECT_EQ(got.flops, want.flops);
}

/// The indices of `keys` stably sorted by bits [bit_begin, bit_end).
template <typename K>
std::vector<std::uint32_t> stable_order(const std::vector<K>& keys,
                                        int bit_begin, int bit_end) {
  const int width = bit_end - bit_begin;
  const K mask = width >= static_cast<int>(sizeof(K) * 8)
                     ? ~K{0}
                     : static_cast<K>((K{1} << width) - 1);
  std::vector<std::uint32_t> order(keys.size());
  std::iota(order.begin(), order.end(), 0u);
  std::stable_sort(order.begin(), order.end(),
                   [&](std::uint32_t x, std::uint32_t y) {
                     return ((keys[x] >> bit_begin) & mask) <
                            ((keys[y] >> bit_begin) & mask);
                   });
  return order;
}

TEST(CtaRadixSort, ChargeEqualsSortAndOrderIsStable) {
  util::Rng rng(23);
  vgpu::Device dev;
  for (int trial = 0; trial < 60; ++trial) {
    const std::size_t n = rng.uniform(1409);
    const int bit_begin = static_cast<int>(rng.uniform(17));
    const int bit_end = bit_begin + static_cast<int>(rng.uniform(33 - bit_begin));
    const bool pairs = trial % 2 == 1;
    SCOPED_TRACE("n=" + std::to_string(n) + " bits [" +
                 std::to_string(bit_begin) + ", " + std::to_string(bit_end) +
                 ") pairs=" + std::to_string(pairs));
    std::vector<std::uint32_t> keys(n);
    for (auto& k : keys) k = rng.next_u32() >> rng.uniform(28);
    std::vector<std::uint32_t> vals(pairs ? n : 0);
    std::iota(vals.begin(), vals.end(), 0u);
    const auto want = stable_order(keys, bit_begin, bit_end);
    auto sorted = keys;
    const auto sort = dev.launch("sort", 1, 128, [&](vgpu::Cta& cta) {
      cta_radix_sort<std::uint32_t>(cta, sorted, vals, bit_begin, bit_end);
    });
    const auto charge = dev.launch("sort", 1, 128, [&](vgpu::Cta& cta) {
      cta_radix_sort_charge<std::uint32_t>(cta, n, pairs, bit_begin, bit_end);
    });
    expect_same_counters(charge.totals, sort.totals);
    EXPECT_EQ(charge.modeled_ms, sort.modeled_ms);
    for (std::size_t i = 0; i < n; ++i) {
      ASSERT_EQ(sorted[i], keys[want[i]]) << i;
      if (pairs) {
        ASSERT_EQ(vals[i], want[i]) << i;
      }
    }
  }
}

template <typename K>
void expect_device_charge_equals_sort(util::Rng& rng, std::size_t n,
                                      int bit_end, bool pairs) {
  SCOPED_TRACE("n=" + std::to_string(n) + " key bits " +
               std::to_string(sizeof(K) * 8) + " bit_end " +
               std::to_string(bit_end) + " pairs=" + std::to_string(pairs));
  std::vector<K> keys(n);
  for (auto& k : keys) {
    k = static_cast<K>((static_cast<std::uint64_t>(rng.next_u32()) << 32 |
                        rng.next_u32()) >>
                       rng.uniform(60));
  }
  std::vector<std::uint32_t> payload(pairs ? n : 0);
  std::iota(payload.begin(), payload.end(), 0u);
  const auto want = stable_order(keys, 0, bit_end);

  vgpu::Device sort_dev;
  sort_dev.fault_injector().disarm();
  sort_dev.fault_injector().reset_counters();
  auto sorted = keys;
  const auto sort_stats =
      pairs ? device_radix_sort_pairs(sort_dev, "t", std::span<K>(sorted),
                                      std::span<std::uint32_t>(payload), bit_end)
            : device_radix_sort_keys(sort_dev, "t", std::span<K>(sorted),
                                     bit_end);
  vgpu::Device charge_dev;
  charge_dev.fault_injector().disarm();
  charge_dev.fault_injector().reset_counters();
  const auto charge_stats = device_radix_sort_charge(
      charge_dev, "t", n, static_cast<int>(sizeof(K) * 8), pairs, bit_end);

  EXPECT_EQ(charge_stats.passes, sort_stats.passes);
  EXPECT_EQ(charge_stats.modeled_ms, sort_stats.modeled_ms);
  const auto& got = charge_dev.log();
  const auto& want_log = sort_dev.log();
  ASSERT_EQ(got.size(), want_log.size());
  for (std::size_t i = 0; i < got.size(); ++i) {
    EXPECT_EQ(got[i].name, want_log[i].name);
    EXPECT_EQ(got[i].num_ctas, want_log[i].num_ctas);
    EXPECT_EQ(got[i].device_cycles, want_log[i].device_cycles);
    EXPECT_EQ(got[i].modeled_ms, want_log[i].modeled_ms);
    expect_same_counters(got[i].totals, want_log[i].totals);
  }
  EXPECT_EQ(charge_dev.fault_injector().allocations_observed(),
            sort_dev.fault_injector().allocations_observed());
  EXPECT_EQ(charge_dev.fault_injector().bytes_observed(),
            sort_dev.fault_injector().bytes_observed());
  EXPECT_EQ(charge_dev.memory().peak(), sort_dev.memory().peak());
  EXPECT_EQ(charge_dev.memory().in_use(), 0u);
  for (std::size_t i = 0; i < n; ++i) {
    ASSERT_EQ(sorted[i], keys[want[i]]) << i;
    if (pairs) {
      ASSERT_EQ(payload[i], want[i]) << i;
    }
  }
}

TEST(DeviceSort, ChargeEqualsSortAndOrderIsStable) {
  util::Rng rng(29);
  const std::size_t sizes[] = {0, 1, 2047, 2048, 2049, 9000, 40000};
  for (int trial = 0; trial < 28; ++trial) {
    const std::size_t n = sizes[static_cast<std::size_t>(trial) % 7];
    const bool pairs = trial % 2 == 0;
    if (trial % 4 < 2) {
      expect_device_charge_equals_sort<std::uint32_t>(
          rng, n, static_cast<int>(rng.uniform(33)), pairs);
    } else {
      expect_device_charge_equals_sort<std::uint64_t>(
          rng, n, static_cast<int>(rng.uniform(65)), pairs);
    }
  }
}

}  // namespace
}  // namespace mps::primitives

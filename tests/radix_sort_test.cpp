// Tests for CTA-level and device-wide radix sorts.
#include <gtest/gtest.h>

#include <algorithm>
#include <numeric>
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

TEST(CtaRadixSort, EmbedRankRoundTrip) {
  const int key_bits = 20;
  for (std::uint32_t key : {0u, 1u, 777u, (1u << 20) - 1}) {
    for (std::size_t rank : {std::size_t{0}, std::size_t{5}, std::size_t{2047}}) {
      const auto packed = embed_rank<std::uint32_t>(key, rank, key_bits);
      EXPECT_EQ(extract_key(packed, key_bits), key);
      EXPECT_EQ(extract_rank(packed, key_bits), rank);
    }
  }
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

}  // namespace
}  // namespace mps::primitives

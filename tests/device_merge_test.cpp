// Tests for device-wide merge, merge sort, and vectorized sorted search.
#include <gtest/gtest.h>

#include <algorithm>
#include <numeric>
#include <vector>

#include "primitives/device_merge.hpp"
#include "primitives/sorted_search.hpp"
#include "util/rng.hpp"
#include "vgpu/device.hpp"

namespace mps::primitives {
namespace {

std::vector<int> sorted_random(util::Rng& rng, std::size_t n, int range) {
  std::vector<int> v(n);
  for (auto& x : v) x = static_cast<int>(rng.uniform(static_cast<std::uint64_t>(range)));
  std::sort(v.begin(), v.end());
  return v;
}

class DeviceMergeTest : public ::testing::TestWithParam<std::tuple<int, int>> {};

TEST_P(DeviceMergeTest, MatchesStdMerge) {
  const auto [na, nb] = GetParam();
  vgpu::Device dev;
  util::Rng rng(static_cast<std::uint64_t>(na * 31 + nb));
  const auto a = sorted_random(rng, static_cast<std::size_t>(na), 1000);
  const auto b = sorted_random(rng, static_cast<std::size_t>(nb), 1000);
  std::vector<int> out(a.size() + b.size());
  device_merge<int>(dev, a, b, out);
  std::vector<int> expect;
  std::merge(a.begin(), a.end(), b.begin(), b.end(), std::back_inserter(expect));
  EXPECT_EQ(out, expect);
}

TEST_P(DeviceMergeTest, PairsAreStable) {
  const auto [na, nb] = GetParam();
  vgpu::Device dev;
  util::Rng rng(static_cast<std::uint64_t>(na * 7 + nb));
  const auto ka = sorted_random(rng, static_cast<std::size_t>(na), 20);
  const auto kb = sorted_random(rng, static_cast<std::size_t>(nb), 20);
  std::vector<int> va(ka.size()), vb(kb.size());
  std::iota(va.begin(), va.end(), 0);
  std::iota(vb.begin(), vb.end(), 100000);
  std::vector<int> kout(ka.size() + kb.size()), vout(kout.size());
  device_merge_pairs<int, int>(dev, ka, va, kb, vb, kout, vout);
  // A-first tie order, values track their key.
  for (std::size_t i = 0; i < kout.size(); ++i) {
    if (vout[i] < 100000) {
      EXPECT_EQ(ka[static_cast<std::size_t>(vout[i])], kout[i]);
    } else {
      EXPECT_EQ(kb[static_cast<std::size_t>(vout[i] - 100000)], kout[i]);
    }
    if (i) {
      EXPECT_LE(kout[i - 1], kout[i]);
    }
  }
  // Stability within each source.
  for (std::size_t i = 1; i < kout.size(); ++i) {
    if (kout[i - 1] == kout[i] && (vout[i - 1] < 100000) == (vout[i] < 100000)) {
      EXPECT_LT(vout[i - 1], vout[i]);
    }
  }
}

INSTANTIATE_TEST_SUITE_P(Shapes, DeviceMergeTest,
                         ::testing::Values(std::make_tuple(0, 0),
                                           std::make_tuple(0, 100),
                                           std::make_tuple(100, 0),
                                           std::make_tuple(1, 1),
                                           std::make_tuple(1000, 1000),
                                           std::make_tuple(10000, 137),
                                           std::make_tuple(137, 10000)));

class MergeSortTest : public ::testing::TestWithParam<std::size_t> {};

TEST_P(MergeSortTest, SortsRandom) {
  vgpu::Device dev;
  util::Rng rng(GetParam() + 3);
  std::vector<int> v(GetParam());
  for (auto& x : v) x = static_cast<int>(rng.uniform(1u << 20)) - (1 << 19);
  auto expect = v;
  std::sort(expect.begin(), expect.end());
  const auto stats = device_merge_sort<int>(dev, v);
  EXPECT_EQ(v, expect);
  if (v.size() > 1408 * 2) {
    EXPECT_GT(stats.rounds, 0);
  }
}

INSTANTIATE_TEST_SUITE_P(Sizes, MergeSortTest,
                         ::testing::Values(0, 1, 2, 1407, 1408, 1409, 10000,
                                           100000));

TEST(MergeSort, AlreadySortedAndReversed) {
  vgpu::Device dev;
  std::vector<int> asc(20000), desc(20000);
  std::iota(asc.begin(), asc.end(), 0);
  for (std::size_t i = 0; i < desc.size(); ++i)
    desc[i] = static_cast<int>(desc.size() - i);
  auto expect_asc = asc;
  device_merge_sort<int>(dev, asc);
  EXPECT_EQ(asc, expect_asc);
  device_merge_sort<int>(dev, desc);
  EXPECT_TRUE(std::is_sorted(desc.begin(), desc.end()));
}

TEST(MergeSort, CustomComparator) {
  vgpu::Device dev;
  util::Rng rng(9);
  std::vector<int> v(5000);
  for (auto& x : v) x = static_cast<int>(rng.uniform(1000));
  device_merge_sort<int>(dev, v, std::greater<int>{});
  EXPECT_TRUE(std::is_sorted(v.begin(), v.end(), std::greater<int>{}));
}

TEST(MergeSort, ChargesDeviceMemoryForPingPong) {
  vgpu::DeviceProperties tiny = vgpu::gtx_titan();
  tiny.global_mem_bytes = 1024;
  vgpu::Device dev(tiny);
  std::vector<int> v(10000, 1);
  EXPECT_THROW(device_merge_sort<int>(dev, v), vgpu::DeviceOomError);
}

class SortedSearchTest : public ::testing::TestWithParam<std::tuple<int, int, int>> {};

TEST_P(SortedSearchTest, MatchesLowerBound) {
  const auto [na, nb, range] = GetParam();
  vgpu::Device dev;
  util::Rng rng(static_cast<std::uint64_t>(na + nb * 3 + range));
  const auto a = sorted_random(rng, static_cast<std::size_t>(na), range);
  const auto b = sorted_random(rng, static_cast<std::size_t>(nb), range);
  std::vector<index_t> idx(a.size(), -1);
  device_sorted_search<int>(dev, a, b, idx);
  for (std::size_t i = 0; i < a.size(); ++i) {
    const auto expect = std::lower_bound(b.begin(), b.end(), a[i]) - b.begin();
    ASSERT_EQ(idx[i], static_cast<index_t>(expect)) << "i=" << i;
  }
}

INSTANTIATE_TEST_SUITE_P(
    Shapes, SortedSearchTest,
    ::testing::Values(std::make_tuple(0, 100, 50), std::make_tuple(100, 0, 50),
                      std::make_tuple(1000, 1000, 10),  // heavy duplicates
                      std::make_tuple(1000, 1000, 1000000),
                      std::make_tuple(10000, 500, 300),
                      std::make_tuple(500, 10000, 300)));

}  // namespace
}  // namespace mps::primitives

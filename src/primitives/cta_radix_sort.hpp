#pragma once
// CTA-level radix sort (the "Block Sort" engine of merge SpGEMM).
//
// Models CUB's BlockRadixSort: an LSD counting sort over `digit_bits`-wide
// digits held in shared memory, 128 threads x 11 items per CTA (the
// configuration benchmarked in the paper's Fig 4).  The paper's two key
// optimizations are expressed directly in the interface:
//
//   * bit-limiting  — sort only ceil(log2(num_cols)) bits, cutting digit
//     passes (Fig 4: 28 -> 12 bits roughly halves the cycles again);
//   * keys-only with embedded permutation — when the key's upper bits are
//     unused, the origin index rides inside the key, halving shared
//     traffic versus a key-value sort.
//
// The charge (cta_radix_sort_charge) is a function of the key count, bit
// range and pairs flag alone; cta_radix_sort is that charge plus the
// host's stable order (stable_sort_by_bits).

#include <algorithm>
#include <cstdint>
#include <span>
#include <vector>

#include "util/common.hpp"
#include "vgpu/cta.hpp"

namespace mps::primitives {

struct CtaSortConfig {
  int block_threads = 128;
  int items_per_thread = 11;
  int digit_bits = 4;  ///< radix digit width per pass (CUB default class)
  int tile() const { return block_threads * items_per_thread; }
};

/// Host stable sort of `keys` (and `values` alongside, if non-empty) by
/// key bits [bit_begin, bit_end): an LSD counting sort over 8-bit digits.
/// This is the order every charged radix sort here produces; how the
/// host computes it is free, since the charges depend on counts alone.
template <typename K, typename V>
void stable_sort_by_bits(std::span<K> keys, std::span<V> values,
                         int bit_begin, int bit_end) {
  constexpr int kDigitBits = 8;
  constexpr std::size_t kRadix = std::size_t{1} << kDigitBits;
  const std::size_t n = keys.size();
  const bool pairs = !values.empty();
  std::vector<K> key_buf(n);
  std::vector<V> val_buf(pairs ? n : 0);
  std::size_t hist[kRadix] = {};
  for (int shift = bit_begin; shift < bit_end; shift += kDigitBits) {
    // The final digit may be narrower: bits at or above bit_end can hold
    // live payload (e.g. an embedded permutation rank) and must not sort.
    const int digit_bits = std::min(kDigitBits, bit_end - shift);
    const K mask = static_cast<K>((std::uint64_t{1} << digit_bits) - 1);
    std::fill(hist, hist + kRadix, 0);
    for (std::size_t i = 0; i < n; ++i) {
      ++hist[static_cast<std::size_t>((keys[i] >> shift) & mask)];
    }
    std::size_t acc = 0;
    for (std::size_t d = 0; d < kRadix; ++d) {
      const std::size_t c = hist[d];
      hist[d] = acc;
      acc += c;
    }
    for (std::size_t i = 0; i < n; ++i) {
      const std::size_t dst =
          hist[static_cast<std::size_t>((keys[i] >> shift) & mask)]++;
      key_buf[dst] = keys[i];
      if (pairs) val_buf[dst] = values[i];
    }
    std::copy(key_buf.begin(), key_buf.end(), keys.begin());
    if (pairs) std::copy(val_buf.begin(), val_buf.end(), values.begin());
  }
}

/// The modeled cost of cta_radix_sort over `n` keys of type K on bits
/// [bit_begin, bit_end), keys-only or with a value array (`pairs`).
/// A function of those counts alone: per `digit_bits` pass, the keys are
/// read, ranked (warp scans over digit histograms) and scattered through
/// shared memory, and a pairs sort also permutes the values there.
template <typename K>
void cta_radix_sort_charge(vgpu::Cta& cta, std::size_t n, bool pairs,
                           int bit_begin, int bit_end,
                           const CtaSortConfig& cfg = {}) {
  MPS_CHECK(n <= static_cast<std::size_t>(cfg.tile()));
  MPS_CHECK(bit_begin >= 0 && bit_end <= static_cast<int>(sizeof(K) * 8) &&
            bit_begin <= bit_end);
  const int num_passes = ceil_div(bit_end - bit_begin, cfg.digit_bits);
  for (int pass = 0; pass < num_passes; ++pass) {
    cta.charge_shared_elems(3 * n);
    if (pairs) cta.charge_shared_elems(2 * n);
    cta.charge_alu_uniform(2 * n);
    cta.charge_sync();
    cta.charge_sync();
  }
}

/// Stable LSD radix sort of `keys[0..n)` (n <= cfg.tile()) restricted to
/// key bits [bit_begin, bit_end).  If `values` is non-empty it is permuted
/// alongside (a key-value "pairs" sort, costing extra shared traffic).
/// Charges `cta` through cta_radix_sort_charge.
template <typename K>
void cta_radix_sort(vgpu::Cta& cta, std::span<K> keys, std::span<K> values,
                    int bit_begin, int bit_end, const CtaSortConfig& cfg = {}) {
  MPS_CHECK(values.empty() || values.size() == keys.size());
  cta_radix_sort_charge<K>(cta, keys.size(), !values.empty(), bit_begin,
                           bit_end, cfg);
  stable_sort_by_bits(keys, values, bit_begin, bit_end);
}

/// Keys-only helper.
template <typename K>
void cta_radix_sort_keys(vgpu::Cta& cta, std::span<K> keys, int bit_begin,
                         int bit_end, const CtaSortConfig& cfg = {}) {
  cta_radix_sort(cta, keys, std::span<K>{}, bit_begin, bit_end, cfg);
}

}  // namespace mps::primitives

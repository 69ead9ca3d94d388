#include "shard/placement.hpp"

#include <algorithm>
#include <cstdint>
#include <limits>
#include <numeric>

#include "baselines/seq.hpp"
#include "resilience/integrity.hpp"
#include "util/common.hpp"
#include "util/error.hpp"

namespace mps::shard {

namespace {

/// One uncoalesced load's sector (the same on every fleet profile).
constexpr double kSector =
    static_cast<double>(vgpu::DeviceProperties{}.gather_sector_bytes);
constexpr double kIdx = sizeof(index_t);
constexpr double kVal = sizeof(double);
constexpr double kKey = sizeof(std::uint64_t);

int guard_launches() {
  return resilience::integrity_checks_enabled() ? 1 : 0;
}

}  // namespace

OpCost spmv_cost(const sparse::CsrD& a) {
  return {static_cast<double>(a.nnz()) * (kIdx + kVal + kSector) +
              static_cast<double>(a.num_rows) * (kIdx + kVal),
          1};
}

OpCost spadd_cost(const sparse::CsrD& a, const sparse::CsrD& b) {
  const double in = static_cast<double>(a.nnz()) + static_cast<double>(b.nnz());
  const double out_min = static_cast<double>(std::max(a.nnz(), b.nnz()));
  // Pack reads (row, col) and writes a key; count and emit each stream
  // every input key and value; emit writes at least max(nnz) tuples.
  return {in * (2 * kIdx + kKey) + in * 2 * (kKey + kVal) +
              out_min * (kKey + kVal),
          5 + guard_launches()};
}

OpCost spgemm_cost(const sparse::CsrD& a, const sparse::CsrD& b) {
  const long long products = baselines::seq::spgemm_num_products(a, b);
  if (products == 0) return {0.0, 2};  // setup + its scan, then done
  const int row_bits =
      std::max(1, log2_ceil(static_cast<std::uint64_t>(
                      std::max<index_t>(a.num_rows, 1))));
  const int col_bits =
      std::max(1, log2_ceil(static_cast<std::uint64_t>(
                      std::max<index_t>(b.num_cols, 1))));
  const int sort_passes = ceil_div(std::min(64, row_bits + col_bits), 8);
  // setup, setup scan, block sort, unique scan, 3 launches per global
  // radix-sort pass, rank, pattern, products, reduce.
  const int launches = 8 + 3 * sort_passes + guard_launches();
  // Per product, both expansion passes stream B's column (and, in the
  // numeric pass, its value) and the 16-bit permutation plus head flag.
  const double per_product = 2 * kIdx + kVal + 2 * (2.0 + 1.0 / 8.0);
  // Per A nonzero: setup reads (row, col), gathers B's row length and
  // writes the count; the scan reads and writes it; each expansion pass
  // dereferences the source's B row start (and A's value once).
  const double per_source = (2 * kIdx + kSector + kIdx) + 2 * kKey +
                            2 * (2 * kIdx + kSector) + kVal;
  return {static_cast<double>(products) * per_product +
              static_cast<double>(a.nnz()) * per_source,
          launches};
}

double launch_floor_ns(const vgpu::DeviceProperties& p) {
  return p.kernel_launch_cycles / p.clock_ghz;
}

Placement place(std::span<const Candidate> candidates, const OpCost& cost,
                int width) {
  MPS_CHECK(!candidates.empty() && width >= 1 && cost.launches >= 0);
  std::vector<std::size_t> order(candidates.size());
  std::iota(order.begin(), order.end(), std::size_t{0});
  std::stable_sort(order.begin(), order.end(),
                   [&](std::size_t x, std::size_t y) {
                     return launch_floor_ns(candidates[x].props) <
                            launch_floor_ns(candidates[y].props);
                   });
  const std::size_t cap =
      std::min(candidates.size(), static_cast<std::size_t>(width));
  const double launches = static_cast<double>(cost.launches);
  const auto base = [&](std::size_t i) {
    return launches * launch_floor_ns(candidates[order[i]].props);
  };
  const auto bw = [&](std::size_t i) {
    return candidates[order[i]].props.global_bytes_per_ns();
  };

  // Equal-finish time of each prefix; keep the smallest whose last (and
  // so every) member's floor is below it.  Ties keep the narrower set.
  std::size_t best_k = 1;
  double best_t = std::numeric_limits<double>::infinity();
  double sum_bw = 0.0;
  double sum_floor_bw = 0.0;
  for (std::size_t k = 1; k <= cap; ++k) {
    sum_bw += bw(k - 1);
    sum_floor_bw += base(k - 1) * bw(k - 1);
    const double t = (cost.bytes + sum_floor_bw) / sum_bw;
    if (k > 1 && !(base(k - 1) < t)) break;
    if (t < best_t) {
      best_t = t;
      best_k = k;
    }
  }

  Placement p;
  p.finish_ns = best_t;
  bool identical = true;
  for (std::size_t i = 1; i < best_k; ++i) {
    identical = identical && base(i) == base(0) && bw(i) == bw(0);
  }
  for (std::size_t i = 0; i < best_k; ++i) {
    p.ordinals.push_back(candidates[order[i]].ordinal);
    p.weights.push_back(identical ? bw(i) : (best_t - base(i)) * bw(i));
  }
  return p;
}

}  // namespace mps::shard

#pragma once
// Independent rebuild of merge SpGEMM's modeled cost, launch by launch
// (src/core/spgemm.cpp, one flat block): setup, the setup scan, block
// sort, the unique scan, the global sort's hist / scan / scatter per
// pass, rank, pattern, products and reduce.  The inputs are counted
// naively from A and B by enumerating the product stream: per CTA tile
// its products, the source nonzeros it spans and its distinct (row, col)
// tuples, and per output entry the number of tiles holding it.  The
// per-CTA charges are the ones docs/cost_model.md and docs/primitives.md
// list, not read from the kernels' code; expect_spgemm_cost pins every
// launch's name, grid, counters and cycles to them.
#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <map>
#include <set>
#include <string>
#include <utility>
#include <vector>

#include "core/spgemm.hpp"
#include "cost_formula.hpp"
#include "vgpu/device.hpp"

namespace mps::testing {

/// The product stream of A x B, counted naively.
struct ProductCounts {
  std::uint64_t products = 0;
  std::vector<std::uint64_t> count;    ///< per tile: products
  std::vector<std::uint64_t> sources;  ///< per tile: source nonzeros spanned
  std::vector<std::uint64_t> uniques;  ///< per tile: distinct (row, col)
  std::vector<std::uint32_t> tiles_per_entry;  ///< per C entry, (row, col) order
};

/// Tiles cut the stream at multiples of `tile` counted from global
/// product `origin`, so the first tile is short by origin % tile.
inline ProductCounts count_products(const sparse::CsrD& a,
                                    const sparse::CsrD& b, std::uint64_t tile,
                                    std::uint64_t origin) {
  struct Product {
    index_t row, col;
    std::uint64_t source;
  };
  std::vector<Product> stream;
  for (index_t r = 0; r < a.num_rows; ++r) {
    for (index_t k = a.row_offsets[static_cast<std::size_t>(r)];
         k < a.row_offsets[static_cast<std::size_t>(r) + 1]; ++k) {
      const index_t acol = a.col[static_cast<std::size_t>(k)];
      for (index_t bk = b.row_offsets[static_cast<std::size_t>(acol)];
           bk < b.row_offsets[static_cast<std::size_t>(acol) + 1]; ++bk) {
        stream.push_back({r, b.col[static_cast<std::size_t>(bk)],
                          static_cast<std::uint64_t>(k)});
      }
    }
  }
  ProductCounts pc;
  pc.products = stream.size();
  const std::uint64_t phase = origin % tile;
  std::map<std::pair<index_t, index_t>, std::uint32_t> entries;
  for (std::uint64_t lo = 0; lo < stream.size();) {
    const std::uint64_t hi = std::min<std::uint64_t>(
        stream.size(), (lo + phase) / tile * tile + tile - phase);
    std::set<std::pair<index_t, index_t>> tuples;
    for (std::uint64_t p = lo; p < hi; ++p) {
      tuples.insert({stream[p].row, stream[p].col});
    }
    for (const auto& t : tuples) ++entries[t];
    pc.count.push_back(hi - lo);
    pc.sources.push_back(stream[hi - 1].source - stream[lo].source + 1);
    pc.uniques.push_back(tuples.size());
    lo = hi;
  }
  for (const auto& [tuple, tiles] : entries) pc.tiles_per_entry.push_back(tiles);
  return pc;
}

/// device_exclusive_scan over `n` elements of `elem` bytes: 2048-element
/// tiles, each read and written once, up- and down-sweep in shared.
inline CostLaunch scan_launch(const vgpu::DeviceProperties& p,
                              const std::string& name, std::uint64_t n,
                              std::uint64_t elem) {
  CostLaunch l{name, {}};
  const std::uint64_t tiles = std::max<std::uint64_t>(1, (n + 2047) / 2048);
  for (std::uint64_t t = 0; t < tiles; ++t) {
    const std::uint64_t count = std::min<std::uint64_t>(2048, n - std::min(n, t * 2048));
    vgpu::CtaCounters c;
    Charges ch(p, c);
    ch.global(2 * count * elem);
    ch.shared(2 * count);
    ch.alu(2 * count);
    ch.sync();
    l.ctas.push_back(c);
  }
  return l;
}

/// A grid of 2048-element CTAs over `n` elements plus one spare CTA
/// (the rank, pattern and reduce launches); `body(c, lo, hi)` charges a
/// non-empty CTA.
template <typename Body>
CostLaunch strided_launch(const std::string& name, std::uint64_t n,
                          Body&& body) {
  CostLaunch l{name, {}};
  for (std::uint64_t lo = 0; lo < n + 2048; lo += 2048) {
    vgpu::CtaCounters c;
    if (lo < n) body(c, lo, std::min(n, lo + 2048));
    l.ctas.push_back(c);
  }
  return l;
}

/// Every launch of one flat SpGEMM block of A x B tiled at `origin`.
inline std::vector<CostLaunch> spgemm_cost(
    const vgpu::DeviceProperties& p, const sparse::CsrD& a,
    const sparse::CsrD& b, const core::merge::SpgemmConfig& cfg,
    std::uint64_t origin = 0) {
  const std::uint64_t nnz = static_cast<std::uint64_t>(a.nnz());
  const std::uint64_t tile = static_cast<std::uint64_t>(cfg.tile());
  const ProductCounts pc = count_products(a, b, tile, origin);
  std::vector<CostLaunch> out;

  // Setup: per A nonzero, its column and offsets (8 B), one gathered B
  // row length, one 4 B product count; then the scan of those counts.
  out.push_back(strided_launch("merge.spgemm_setup", nnz,
                               [&](vgpu::CtaCounters& c, std::uint64_t lo,
                                   std::uint64_t hi) {
                                 Charges ch(p, c);
                                 ch.global(12 * (hi - lo));
                                 ch.gather(hi - lo);
                               }));
  out.push_back(scan_launch(p, "merge.spgemm_setup_scan", nnz + 1, 8));
  if (pc.products == 0) return out;

  const int col_bits =
      std::max(1, log2_ceil(static_cast<std::uint64_t>(std::max(b.num_cols, 1))));
  const int row_bits =
      std::max(1, log2_ceil(static_cast<std::uint64_t>(std::max(a.num_rows, 1))));
  const bool pairs = cfg.force_pair_sort || cfg.force_full_bits ||
                     col_bits + log2_ceil(tile) > 32;
  const int sort_bits = cfg.force_full_bits ? 32 : col_bits;
  const std::size_t num_ctas = pc.count.size();

  // The expansion both block sort and products replay: one search of A's
  // nonzeros, 8 B and a sector per source, 4 B per product (B column),
  // 2 ALU lane-ops per product; products also read 8 B per source and
  // per product of values.
  auto expansion = [&](Charges& ch, std::size_t cta, bool values) {
    ch.search(nnz);
    ch.global(8 * pc.sources[cta]);
    ch.gather(pc.sources[cta]);
    ch.global(4 * pc.count[cta]);
    if (values) {
      ch.global(8 * pc.sources[cta]);
      ch.global(8 * pc.count[cta]);
    }
    ch.alu(2 * pc.count[cta]);
  };
  auto perm_and_flags = [&](std::uint64_t count) {
    return 2 * count + count / 8 + 1;
  };

  // Block sort: expansion, one CTA radix sort of the columns (per 4-bit
  // digit: 3 shared element ops per key, 2 more per key for pairs, 2 ALU
  // lane-ops, 2 syncs), then perm + flags + 8 B per unique out.
  CostLaunch block{"merge.spgemm_blocksort", {}};
  for (std::size_t t = 0; t < num_ctas; ++t) {
    vgpu::CtaCounters c;
    Charges ch(p, c);
    const std::uint64_t n = pc.count[t];
    expansion(ch, t, false);
    for (int pass = 0; pass < (std::min(sort_bits, 32) + 3) / 4; ++pass) {
      ch.shared(3 * n);
      if (pairs) ch.shared(2 * n);
      ch.alu(2 * n);
      ch.sync();
      ch.sync();
    }
    ch.global(perm_and_flags(n));
    ch.global(8 * pc.uniques[t]);
    ch.shared(n);
    ch.sync();
    block.ctas.push_back(c);
  }
  out.push_back(block);
  out.push_back(
      scan_launch(p, "merge.spgemm_unique_scan", num_ctas + 1, 8));

  // Global sort of the m uniques (8 B keys, 4 B payload) on row_bits +
  // col_bits bits: per 8-bit pass, hist / scan / scatter over 2048-key
  // tiles with 256-bucket histograms of 4 B cells.
  std::uint64_t m = 0;
  for (const auto u : pc.uniques) m += u;
  const std::uint64_t sort_tiles = (m + 2047) / 2048;
  const int passes = (std::min(64, row_bits + col_bits) + 7) / 8;
  for (int pass = 0; pass < passes; ++pass) {
    CostLaunch hist{"merge.spgemm_globalsort.hist", {}};
    CostLaunch scatter{"merge.spgemm_globalsort.scatter", {}};
    for (std::uint64_t lo = 0; lo < m; lo += 2048) {
      const std::uint64_t n = std::min<std::uint64_t>(2048, m - lo);
      vgpu::CtaCounters h;
      Charges hc(p, h);
      hc.global(8 * n + 256 * 4);
      hc.shared(n);
      hc.alu(n);
      hc.sync();
      hist.ctas.push_back(h);
      vgpu::CtaCounters s;
      Charges sc(p, s);
      sc.global(12 * n);
      sc.gather(n);
      sc.shared(2 * n);
      sc.alu(n);
      sc.sync();
      scatter.ctas.push_back(s);
    }
    vgpu::CtaCounters sc;
    Charges scan(p, sc);
    scan.global(2 * sort_tiles * 256 * 4);
    scan.shared(sort_tiles * 256);
    scan.alu(sort_tiles * 256);
    scan.sync();
    out.push_back(hist);
    out.push_back(CostLaunch{"merge.spgemm_globalsort.scan", {sc}});
    out.push_back(scatter);
  }
  // Rank: 4 B read and one scattered write per unique.  Pattern: 8 B key
  // in, 8 B (column + segment) out, one ALU lane-op per unique.
  out.push_back(strided_launch("merge.spgemm_rank", m,
                               [&](vgpu::CtaCounters& c, std::uint64_t lo,
                                   std::uint64_t hi) {
                                 Charges ch(p, c);
                                 ch.global(4 * (hi - lo));
                                 ch.gather(hi - lo);
                               }));
  out.push_back(strided_launch("merge.spgemm_pattern", m,
                               [&](vgpu::CtaCounters& c, std::uint64_t lo,
                                   std::uint64_t hi) {
                                 Charges ch(p, c);
                                 ch.global(16 * (hi - lo));
                                 ch.alu(hi - lo);
                               }));

  // Products: expansion with values, perm + flags in, 3 shared and 2 ALU
  // lane-ops per product, one scattered write per unique, two syncs.
  CostLaunch products{"merge.spgemm_products", {}};
  for (std::size_t t = 0; t < num_ctas; ++t) {
    vgpu::CtaCounters c;
    Charges ch(p, c);
    expansion(ch, t, true);
    ch.global(perm_and_flags(pc.count[t]));
    ch.shared(3 * pc.count[t]);
    ch.alu(2 * pc.count[t]);
    ch.gather(pc.uniques[t]);
    ch.sync();
    ch.sync();
    products.ctas.push_back(c);
  }
  out.push_back(products);

  // Reduce: each C entry sums one partial per tile holding it (lanes
  // diverge by that count), reading 8 B per partial and writing 8 B of
  // value plus 8 B of column and segment.
  const auto& lens = pc.tiles_per_entry;
  out.push_back(strided_launch(
      "merge.spgemm_reduce", lens.size(),
      [&](vgpu::CtaCounters& c, std::uint64_t lo, std::uint64_t hi) {
        Charges ch(p, c);
        std::uint64_t read = 0;
        for (std::uint64_t base = lo; base < hi; base += 32) {
          std::uint32_t mx = 0;
          for (std::uint64_t i = base; i < std::min(hi, base + 32); ++i) {
            mx = std::max(mx, lens[i]);
          }
          c.warp_iters += mx;
        }
        for (std::uint64_t i = lo; i < hi; ++i) read += lens[i];
        ch.global(8 * read + 16 * (hi - lo));
      }));
  return out;
}

/// Runs one flat SpGEMM block of A x B on a fresh device (rows
/// [r0, r1) of A through spgemm_row_block, or all of A through spgemm)
/// and pins every launch to the formula.
inline void expect_spgemm_cost(const sparse::CsrD& a, const sparse::CsrD& b,
                               const core::merge::SpgemmConfig& cfg,
                               index_t r0 = 0, index_t r1 = -1) {
  vgpu::Device dev;
  dev.fault_injector().disarm();
  const vgpu::DeviceProperties& p = dev.props();
  sparse::CsrD c;
  std::vector<CostLaunch> want;
  if (r1 < 0) {
    core::merge::spgemm(dev, a, b, c, cfg);
    want = spgemm_cost(p, a, b, cfg);
  } else {
    const auto prefix = core::merge::spgemm_row_prefix(a, b);
    core::merge::spgemm_row_block(dev, a, b, prefix, r0, r1, c, cfg);
    want = spgemm_cost(p, sparse::row_slice(a, r0, r1), b, cfg,
                       prefix[static_cast<std::size_t>(r0)]);
  }
  expect_launches_match(dev, want);
}

}  // namespace mps::testing

#pragma once
// Independent rebuild of merge SpAdd's modeled cost, launch by launch
// (src/core/spadd.cpp over primitives::set_op_charge): key packing, then
// the balanced-path union's partition, count, scan and emit.  The inputs
// are enumerated naively from A and B: the canonical interleave of their
// (row, col) tuples (a tuple of A, then its match in B), fences cut along
// it every tile elements and starred past a split matched pair, and per
// tile the number of distinct tuples it holds.  The per-CTA charges are
// the ones docs/cost_model.md and docs/primitives.md list, not read from
// the kernels' code; expect_spadd_cost pins every launch's name, grid,
// counters and cycles to them.
#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <set>
#include <utility>
#include <vector>

#include "core/spadd.hpp"
#include "cost_formula.hpp"
#include "sparse/csr.hpp"
#include "vgpu/device.hpp"

namespace mps::testing {

/// Balanced-path fences and per-tile union sizes of A + B, counted
/// naively: tile p holds A's tuples [a[p], a[p+1]) and B's [b[p], b[p+1]).
struct UnionTiles {
  std::vector<std::uint64_t> a, b;    ///< fences: tuples of A / B before
  std::vector<std::uint64_t> unique;  ///< per tile: distinct (row, col)
};

inline UnionTiles count_union_tiles(const sparse::CsrD& a,
                                    const sparse::CsrD& b,
                                    std::uint64_t tile) {
  // The canonical interleave: tuples in (row, col) order, A's copy of a
  // matched tuple first.  `true` marks an element of A.
  struct Element {
    index_t row, col;
    bool from_a;
  };
  std::vector<Element> path;
  for (index_t r = 0; r < a.num_rows; ++r) {
    std::set<std::pair<index_t, bool>> row;  // (col, from B)
    for (index_t k = a.row_offsets[static_cast<std::size_t>(r)];
         k < a.row_offsets[static_cast<std::size_t>(r) + 1]; ++k) {
      row.insert({a.col[static_cast<std::size_t>(k)], false});
    }
    for (index_t k = b.row_offsets[static_cast<std::size_t>(r)];
         k < b.row_offsets[static_cast<std::size_t>(r) + 1]; ++k) {
      row.insert({b.col[static_cast<std::size_t>(k)], true});
    }
    for (const auto& [col, from_b] : row) path.push_back({r, col, !from_b});
  }
  const std::uint64_t total = path.size();
  const std::uint64_t parts = total == 0 ? 1 : (total + tile - 1) / tile;
  // Prefix counts of A elements along the path.
  std::vector<std::uint64_t> a_before(total + 1, 0);
  for (std::uint64_t i = 0; i < total; ++i) {
    a_before[i + 1] = a_before[i] + (path[i].from_a ? 1 : 0);
  }
  UnionTiles t;
  std::vector<std::uint64_t> cut;  // path position of each fence
  for (std::uint64_t f = 0; f <= parts; ++f) {
    std::uint64_t d = std::min(f * tile, total);
    // A cut between a tuple of A and its match in B takes the match too.
    if (d > 0 && d < total && path[d - 1].from_a && !path[d].from_a &&
        path[d - 1].row == path[d].row && path[d - 1].col == path[d].col) {
      ++d;
    }
    cut.push_back(d);
    t.a.push_back(a_before[d]);
    t.b.push_back(d - a_before[d]);
  }
  for (std::uint64_t p = 0; p < parts; ++p) {
    std::set<std::pair<index_t, index_t>> tuples;
    for (std::uint64_t i = cut[p]; i < cut[p + 1]; ++i) {
      tuples.insert({path[i].row, path[i].col});
    }
    t.unique.push_back(tuples.size());
  }
  return t;
}

/// Every launch of one flat SpAdd block of A + B with `value_bytes` of
/// value per tuple, at the set ops' default 128 x 11 tile.
inline std::vector<CostLaunch> spadd_cost(const vgpu::DeviceProperties& p,
                                          const sparse::CsrD& a,
                                          const sparse::CsrD& b,
                                          std::uint64_t value_bytes = 8) {
  constexpr std::uint64_t kBlock = 128;
  constexpr std::uint64_t kTile = kBlock * 11;
  const std::uint64_t n = static_cast<std::uint64_t>(a.nnz() + b.nnz());
  const UnionTiles t = count_union_tiles(a, b, kTile);
  const std::uint64_t parts = t.unique.size();
  const std::uint64_t vb = n > 0 ? value_bytes : 0;
  std::vector<CostLaunch> out;

  // Pack: 2048 tuples per CTA plus one spare; per tuple its row and
  // column in (8 B) and its key out (8 B), one ALU lane-op.
  CostLaunch pack{"merge.spadd_pack", {}};
  for (std::uint64_t lo = 0; lo < n + 2048; lo += 2048) {
    vgpu::CtaCounters c;
    Charges ch(p, c);
    if (lo < n) {
      const std::uint64_t k = std::min(n, lo + 2048) - lo;
      ch.global(16 * k);
      ch.alu(k);
    }
    pack.ctas.push_back(c);
  }
  out.push_back(pack);

  // Partition: one lane per fence, 128 fences per CTA; each fence is
  // three binary searches over all n tuples and writes 16 B.
  CostLaunch partition{"setop.partition", {}};
  for (std::uint64_t lo = 0; lo < parts + 1; lo += kBlock) {
    vgpu::CtaCounters c;
    Charges ch(p, c);
    const std::uint64_t fences = std::min(parts + 1, lo + kBlock) - lo;
    for (std::uint64_t f = 0; f < 3 * fences; ++f) ch.search(n);
    ch.global(16 * fences);
    partition.ctas.push_back(c);
  }
  out.push_back(partition);

  // A tile's pass over its m tuples: keys (8 B) and values in, the
  // thread-level split (128 lanes x (log2(tile) + 1) shared elements),
  // then m shared elements, m ALU lane-ops and a sync.
  auto tile_pass = [&](Charges& ch, std::uint64_t m) {
    ch.global(m * (8 + vb));
    ch.shared(kBlock * static_cast<std::uint64_t>(log2_ceil(kTile) + 1));
    ch.shared(m);
    ch.alu(m);
    ch.sync();
  };
  CostLaunch count{"setop.count", {}};
  CostLaunch emit{"setop.emit", {}};
  for (std::uint64_t q = 0; q < parts; ++q) {
    const std::uint64_t m = (t.a[q + 1] - t.a[q]) + (t.b[q + 1] - t.b[q]);
    vgpu::CtaCounters cc;
    Charges cch(p, cc);
    tile_pass(cch, m);
    cch.global(4);  // the tile's count
    count.ctas.push_back(cc);
    vgpu::CtaCounters ce;
    Charges ech(p, ce);
    tile_pass(ech, m);
    ech.global(t.unique[q] * (8 + vb));  // each union tuple's key + value
    emit.ctas.push_back(ce);
  }
  // Scan: one CTA reads and writes the 4 B counts once.
  vgpu::CtaCounters sc;
  Charges scan(p, sc);
  scan.global(2 * parts * 4);
  scan.shared(parts);
  out.push_back(count);
  out.push_back(CostLaunch{"setop.scan", {sc}});
  out.push_back(emit);
  return out;
}

/// Runs rows [r0, r1) of A + B (all of them through spadd_csr when r1 <
/// 0, else through spadd_row_block) on a fresh device and pins every
/// launch to the formula over those rows.
inline void expect_spadd_cost(const sparse::CsrD& a, const sparse::CsrD& b,
                              index_t r0 = 0, index_t r1 = -1) {
  vgpu::Device dev;
  dev.fault_injector().disarm();
  sparse::CsrD c;
  if (r1 < 0) {
    core::merge::spadd_csr(dev, a, b, c);
    expect_launches_match(dev, spadd_cost(dev.props(), a, b));
  } else {
    core::merge::spadd_row_block(dev, a, b, r0, r1, c);
    expect_launches_match(dev, spadd_cost(dev.props(), sparse::row_slice(a, r0, r1),
                                          sparse::row_slice(b, r0, r1)));
  }
}

}  // namespace mps::testing

#include "core/spadd.hpp"

#include <algorithm>
#include <cstdint>
#include <span>
#include <utility>
#include <vector>

#include "primitives/balanced_path.hpp"
#include "primitives/merge_path.hpp"
#include "primitives/set_ops.hpp"
#include "resilience/integrity.hpp"
#include "sparse/convert.hpp"
#include "sparse/validate.hpp"
#include "telemetry/span.hpp"
#include "util/timer.hpp"

namespace mps::core::merge {

using sparse::CooD;
using sparse::CsrD;

namespace {

/// Rows [r0, r1) of `m` have usable offsets: monotone and within the
/// column and value arrays.
template <typename V>
bool offsets_valid(const sparse::CsrMatrix<V>& m, index_t r0, index_t r1) {
  if (m.row_offsets.size() != static_cast<std::size_t>(m.num_rows) + 1 ||
      m.val.size() != m.col.size()) {
    return false;
  }
  const auto nnz = static_cast<index_t>(m.col.size());
  const auto* off = m.row_offsets.data();
  if (off[r0] < 0 || off[r1] > nnz) return false;
  for (index_t r = r0; r < r1; ++r) {
    if (off[r] > off[r + 1]) return false;
  }
  return true;
}

/// The balanced-path fences of rows [r0, r1) of A and B as (row, col)
/// tuple keys, searched through the CSR structure so no packed key
/// exists: fence p sits at diagonal min(p * tile, total), in the block's
/// own tuple indices.  The row holding a diagonal comes from a binary
/// search of the combined staircase a_off[r] + b_off[r]; a merge path
/// over that row's columns splits it, A first on ties.  Each side holds
/// a tuple at most once, so a cut is starred exactly when it would
/// separate a tuple of A from its match in B, and then takes the match
/// too (paper Section III-B).
template <typename V>
std::vector<primitives::BalancedCut> csr_fences(const sparse::CsrMatrix<V>& a,
                                                const sparse::CsrMatrix<V>& b,
                                                index_t r0, index_t r1,
                                                std::size_t tile) {
  const auto rows_of = [&](const sparse::CsrMatrix<V>& m) {
    return std::span<const index_t>(m.row_offsets)
        .subspan(static_cast<std::size_t>(r0), static_cast<std::size_t>(r1 - r0) + 1);
  };
  const std::span<const index_t> a_off = rows_of(a);
  const std::span<const index_t> b_off = rows_of(b);
  const auto before = [&](std::size_t r) {  // tuples in the rows before r
    return static_cast<std::size_t>(a_off[r] - a_off[0] + b_off[r] - b_off[0]);
  };
  const std::size_t rows = a_off.size() - 1;
  const std::size_t total = before(rows);
  const std::size_t parts = total == 0 ? 1 : ceil_div(total, tile);
  std::vector<primitives::BalancedCut> fences(parts + 1);
  if (total == 0) return fences;
  for (std::size_t p = 1; p <= parts; ++p) {
    const std::size_t d = std::min(p * tile, total);
    std::size_t lo = 0, hi = rows;  // last row r with before(r) <= d
    while (lo < hi) {
      const std::size_t mid = lo + (hi - lo) / 2;
      if (before(mid) <= d) {
        lo = mid + 1;
      } else {
        hi = mid;
      }
    }
    const std::size_t r = lo - 1;
    const std::span<const index_t> ca(
        a.col.data() + a_off[r], static_cast<std::size_t>(a_off[r + 1] - a_off[r]));
    const std::span<const index_t> cb(
        b.col.data() + b_off[r], static_cast<std::size_t>(b_off[r + 1] - b_off[r]));
    const std::size_t ai = primitives::merge_path(ca, cb, d - before(r));
    const std::size_t bi = d - before(r) - ai;
    const bool star = ai > 0 && bi < cb.size() && ca[ai - 1] == cb[bi];
    fences[p] = {static_cast<std::size_t>(a_off[r] - a_off[0]) + ai,
                 static_cast<std::size_t>(b_off[r] - b_off[0]) + bi + star, star};
  }
  return fences;
}

/// The order: rows [r0, r1) of alpha A + beta B merged row by row into
/// `c`, whose row offsets are sized and whose col and val are empty.
/// Each entry is one (scaled) copy or one sum of the two, as seq::spadd
/// forms it.  The merge passes every balanced-path fence on its way
/// (a cut never separates a matched pair), so it records where each
/// fence's output begins: offsets[p] for fences[p].  Throws
/// InvalidInputError unless every output row's columns are in range and
/// strictly ascending, which holds exactly when both inputs' rows are.
template <typename V>
void merge_rows(V alpha, const sparse::CsrMatrix<V>& a, V beta,
                const sparse::CsrMatrix<V>& b, index_t r0, index_t r1,
                std::span<const primitives::BalancedCut> fences,
                std::span<std::size_t> offsets, sparse::CsrMatrix<V>& c) {
  // Scaling folds into the value loads (free on real hardware too).
  const bool scale_a = alpha != V{1};
  const bool scale_b = beta != V{1};
  const auto va = [&](index_t k) {
    const V v = a.val[static_cast<std::size_t>(k)];
    return scale_a ? v * alpha : v;
  };
  const auto vb = [&](index_t k) {
    const V v = b.val[static_cast<std::size_t>(k)];
    return scale_b ? v * beta : v;
  };
  // The union of A[i, ie) and B[j, je) appended to c.
  const auto merge = [&](index_t& i, index_t ie, index_t& j, index_t je) {
    while (i < ie && j < je) {
      const index_t ca = a.col[static_cast<std::size_t>(i)];
      const index_t cb = b.col[static_cast<std::size_t>(j)];
      if (ca < cb) {
        c.col.push_back(ca);
        c.val.push_back(va(i++));
      } else if (cb < ca) {
        c.col.push_back(cb);
        c.val.push_back(vb(j++));
      } else {
        c.col.push_back(ca);
        c.val.push_back(va(i++) + vb(j++));
      }
    }
    for (; i < ie; ++i) {
      c.col.push_back(a.col[static_cast<std::size_t>(i)]);
      c.val.push_back(va(i));
    }
    for (; j < je; ++j) {
      c.col.push_back(b.col[static_cast<std::size_t>(j)]);
      c.val.push_back(vb(j));
    }
  };
  const index_t a0 = a.row_offsets[static_cast<std::size_t>(r0)];
  const index_t b0 = b.row_offsets[static_cast<std::size_t>(r0)];
  std::size_t f = 0;
  for (index_t r = r0; r < r1; ++r) {
    const auto ru = static_cast<std::size_t>(r);
    index_t i = a.row_offsets[ru];
    const index_t ie = a.row_offsets[ru + 1];
    index_t j = b.row_offsets[ru];
    const index_t je = b.row_offsets[ru + 1];
    const std::size_t row_begin = c.col.size();
    // Fences this row's merge reaches.
    while (f < fences.size() &&
           a0 + static_cast<index_t>(fences[f].a_index) <= ie &&
           b0 + static_cast<index_t>(fences[f].b_index) <= je) {
      merge(i, a0 + static_cast<index_t>(fences[f].a_index), j,
            b0 + static_cast<index_t>(fences[f].b_index));
      offsets[f++] = c.col.size();
    }
    merge(i, ie, j, je);
    const std::size_t row_end = c.col.size();
    bool canonical = row_begin == row_end ||
                     (c.col[row_begin] >= 0 && c.col[row_end - 1] < c.num_cols);
    for (std::size_t k = row_begin + 1; k < row_end; ++k) {
      canonical = canonical && c.col[k - 1] < c.col[k];
    }
    MPS_CHECK_MSG(canonical, "merge::spadd requires canonical inputs");
    c.row_offsets[static_cast<std::size_t>(r - r0) + 1] =
        static_cast<index_t>(row_end);
  }
  for (; f < fences.size(); ++f) offsets[f] = c.col.size();  // no rows
}

/// One flat SpAdd block: rows [r0, r1) of alpha A + beta B into `c`.
/// The host orders C first (and so rejects non-canonical input before
/// any device work); the device is then charged the paper's pipeline
/// over the block's tuples: key packing, then the balanced-path union.
template <typename V>
SpaddStats spadd_block(vgpu::Device& device, V alpha,
                       const sparse::CsrMatrix<V>& a, V beta,
                       const sparse::CsrMatrix<V>& b, index_t r0, index_t r1,
                       sparse::CsrMatrix<V>& c) {
  MPS_CHECK_MSG(offsets_valid(a, r0, r1) && offsets_valid(b, r0, r1),
                "merge::spadd requires canonical inputs");
  util::WallTimer wall;
  SpaddStats stats;
  const auto tuples = [&](const sparse::CsrMatrix<V>& m) {
    return static_cast<std::size_t>(m.row_offsets[static_cast<std::size_t>(r1)] -
                                    m.row_offsets[static_cast<std::size_t>(r0)]);
  };
  const std::size_t an = tuples(a);
  const std::size_t bn = tuples(b);
  const primitives::SetOpConfig cfg;

  // Balanced-path union; matched tuples combine by addition.  The host
  // order also yields the charge's inputs: the fences and each tile's
  // output offset.  C's arrays reserve the union's bound; only what the
  // merge writes is touched.
  telemetry::ScopedSpan union_span("spadd.union");
  const auto fences =
      csr_fences(a, b, r0, r1, static_cast<std::size_t>(cfg.tile()));
  std::vector<std::size_t> offsets(fences.size(), 0);
  sparse::CsrMatrix<V> out(r1 - r0, a.num_cols);
  out.col.reserve(an + bn);
  out.val.reserve(an + bn);
  merge_rows(alpha, a, beta, b, r0, r1, fences, offsets, out);

  // Pack tuples into 64-bit keys whose integer order is Algorithm 1's
  // lexicographic tuple order.  The device holds the packed keys; the
  // host never needs them, so the launch only charges.
  telemetry::ScopedSpan pack_span("spadd.pack");
  vgpu::ScopedDeviceAlloc key_mem(device.memory(),
                                  (an + bn) * sizeof(std::uint64_t));
  const int pack_ctas =
      static_cast<int>(ceil_div(an + bn, std::size_t{2048})) + 1;
  stats.modeled_ms +=
      device
          .launch("merge.spadd_pack", pack_ctas, 128,
                  [&](vgpu::Cta& cta) {
                    const std::size_t lo =
                        static_cast<std::size_t>(cta.cta_id()) * 2048;
                    const std::size_t hi = std::min(an + bn, lo + 2048);
                    if (lo < hi) {
                      cta.charge_global((hi - lo) * (2 * sizeof(index_t) +
                                                     sizeof(std::uint64_t)));
                      cta.charge_alu_uniform(hi - lo);
                    }
                  })
          .modeled_ms;
  pack_span.end();

  stats.modeled_ms += primitives::set_op_charge(
      device, sizeof(std::uint64_t), an + bn > 0 ? sizeof(V) : 0, fences,
      offsets, cfg);
  union_span.end();

  // Output postcondition under MPS_INTEGRITY_CHECK: indices in range,
  // values finite.  The guard scans C's (row, col, val) tuples.
  if (resilience::integrity_checks_enabled()) {
    stats.modeled_ms += resilience::charge_guard_scan(
        device, out.col.size() * (2 * sizeof(index_t) + sizeof(V)));
    resilience::verify_csr(out, "merge.spadd: C");
  }
  c = std::move(out);
  stats.wall_ms = wall.milliseconds();
  return stats;
}

/// COO entry points: canonical COO in, through the CSR block, COO out.
template <typename V>
SpaddStats spadd_coo(vgpu::Device& device, V alpha,
                     const sparse::CooMatrix<V>& a, V beta,
                     const sparse::CooMatrix<V>& b, sparse::CooMatrix<V>& c) {
  MPS_CHECK(a.num_rows == b.num_rows && a.num_cols == b.num_cols);
  MPS_CHECK_MSG(a.is_canonical() && b.is_canonical(),
                "merge::spadd requires canonical COO inputs");
  if (sparse::strict_validation()) {
    sparse::validate_coo(a, "spadd: A");
    sparse::validate_coo(b, "spadd: B");
  }
  util::WallTimer wall;
  sparse::CsrMatrix<V> c_csr;
  SpaddStats stats =
      spadd_block(device, alpha, sparse::coo_to_csr(a), beta,
                  sparse::coo_to_csr(b), 0, a.num_rows, c_csr);
  sparse::CooMatrix<V> out(a.num_rows, a.num_cols);
  out.row = sparse::expand_row_indices(c_csr);
  out.col = std::move(c_csr.col);
  out.val = std::move(c_csr.val);
  c = std::move(out);
  stats.wall_ms = wall.milliseconds();
  return stats;
}

/// Conservative device footprint of one SpAdd block over n = |A| + |B|
/// input tuples: the packed keys (8 B each), at most n output keys and
/// values (16 B), one byte per tuple for the fences and counts (21 B per
/// 1408-tuple tile), and a fixed floor.
std::size_t block_footprint(std::size_t n) { return 25 * n + 4096; }

/// Share of free device memory a chunk may claim after a block overflows.
constexpr double kFreeMemoryFraction = 0.5;

/// Rows [row_begin, row_end) as greedy whole-row chunks whose footprint
/// fits `budget`, stitched into `c`.  A chunk takes at least one row and
/// has no step-down of its own, so a row that alone overflows throws.
SpaddStats run_chunks(vgpu::Device& device, const CsrD& a, const CsrD& b,
                      index_t row_begin, index_t row_end, std::size_t budget,
                      CsrD& c) {
  SpaddStats stats;
  stats.num_chunks = 0;
  const auto tuples = [&](std::size_t r0, std::size_t r1) {
    return static_cast<std::size_t>(a.row_offsets[r1] - a.row_offsets[r0] +
                                    b.row_offsets[r1] - b.row_offsets[r0]);
  };
  // Built locally and assigned to `c` only on success (strong guarantee).
  CsrD out(0, a.num_cols);
  const auto end = static_cast<std::size_t>(row_end);
  for (auto r0 = static_cast<std::size_t>(row_begin); r0 < end;) {
    std::size_t r1 = r0 + 1;
    while (r1 < end && block_footprint(tuples(r0, r1 + 1)) <= budget) ++r1;
    CsrD sub;
    stats.modeled_ms += spadd_block(device, 1.0, a, 1.0, b,
                                    static_cast<index_t>(r0),
                                    static_cast<index_t>(r1), sub)
                            .modeled_ms;
    sparse::append_rows(out, sub);
    ++stats.num_chunks;
    r0 = r1;
  }
  c = std::move(out);
  return stats;
}

}  // namespace

SpaddStats spadd(vgpu::Device& device, const CooD& a, const CooD& b, CooD& c) {
  return spadd_coo<double>(device, 1.0, a, 1.0, b, c);
}

SpaddStats spadd(vgpu::Device& device, const sparse::CooMatrix<float>& a,
                 const sparse::CooMatrix<float>& b, sparse::CooMatrix<float>& c) {
  return spadd_coo<float>(device, 1.0f, a, 1.0f, b, c);
}

SpaddStats spadd_scaled(vgpu::Device& device, double alpha, const CooD& a,
                        double beta, const CooD& b, CooD& c) {
  return spadd_coo<double>(device, alpha, a, beta, b, c);
}

SpaddStats spadd_csr(vgpu::Device& device, const CsrD& a, const CsrD& b,
                     CsrD& c) {
  MPS_CHECK(a.num_rows == b.num_rows && a.num_cols == b.num_cols);
  if (sparse::strict_validation()) {
    sparse::validate_csr(a, "spadd: A");
    sparse::validate_csr(b, "spadd: B");
  }
  return spadd_block(device, 1.0, a, 1.0, b, 0, a.num_rows, c);
}

SpaddStats spadd_row_block(vgpu::Device& device, const CsrD& a, const CsrD& b,
                           index_t row_begin, index_t row_end, CsrD& c_block) {
  MPS_CHECK(a.num_rows == b.num_rows && a.num_cols == b.num_cols);
  MPS_CHECK(0 <= row_begin && row_begin <= row_end && row_end <= a.num_rows);
  if (sparse::strict_validation()) {
    sparse::validate_csr(a, "spadd: A");
    sparse::validate_csr(b, "spadd: B");
  }
  util::WallTimer wall;
  const std::size_t log_before = device.log().size();
  try {
    return spadd_block(device, 1.0, a, 1.0, b, row_begin, row_end, c_block);
  } catch (const vgpu::DeviceOomError&) {
    // The block unwound cleanly (accounting restored, c_block untouched).
    // Re-run its rows in chunks sized to the memory now free, and charge
    // the kernels the failed attempt launched before it overflowed.
    double wasted_ms = 0.0;
    for (std::size_t i = log_before; i < device.log().size(); ++i) {
      wasted_ms += device.log()[i].modeled_ms;
    }
    const std::size_t free_bytes =
        device.memory().capacity() - device.memory().in_use();
    SpaddStats stats = run_chunks(
        device, a, b, row_begin, row_end,
        static_cast<std::size_t>(kFreeMemoryFraction *
                                 static_cast<double>(free_bytes)),
        c_block);
    stats.modeled_ms += wasted_ms;
    stats.wall_ms = wall.milliseconds();
    return stats;
  }
}

}  // namespace mps::core::merge

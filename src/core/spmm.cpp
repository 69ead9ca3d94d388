#include "core/spmm.hpp"

#include <vector>

#include "primitives/search.hpp"
#include "resilience/integrity.hpp"
#include "util/timer.hpp"

namespace mps::core::merge {

using sparse::CsrD;

namespace {

template <typename V>
SpmmStats spmm_impl(vgpu::Device& device, const sparse::CsrMatrix<V>& a,
                    std::span<const V> x, index_t num_vectors, std::span<V> y) {
  MPS_CHECK(num_vectors > 0);
  MPS_CHECK(x.size() >= static_cast<std::size_t>(a.num_cols) *
                            static_cast<std::size_t>(num_vectors));
  MPS_CHECK(y.size() >= static_cast<std::size_t>(a.num_rows) *
                            static_cast<std::size_t>(num_vectors));
  util::WallTimer wall;
  SpmmStats stats;
  const std::size_t nv = static_cast<std::size_t>(num_vectors);
  const std::size_t nnz = static_cast<std::size_t>(a.nnz());
  if (nnz == 0) {
    std::fill(
        y.begin(),
        y.begin() + static_cast<long>(static_cast<std::size_t>(a.num_rows) * nv),
        V{});
    stats.wall_ms = wall.milliseconds();
    return stats;
  }

  constexpr int kBlock = 128;
  constexpr std::size_t kTile = 128 * 7;
  const int num_ctas = static_cast<int>(ceil_div(nnz, kTile));
  stats.num_ctas = num_ctas;

  // Carries hold one partial row of width num_vectors per CTA.  Allocated
  // (and accounted) before y is touched so an allocation failure leaves
  // the caller's output unmodified.
  std::vector<index_t> carry_row(static_cast<std::size_t>(num_ctas), -1);
  std::vector<V> carry_val(static_cast<std::size_t>(num_ctas) * nv, 0.0);
  vgpu::ScopedDeviceAlloc carry_mem(
      device.memory(),
      static_cast<std::size_t>(num_ctas) * (sizeof(index_t) + nv * sizeof(V)));
  std::fill(y.begin(),
            y.begin() + static_cast<long>(static_cast<std::size_t>(a.num_rows) * nv),
            V{});

  const std::span<const index_t> offsets = a.row_offsets;
  const std::size_t num_rows = static_cast<std::size_t>(a.num_rows);
  auto s = device.launch("merge.spmm", num_ctas, kBlock, [&](vgpu::Cta& cta) {
    const std::size_t p_lo = static_cast<std::size_t>(cta.cta_id()) * kTile;
    const std::size_t p_hi = std::min(nnz, p_lo + kTile);
    const std::size_t row_lo =
        primitives::segment_of(offsets.subspan(0, num_rows),
                               static_cast<index_t>(p_lo));
    cta.charge_binary_search(num_rows);
    std::vector<V> acc(nv);
    for (std::size_t r = row_lo; r < num_rows; ++r) {
      const std::size_t seg_lo =
          std::max(p_lo, static_cast<std::size_t>(offsets[r]));
      const std::size_t seg_hi =
          std::min(p_hi, static_cast<std::size_t>(offsets[r + 1]));
      if (seg_lo >= seg_hi) {
        if (static_cast<std::size_t>(offsets[r]) >= p_hi) break;
        continue;
      }
      std::fill(acc.begin(), acc.end(), V{});
      for (std::size_t k = seg_lo; k < seg_hi; ++k) {
        const std::size_t col = static_cast<std::size_t>(a.col[k]);
        const V v = a.val[k];
        for (std::size_t j = 0; j < nv; ++j) acc[j] += v * x[col * nv + j];
      }
      const bool ends_here = static_cast<std::size_t>(offsets[r + 1]) <= p_hi;
      if (ends_here) {
        for (std::size_t j = 0; j < nv; ++j) y[r * nv + j] += acc[j];
      } else {
        carry_row[static_cast<std::size_t>(cta.cta_id())] = static_cast<index_t>(r);
        std::copy(acc.begin(), acc.end(),
                  carry_val.begin() +
                      static_cast<long>(static_cast<std::size_t>(cta.cta_id()) * nv));
      }
    }
    const std::size_t count = p_hi - p_lo;
    cta.charge_global(count * (sizeof(index_t) + sizeof(V)));
    // One X-row burst per nonzero: the first element is a gather, the
    // rest stream (this is SpMM's bandwidth advantage over nv SpMVs).
    cta.charge_gather(count);
    cta.charge_global(count * (nv - 1) * sizeof(V));
    cta.charge_shared_elems(3 * count * nv);
    cta.charge_alu_uniform(2 * count * nv);
    cta.charge_flops(2 * count * nv);  // one multiply-add per nnz per vector
    cta.charge_sync();
    cta.charge_sync();
  }, [&](vgpu::Cta& cta) {
    // Carry update as the launch's serialized last-CTA tail.  Canonical
    // accumulation order (see merge.spmv_reduce's tail): spanning rows
    // are rebuilt ascending-k so column j of Y stays bitwise identical to
    // spmv of right-hand side j under every batching decision.  Charges
    // model the carry fold the GPU kernel performs.
    index_t prev = -1;
    std::vector<V> acc(nv);
    for (int i = 0; i < num_ctas; ++i) {
      const index_t r = carry_row[static_cast<std::size_t>(i)];
      if (r < 0 || r == prev) continue;
      prev = r;
      std::fill(acc.begin(), acc.end(), V{});
      for (std::size_t k = static_cast<std::size_t>(
               offsets[static_cast<std::size_t>(r)]);
           k < static_cast<std::size_t>(offsets[static_cast<std::size_t>(r) + 1]);
           ++k) {
        const std::size_t col = static_cast<std::size_t>(a.col[k]);
        const V v = a.val[k];
        for (std::size_t j = 0; j < nv; ++j) acc[j] += v * x[col * nv + j];
      }
      for (std::size_t j = 0; j < nv; ++j) {
        y[static_cast<std::size_t>(r) * nv + j] = acc[j];
      }
      cta.charge_flops(
          2 *
          static_cast<std::size_t>(offsets[static_cast<std::size_t>(r) + 1] -
                                   offsets[static_cast<std::size_t>(r)]) *
          nv);
    }
    cta.charge_global(static_cast<std::size_t>(num_ctas) *
                      (sizeof(index_t) + nv * sizeof(V)));
    cta.charge_alu_uniform(static_cast<std::size_t>(num_ctas) * nv);
  });
  stats.modeled_ms += s.modeled_ms;
  // Output postcondition under MPS_INTEGRITY_CHECK: all of Y finite.
  if (resilience::integrity_checks_enabled()) {
    stats.modeled_ms += resilience::check_finite(
        device, std::span<const V>(y.data(), num_rows * nv), "merge.spmm: y");
  }
  stats.wall_ms = wall.milliseconds();
  return stats;
}

}  // namespace

SpmmStats spmm(vgpu::Device& device, const CsrD& a, std::span<const double> x,
               index_t num_vectors, std::span<double> y) {
  return spmm_impl<double>(device, a, x, num_vectors, y);
}

SpmmStats spmm(vgpu::Device& device, const sparse::CsrMatrix<float>& a,
               std::span<const float> x, index_t num_vectors,
               std::span<float> y) {
  return spmm_impl<float>(device, a, x, num_vectors, y);
}

}  // namespace mps::core::merge

#pragma once
// Shared matrix builders for the kernel test suites.

#include <vector>

#include "sparse/convert.hpp"
#include "sparse/coo.hpp"
#include "sparse/csr.hpp"
#include "util/rng.hpp"

namespace mps::testing {

/// The paper's Section III example matrix A.
inline sparse::CooD paper_a() {
  sparse::CooD a(4, 4);
  a.push_back(0, 0, 10);
  a.push_back(1, 1, 20);
  a.push_back(1, 2, 30);
  a.push_back(1, 3, 40);
  a.push_back(2, 3, 50);
  a.push_back(3, 1, 60);
  return a;
}

/// The paper's Section III example matrix B.
inline sparse::CooD paper_b() {
  sparse::CooD b(4, 4);
  b.push_back(0, 0, 1);
  b.push_back(1, 1, 2);
  b.push_back(1, 3, 3);
  b.push_back(2, 0, 4);
  b.push_back(2, 1, 5);
  b.push_back(3, 1, 6);
  b.push_back(3, 3, 7);
  return b;
}

/// Random canonical COO with approximately `nnz` entries.
inline sparse::CooD random_coo(util::Rng& rng, index_t rows, index_t cols,
                               int nnz) {
  sparse::CooD a(rows, cols);
  for (int i = 0; i < nnz; ++i) {
    a.push_back(static_cast<index_t>(rng.uniform(static_cast<std::uint64_t>(rows))),
                static_cast<index_t>(rng.uniform(static_cast<std::uint64_t>(cols))),
                rng.uniform_double(-2.0, 2.0));
  }
  a.canonicalize();
  return a;
}

/// Random CSR with a power-law row-degree profile (stress for row-wise
/// schemes and for carry chains in merge SpMV).
inline sparse::CsrD random_powerlaw_csr(util::Rng& rng, index_t rows, index_t cols,
                                        double avg_degree) {
  sparse::CooD a(rows, cols);
  for (index_t r = 0; r < rows; ++r) {
    const auto deg = static_cast<index_t>(
        std::min<std::uint64_t>(static_cast<std::uint64_t>(cols),
                                rng.zipf(static_cast<std::uint64_t>(
                                             std::max(1.0, avg_degree * 20)),
                                         1.4)));
    for (index_t i = 0; i < deg; ++i) {
      a.push_back(r,
                  static_cast<index_t>(rng.uniform(static_cast<std::uint64_t>(cols))),
                  rng.uniform_double(-1.0, 1.0));
    }
  }
  a.canonicalize();
  return sparse::coo_to_csr(a);
}

/// 6000x6000 CSR whose rows 100 and 1500 hold 2500 and 1800 nonzeros, so
/// they span several CTA tiles at every merge tile config; every other row
/// holds 1-5.  With `empty_rows`, every third row is empty (merge SpMV's
/// compaction path).
inline sparse::CsrD spanning_rows_csr(bool empty_rows, std::uint64_t seed) {
  constexpr index_t n = 6000;
  util::Rng rng(seed);
  sparse::CooD a(n, n);
  for (index_t r = 0; r < n; ++r) {
    index_t len = 1 + (r * 7) % 5;
    if (r == 100) len = 2500;
    if (r == 1500) len = 1800;
    if (empty_rows && r % 3 == 1) len = 0;
    // 37 is coprime to n, so the columns of a row are distinct.
    for (index_t k = 0; k < len; ++k) {
      a.push_back(r, (r + 37 * k) % n, rng.uniform_double(-1.0, 1.0));
    }
  }
  a.canonicalize();
  return sparse::coo_to_csr(a);
}

/// A's pattern with its values rounded to float.
inline sparse::CsrMatrix<float> to_float(const sparse::CsrD& a) {
  sparse::CsrMatrix<float> f(a.num_rows, a.num_cols);
  f.row_offsets = a.row_offsets;
  f.col = a.col;
  f.val.assign(a.val.begin(), a.val.end());
  return f;
}

/// Dense multiply reference (small shapes only).
inline std::vector<double> dense_of(const sparse::CsrD& a) {
  std::vector<double> d(static_cast<std::size_t>(a.num_rows) *
                            static_cast<std::size_t>(a.num_cols),
                        0.0);
  for (index_t r = 0; r < a.num_rows; ++r) {
    for (index_t k = a.row_offsets[static_cast<std::size_t>(r)];
         k < a.row_offsets[static_cast<std::size_t>(r) + 1]; ++k) {
      d[static_cast<std::size_t>(r) * static_cast<std::size_t>(a.num_cols) +
        static_cast<std::size_t>(a.col[static_cast<std::size_t>(k)])] +=
          a.val[static_cast<std::size_t>(k)];
    }
  }
  return d;
}

}  // namespace mps::testing

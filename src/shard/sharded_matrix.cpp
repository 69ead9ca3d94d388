#include "shard/sharded_matrix.hpp"

#include <algorithm>

#include "util/common.hpp"

namespace mps::shard {

ShardedMatrix::ShardedMatrix(const sparse::CsrD& a,
                             std::span<const int> device_ordinals,
                             std::span<const double> weights,
                             const Options& options)
    : num_rows_(a.num_rows), num_cols_(a.num_cols) {
  MPS_CHECK(!device_ordinals.empty());
  MPS_CHECK(device_ordinals.size() == weights.size());
  const auto blocks = partition_rows(a.row_offsets, weights);

  // 2D extraction first: a dense row's nonzeros leave its shard's local
  // matrix entirely and come back as fixed-order column segments spread
  // over every shard's device.
  std::vector<char> is_dense(static_cast<std::size_t>(a.num_rows), 0);
  if (options.split_2d_nnz > 0) {
    for (index_t r = 0; r < a.num_rows; ++r) {
      if (static_cast<long long>(a.row_length(r)) < options.split_2d_nnz) {
        continue;
      }
      is_dense[static_cast<std::size_t>(r)] = 1;
      DenseRow dense;
      dense.row = r;
      const index_t k0 = a.row_offsets[static_cast<std::size_t>(r)];
      const index_t k1 = a.row_offsets[static_cast<std::size_t>(r) + 1];
      const index_t len = k1 - k0;
      const index_t parts = static_cast<index_t>(device_ordinals.size());
      const index_t chunk = ceil_div(len, parts);
      for (index_t p = 0; p < parts; ++p) {
        const index_t s0 = k0 + std::min(len, p * chunk);
        const index_t s1 = k0 + std::min(len, (p + 1) * chunk);
        if (s0 >= s1) break;
        DenseRowSegment seg;
        seg.device = device_ordinals[static_cast<std::size_t>(p)];
        seg.col.assign(a.col.begin() + s0, a.col.begin() + s1);
        seg.val.assign(a.val.begin() + s0, a.val.begin() + s1);
        dense.segments.push_back(std::move(seg));
      }
      dense_rows_.push_back(std::move(dense));
    }
  }

  // Column -> local index, -1 for a column the current shard has not
  // touched.  One dense array serves every shard: each shard marks its
  // columns, sorts and numbers only its halo, remaps through the array,
  // and then clears exactly the entries it set, so the build is linear
  // in nnz plus the halo sorts (and one fill of the column count).
  std::vector<index_t> local_of(static_cast<std::size_t>(a.num_cols), -1);
  shards_.reserve(blocks.size());
  for (std::size_t i = 0; i < blocks.size(); ++i) {
    Shard shard;
    shard.row_begin = blocks[i].row_begin;
    shard.row_end = blocks[i].row_end;
    shard.device = device_ordinals[i];
    shard.weight = weights[i];

    // Halo: the sorted unique global columns this shard's nonzeros touch,
    // each recorded once on first touch.
    std::vector<index_t>& xmap = shard.xmap;
    std::size_t nnz = 0;
    for (index_t r = shard.row_begin; r < shard.row_end; ++r) {
      if (is_dense[static_cast<std::size_t>(r)]) continue;
      const index_t k0 = a.row_offsets[static_cast<std::size_t>(r)];
      const index_t k1 = a.row_offsets[static_cast<std::size_t>(r) + 1];
      nnz += static_cast<std::size_t>(k1 - k0);
      for (index_t k = k0; k < k1; ++k) {
        const index_t c = a.col[static_cast<std::size_t>(k)];
        index_t& slot = local_of[static_cast<std::size_t>(c)];
        if (slot < 0) {
          slot = 0;
          xmap.push_back(c);
        }
      }
    }
    std::sort(xmap.begin(), xmap.end());
    for (std::size_t l = 0; l < xmap.size(); ++l) {
      local_of[static_cast<std::size_t>(xmap[l])] = static_cast<index_t>(l);
    }

    // Local CSR: rebased rows, columns remapped through the monotone
    // halo map (ascending per row is preserved, so is_valid holds).
    sparse::CsrD& local = shard.local;
    local.num_rows = shard.row_end - shard.row_begin;
    local.num_cols = static_cast<index_t>(xmap.size());
    local.row_offsets.assign(static_cast<std::size_t>(local.num_rows) + 1, 0);
    local.col.reserve(nnz);
    local.val.reserve(nnz);
    for (index_t r = shard.row_begin; r < shard.row_end; ++r) {
      if (!is_dense[static_cast<std::size_t>(r)]) {
        const index_t k0 = a.row_offsets[static_cast<std::size_t>(r)];
        const index_t k1 = a.row_offsets[static_cast<std::size_t>(r) + 1];
        for (index_t k = k0; k < k1; ++k) {
          local.col.push_back(local_of[static_cast<std::size_t>(
              a.col[static_cast<std::size_t>(k)])]);
        }
        local.val.insert(local.val.end(), a.val.begin() + k0,
                         a.val.begin() + k1);
      }
      local.row_offsets[static_cast<std::size_t>(r - shard.row_begin) + 1] =
          static_cast<index_t>(local.col.size());
    }
    for (const index_t c : xmap) local_of[static_cast<std::size_t>(c)] = -1;
    shards_.push_back(std::move(shard));
  }
}

ShardedMatrix ShardedMatrix::with_values(const sparse::CsrD& a) const {
  MPS_CHECK(a.num_rows == num_rows_ && a.num_cols == num_cols_);
  ShardedMatrix out = *this;
  // A local row holds either all of its global row's nonzeros, in order,
  // or none (a 2D-split dense row), so each shard's values are its
  // non-empty rows' global values, concatenated.
  for (Shard& sh : out.shards_) {
    auto dst = sh.local.val.begin();
    for (index_t r = sh.row_begin; r < sh.row_end; ++r) {
      const auto lr = static_cast<std::size_t>(r - sh.row_begin);
      const index_t len = sh.local.row_offsets[lr + 1] - sh.local.row_offsets[lr];
      if (len == 0) continue;
      const index_t k0 = a.row_offsets[static_cast<std::size_t>(r)];
      MPS_CHECK(a.row_offsets[static_cast<std::size_t>(r) + 1] - k0 == len);
      dst = std::copy(a.val.begin() + k0, a.val.begin() + k0 + len, dst);
    }
  }
  for (DenseRow& dense : out.dense_rows_) {
    auto src = a.val.begin() + a.row_offsets[static_cast<std::size_t>(dense.row)];
    for (DenseRowSegment& seg : dense.segments) {
      std::copy(src, src + static_cast<std::ptrdiff_t>(seg.val.size()),
                seg.val.begin());
      src += static_cast<std::ptrdiff_t>(seg.val.size());
    }
  }
  return out;
}

std::size_t ShardedMatrix::halo_bytes() const {
  std::size_t bytes = 0;
  for (const Shard& s : shards_) bytes += s.xmap.size() * sizeof(double);
  return bytes;
}

}  // namespace mps::shard

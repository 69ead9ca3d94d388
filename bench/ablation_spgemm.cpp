// Ablations of the merge SpGEMM design choices called out in DESIGN.md:
//   (a) keys-only permutation embedding vs key-value pair block sort,
//   (b) bit-limited vs full 32-bit block sort,
//   (c) CTA tile size sweep,
//   (c') chunked (bounded-memory) SpGEMM against the monolithic run.
#include <cstdio>
#include <cstring>

#include "analysis/experiment.hpp"
#include "baselines/seq.hpp"
#include "core/spgemm.hpp"
#include "sparse/convert.hpp"
#include "suite_runners.hpp"
#include "util/table.hpp"
#include "workloads/generators.hpp"
#include "workloads/suite.hpp"

using mps::bench::require;

int main() {
  using namespace mps;
  const auto cfg = analysis::bench_config(/*default_scale=*/0.01);
  analysis::print_system_config(vgpu::gtx_titan(), cfg);

  // (a) + (b): sort-strategy ablation on a regular and an irregular matrix.
  {
    util::Table t("Ablation: block-sort strategy (modeled ms, merge SpGEMM)");
    t.set_header({"Matrix", "embedded+bit-limited", "pairs+bit-limited",
                  "pairs+full-32bit", "block sort share"});
    for (const auto* name : {"Protein", "Webbase"}) {
      const auto e = workloads::suite_entry(name, cfg.scale);
      vgpu::Device dev;
      sparse::CsrD c;
      core::merge::SpgemmConfig base;
      auto s0 = core::merge::spgemm(dev, e.matrix, e.matrix, c, base);
      core::merge::SpgemmConfig pairs = base;
      pairs.force_pair_sort = true;
      auto s1 = core::merge::spgemm(dev, e.matrix, e.matrix, c, pairs);
      core::merge::SpgemmConfig full = base;
      full.force_full_bits = true;
      auto s2 = core::merge::spgemm(dev, e.matrix, e.matrix, c, full);
      t.add_row({name, util::fmt(s0.modeled_ms(), 3), util::fmt(s1.modeled_ms(), 3),
                 util::fmt(s2.modeled_ms(), 3),
                 util::fmt(100.0 * s0.phases.block_sort_ms / s0.modeled_ms(), 1) + "%"});
    }
    std::fputs(t.render().c_str(), stdout);
    std::puts("");
  }

  // (c): tile-size sweep.
  {
    util::Table t("Ablation: CTA tile size (items per thread, 128 threads)");
    t.set_header({"items/thread", "tile", "modeled ms", "block uniques"});
    const auto e = workloads::suite_entry("Cantilever", cfg.scale);
    for (int items : {3, 7, 11, 15, 19}) {
      vgpu::Device dev;
      sparse::CsrD c;
      core::merge::SpgemmConfig sc;
      sc.items_per_thread = items;
      const auto s = core::merge::spgemm(dev, e.matrix, e.matrix, c, sc);
      t.add_row({util::fmt_int(items), util::fmt_int(sc.tile()),
                 util::fmt(s.modeled_ms(), 3),
                 util::fmt_sep(static_cast<unsigned long long>(s.block_unique))});
    }
    std::fputs(t.render().c_str(), stdout);
    std::puts("");
  }

  // (c'): chunking — the bounded-memory answer to the paper's Dense OOM:
  // whole-row chunks of A, each tiled at its global product prefix, so
  // the stitched C is bitwise equal to flat.  The budget is an eighth of
  // chunked's own whole-matrix footprint estimate (40 B per product +
  // 16 B per nonzero, over a 4 KiB floor), about 8 chunks.
  {
    util::Table t("Ablation: chunked SpGEMM (bounded memory, bitwise = flat)");
    t.set_header({"Matrix", "chunks", "chunked ms", "vs monolithic"});
    for (const auto* name : {"Dense", "Cantilever"}) {
      const auto e = workloads::suite_entry(name, cfg.scale);
      vgpu::Device dev;
      sparse::CsrD c;
      const auto mono = core::merge::spgemm(dev, e.matrix, e.matrix, c);
      core::merge::ChunkedConfig chunked;
      chunked.chunk_bytes = static_cast<std::size_t>(
          (40 * mono.num_products + 16 * static_cast<long long>(e.matrix.nnz())) / 8 +
          4096);
      sparse::CsrD c2;
      const auto ch = core::merge::spgemm_chunked(dev, e.matrix, e.matrix, c2, chunked);
      require(c2.row_offsets == c.row_offsets && c2.col == c.col &&
                  c2.val.size() == c.val.size() &&
                  std::memcmp(c2.val.data(), c.val.data(),
                              c.val.size() * sizeof(double)) == 0,
              "chunked SpGEMM not bitwise equal to flat");
      t.add_row({name, util::fmt_int(ch.num_chunks), util::fmt(ch.modeled_ms(), 3),
                 util::fmt(ch.modeled_ms() / mono.modeled_ms(), 2) + "x"});
    }
    std::fputs(t.render().c_str(), stdout);
    std::puts("");
  }
  return 0;
}

// mps_run — command-line driver: run any kernel family on a Matrix Market
// file (or a named Table II surrogate) under any scheme, print modeled
// cost, and optionally dump a Chrome trace of the kernel pipeline.
//
//   mps_run --op spmv --matrix path/to/A.mtx
//   mps_run --op spgemm --suite Protein --scale 0.01 --scheme merge
//   mps_run --op spadd --suite Webbase --scheme all --trace out.json
//
// Options:
//   --op spmv|spadd|spgemm       kernel family (required)
//   --matrix FILE.mtx            input matrix (this or --suite)
//   --suite NAME                 Table II surrogate by name
//   --scale S                    suite scale factor (default 0.05)
//   --scheme merge|cusp|rowwise|all   (default merge)
//   --trace FILE.json            write chrome://tracing JSON
//   --verify                     check against the sequential reference
#include <cstdio>
#include <cstring>
#include <map>
#include <string>
#include <vector>

#include "baselines/cusplike.hpp"
#include "baselines/rowwise.hpp"
#include "baselines/seq.hpp"
#include "core/spadd.hpp"
#include "core/spgemm.hpp"
#include "core/spmv.hpp"
#include "sparse/compare.hpp"
#include "sparse/convert.hpp"
#include "sparse/io.hpp"
#include "sparse/stats.hpp"
#include "util/rng.hpp"
#include "util/table.hpp"
#include "vgpu/trace.hpp"
#include "workloads/suite.hpp"
#include "util/main_guard.hpp"

namespace {

using namespace mps;

[[noreturn]] void usage(const char* argv0) {
  std::fprintf(stderr,
               "usage: %s --op spmv|spadd|spgemm (--matrix F.mtx | --suite NAME)\n"
               "          [--scale S] [--scheme merge|cusp|rowwise|all]\n"
               "          [--trace FILE.json] [--verify]\n",
               argv0);
  std::exit(2);
}

struct Options {
  std::string op;
  std::string matrix_file;
  std::string suite_name;
  std::string scheme = "merge";
  std::string trace_file;
  double scale = 0.05;
  bool verify = false;
};

Options parse(int argc, char** argv) {
  Options o;
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    auto value = [&]() -> std::string {
      if (i + 1 >= argc) usage(argv[0]);
      return argv[++i];
    };
    if (arg == "--op") {
      o.op = value();
    } else if (arg == "--matrix") {
      o.matrix_file = value();
    } else if (arg == "--suite") {
      o.suite_name = value();
    } else if (arg == "--scale") {
      o.scale = std::stod(value());
    } else if (arg == "--scheme") {
      o.scheme = value();
    } else if (arg == "--trace") {
      o.trace_file = value();
    } else if (arg == "--verify") {
      o.verify = true;
    } else if (arg == "--help" || arg == "-h") {
      usage(argv[0]);
    } else {
      std::fprintf(stderr, "unknown option: %s\n", arg.c_str());
      usage(argv[0]);
    }
  }
  if (o.op.empty() || (o.matrix_file.empty() == o.suite_name.empty())) usage(argv[0]);
  return o;
}

sparse::CsrD load_matrix(const Options& o) {
  if (!o.matrix_file.empty()) {
    auto coo = sparse::read_matrix_market_file(o.matrix_file);
    coo.canonicalize();
    return sparse::coo_to_csr(coo);
  }
  return workloads::suite_entry(o.suite_name, o.scale).matrix;
}

struct Run {
  std::string scheme;
  double modeled_ms = 0.0;
  double wall_ms = 0.0;
  bool verified = false;
  bool verify_ok = true;
};

}  // namespace

namespace {

int run_main(int argc, char** argv) {
  const Options opt = parse(argc, argv);
  const auto a = load_matrix(opt);
  const auto stats = sparse::compute_stats(a);
  std::printf("matrix: %d x %d, %lld nnz, %.2f avg/row (std %.2f, max %d, %d empty)\n",
              stats.rows, stats.cols, stats.nnz, stats.avg_row, stats.std_row,
              stats.max_row, stats.empty_rows);

  std::vector<std::string> schemes;
  if (opt.scheme == "all") {
    schemes = {"merge", "cusp", "rowwise"};
  } else if (opt.scheme == "merge" || opt.scheme == "cusp" ||
             opt.scheme == "rowwise") {
    schemes = {opt.scheme};
  } else {
    usage(argv[0]);
  }

  vgpu::Device device;
  util::Rng rng(1);
  std::vector<Run> runs;
  for (const auto& scheme : schemes) {
    Run run;
    run.scheme = scheme;
    if (opt.op == "spmv") {
      std::vector<double> x(static_cast<std::size_t>(a.num_cols));
      for (auto& v : x) v = rng.uniform_double(-1, 1);
      std::vector<double> y(static_cast<std::size_t>(a.num_rows));
      if (scheme == "merge") {
        const auto s = core::merge::spmv(device, a, x, y);
        run.modeled_ms = s.modeled_ms();
        run.wall_ms = s.wall_ms;
      } else if (scheme == "cusp") {
        const auto s = baselines::cusplike::spmv(device, a, x, y);
        run.modeled_ms = s.modeled_ms;
        run.wall_ms = s.wall_ms;
      } else {
        const auto s = baselines::rowwise::spmv(device, a, x, y);
        run.modeled_ms = s.modeled_ms;
        run.wall_ms = s.wall_ms;
      }
      if (opt.verify) {
        std::vector<double> ref(y.size());
        baselines::seq::spmv(a, x, ref);
        run.verified = true;
        for (std::size_t i = 0; i < y.size(); ++i) {
          if (std::abs(y[i] - ref[i]) > 1e-9) run.verify_ok = false;
        }
      }
    } else if (opt.op == "spadd") {
      const auto a_coo = sparse::csr_to_coo(a);
      if (scheme == "merge") {
        sparse::CooD c;
        const auto s = core::merge::spadd(device, a_coo, a_coo, c);
        run.modeled_ms = s.modeled_ms;
        run.wall_ms = s.wall_ms;
        if (opt.verify) {
          run.verified = true;
          run.verify_ok =
              sparse::compare_csr(sparse::coo_to_csr(c),
                                  baselines::seq::spadd(a, a))
                  .equal;
        }
      } else if (scheme == "cusp") {
        sparse::CooD c;
        const auto s = baselines::cusplike::spadd(device, a_coo, a_coo, c);
        run.modeled_ms = s.modeled_ms;
        run.wall_ms = s.wall_ms;
      } else {
        sparse::CsrD c;
        const auto s = baselines::rowwise::spadd(device, a, a, c);
        run.modeled_ms = s.modeled_ms;
        run.wall_ms = s.wall_ms;
      }
    } else if (opt.op == "spgemm") {
      sparse::CsrD c;
      try {
        if (scheme == "merge") {
          const auto s = core::merge::spgemm(device, a, a, c);
          run.modeled_ms = s.modeled_ms();
          run.wall_ms = s.wall_ms;
          std::printf("  [%s] %lld products -> %d nnz; phases (ms): setup %.3f, "
                      "block sort %.3f, global sort %.3f, products %.3f, reduce %.3f\n",
                      scheme.c_str(), s.num_products, c.nnz(), s.phases.setup_ms,
                      s.phases.block_sort_ms, s.phases.global_sort_ms,
                      s.phases.product_compute_ms, s.phases.product_reduce_ms);
        } else if (scheme == "cusp") {
          const auto s = baselines::cusplike::spgemm(device, a, a, c);
          run.modeled_ms = s.modeled_ms;
          run.wall_ms = s.wall_ms;
        } else {
          const auto s = baselines::rowwise::spgemm(device, a, a, c);
          run.modeled_ms = s.modeled_ms;
          run.wall_ms = s.wall_ms;
        }
      } catch (const vgpu::DeviceOomError& e) {
        std::printf("  [%s] OOM: %s\n", scheme.c_str(), e.what());
        continue;
      }
      if (opt.verify && c.nnz() > 0) {
        // Merge SpGEMM reproduces Gustavson's accumulation order, so its
        // bits must match; the baselines reduce in their own orders.
        const auto ref = baselines::seq::spgemm(a, a);
        run.verified = true;
        run.verify_ok = scheme == "merge"
                            ? sparse::same_bits(c, ref)
                            : sparse::compare_csr(c, ref, 1e-9, 1e-11).equal;
      }
    } else {
      usage(argv[0]);
    }
    runs.push_back(run);
  }

  util::Table t(opt.op + " results");
  t.set_header({"scheme", "modeled ms", "host wall ms", "verified"});
  for (const auto& r : runs) {
    t.add_row({r.scheme, util::fmt(r.modeled_ms, 4), util::fmt(r.wall_ms, 2),
               r.verified ? (r.verify_ok ? "ok" : "FAILED") : "-"});
  }
  std::fputs(t.render().c_str(), stdout);

  if (!opt.trace_file.empty()) {
    vgpu::write_chrome_trace_file(opt.trace_file, device);
    std::printf("trace with %zu kernels written to %s\n", device.log().size(),
                opt.trace_file.c_str());
  }
  for (const auto& r : runs) {
    if (r.verified && !r.verify_ok) return 1;
  }
  return 0;
}

}  // namespace

int main(int argc, char** argv) {
  return mps::util::guarded_main("mps_run",
                                 [&] { return run_main(argc, argv); });
}

// perfbench: the repository benchmark binary (see README.md).
//
//   perfbench --workload kernels|serve_spmv|serve_fleet --seed N
//             --seconds S [--trace 0|1] [--work-dir DIR]
//
// Prints one JSON line: op counts, the thread layout, and either the
// end-to-end metrics (timed run) or the per-layer metrics the workload
// measured (traced run; perfbench/run.py reports the layers it bypasses
// as 0).

#include <sched.h>

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <string>
#include <vector>

#include "common.hpp"

extern char** environ;

namespace {

using perfbench::Options;
using perfbench::Report;

[[noreturn]] void usage(const char* why) {
  std::fprintf(stderr,
               "perfbench: %s\nusage: perfbench --workload kernels|serve_spmv|serve_fleet "
               "--seed N --seconds S [--trace 0|1] [--work-dir DIR]\n",
               why);
  std::exit(2);
}

Options parse(int argc, char** argv) {
  Options o;
  for (int i = 1; i < argc; ++i) {
    const std::string key = argv[i];
    if (i + 1 >= argc) usage(("missing value for " + key).c_str());
    const std::string val = argv[++i];
    try {
      if (key == "--workload") {
        o.workload = val;
      } else if (key == "--seed") {
        o.seed = std::stoull(val);
      } else if (key == "--seconds") {
        o.seconds = std::stod(val);
      } else if (key == "--trace") {
        o.trace = std::stoi(val) != 0;
      } else if (key == "--work-dir") {
        o.work_dir = val;
      } else {
        usage(("unknown option " + key).c_str());
      }
    } catch (const std::logic_error&) {
      usage(("bad value for " + key).c_str());
    }
  }
  if (o.workload != "kernels" && o.workload != "serve_spmv" && o.workload != "serve_fleet") {
    usage("unknown workload");
  }
  if (!(o.seconds > 0.0)) usage("--seconds must be positive");
  return o;
}

unsigned affinity_cpus() {
  cpu_set_t set;
  CPU_ZERO(&set);
  if (sched_getaffinity(0, sizeof(set), &set) != 0) return 1;
  return static_cast<unsigned>(CPU_COUNT(&set));
}

/// The library reads MPS_* knobs from the environment; clear them all so
/// only the settings below shape the run, then size the vgpu pool.
void pin_environment(unsigned pool) {
  std::vector<std::string> names;
  for (char** e = environ; *e; ++e) {
    if (std::strncmp(*e, "MPS_", 4) == 0) {
      const char* eq = std::strchr(*e, '=');
      names.emplace_back(*e, eq ? static_cast<std::size_t>(eq - *e) : std::strlen(*e));
    }
  }
  for (const auto& n : names) unsetenv(n.c_str());
  setenv("MPS_THREADS", std::to_string(pool).c_str(), 1);
}

void print_number(double v) {
  if (std::isfinite(v)) {
    std::printf("%.17g", v);
  } else {
    std::printf("null");
  }
}

void print_object(const std::vector<std::pair<std::string, double>>& kv) {
  std::printf("{");
  for (std::size_t i = 0; i < kv.size(); ++i) {
    std::printf("%s\"%s\": ", i ? ", " : "", kv[i].first.c_str());
    print_number(kv[i].second);
  }
  std::printf("}");
}

}  // namespace

int main(int argc, char** argv) {
  const Options opt = parse(argc, argv);
  const unsigned nproc = affinity_cpus();

  // Thread layout (common.hpp): one client thread; the kernels workload
  // adds vgpu pool helpers, the serving workloads the engine's
  // dispatcher and workers.  Refuse a layout that does not fit in the
  // CPUs this process may use.
  const bool kernels = opt.workload == "kernels";
  const unsigned pool = kernels ? std::min(nproc, perfbench::kKernelsPoolMax)
                                : perfbench::kServePool;
  const unsigned dispatcher = kernels ? 0 : perfbench::kEngineDispatchers;
  const unsigned workers = kernels ? 0 : perfbench::kEngineWorkers;
  const unsigned total = 1 + dispatcher + workers + (pool - 1);
  if (total > nproc) {
    std::fprintf(stderr,
                 "perfbench: layout needs %u threads (client 1, dispatcher %u, engine "
                 "workers %u, vgpu helpers %u) but only %u CPUs are available\n",
                 total, dispatcher, workers, pool - 1, nproc);
    return 3;
  }
  pin_environment(pool);

  Report r;
  const double t0 = perfbench::now_s();
  if (kernels) {
    perfbench::run_kernels(opt, r);
  } else {
    perfbench::run_serve(opt, r, opt.workload == "serve_fleet");
  }
  r.note("process_wall_s", perfbench::now_s() - t0);

  std::vector<std::pair<std::string, double>> metrics = r.metrics;
  if (opt.trace) metrics.assign(r.layer.begin(), r.layer.end());

  std::printf("{\"workload\": \"%s\", \"seed\": %llu, \"scale\": %g, \"trace\": %d, ",
              opt.workload.c_str(), static_cast<unsigned long long>(opt.seed),
              perfbench::kScale, opt.trace ? 1 : 0);
  std::printf("\"layout\": ");
  print_object({{"nproc", nproc},
                {"client_threads", 1},
                {"dispatcher_threads", dispatcher},
                {"engine_workers", workers},
                {"vgpu_pool", pool},
                {"total_threads", total}});
  std::printf(", \"attempted\": %lld, \"succeeded\": %lld, \"failed\": %lld, ", r.attempted,
              r.succeeded, r.failed);
  std::printf("\"model_repeatable\": %s, \"trace_digest\": \"%016llx\", \"info\": ",
              r.model_repeatable ? "true" : "false",
              static_cast<unsigned long long>(r.trace_digest));
  print_object(r.info);
  std::printf(", \"metrics\": ");
  print_object(metrics);
  std::printf("}\n");
  return 0;
}

// Multi-device shard scaling: replay one Zipf-skewed SpMV trace through
// the serving engine at 1/2/4/8 modeled devices and report how the
// summed modeled kernel cost falls as the fleet grows (docs/sharding.md).
//
// The tenants are deliberately LARGE (tens of thousands of rows, ~2M
// nnz): sharding splits the nnz-proportional kernel time across the
// fleet but the per-launch fixed overhead and the halo gather do not
// shrink, so small matrices would flatter nothing.  With ~500K nnz per
// shard the fixed costs are noise and modeled scaling approaches the
// fleet width.
//
// Validation:
//   * answers are bitwise-identical at every fleet size (row-block
//     sharding preserves each row's accumulation order exactly);
//   * modeled scaling 1 -> 4 homogeneous devices is at least 3x;
//   * on a heterogeneous "fast*2,slow*2" fleet, cost-model placement
//     beats uniform placement (shard/placement.hpp: each device's share
//     is sized so launch floor plus bytes at its bandwidth finish
//     together, so the slow devices get far fewer rows and the
//     fleet-concurrent makespan drops).
#include <algorithm>
#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <future>
#include <string>
#include <vector>

#include "analysis/bench_json.hpp"
#include "analysis/experiment.hpp"
#include "serve/engine.hpp"
#include "serve/trace.hpp"
#include "sparse/csr.hpp"
#include "util/rng.hpp"
#include "util/table.hpp"

namespace {

using namespace mps;

void require(bool ok, const char* what) {
  if (!ok) {
    std::fprintf(stderr, "BENCH VALIDATION FAILED: %s\n", what);
    std::exit(2);
  }
}

std::vector<double> make_x(const sparse::CsrD& a, std::uint64_t seed) {
  util::Rng rng(seed);
  std::vector<double> x(static_cast<std::size_t>(a.num_cols));
  for (auto& v : x) v = rng.uniform_double(-1, 1);
  return x;
}

std::uint64_t hash_bits(const std::vector<double>& y) {
  std::uint64_t h = 1469598103934665603ull;
  for (const double v : y) {
    std::uint64_t bits;
    std::memcpy(&bits, &v, sizeof(bits));
    for (int b = 0; b < 64; b += 8) {
      h ^= (bits >> b) & 0xff;
      h *= 1099511628211ull;
    }
  }
  return h;
}

/// A large uniform-random square CSR tenant (~nnz_per_row per row).
sparse::CsrD make_tenant(index_t n, index_t nnz_per_row, std::uint64_t seed) {
  util::Rng rng(seed);
  sparse::CsrD a;
  a.num_rows = n;
  a.num_cols = n;
  a.row_offsets.assign(static_cast<std::size_t>(n) + 1, 0);
  std::vector<index_t> cols;
  cols.reserve(static_cast<std::size_t>(nnz_per_row));
  for (index_t r = 0; r < n; ++r) {
    cols.clear();
    for (index_t k = 0; k < nnz_per_row; ++k) {
      cols.push_back(
          static_cast<index_t>(rng.uniform(static_cast<std::uint64_t>(n))));
    }
    std::sort(cols.begin(), cols.end());
    cols.erase(std::unique(cols.begin(), cols.end()), cols.end());
    for (const index_t c : cols) {
      a.col.push_back(c);
      a.val.push_back(rng.uniform_double(-1, 1));
    }
    a.row_offsets[static_cast<std::size_t>(r) + 1] =
        static_cast<index_t>(a.col.size());
  }
  return a;
}

struct RunResult {
  double modeled_ms = 0.0;
  double wall_s = 0.0;
  std::vector<std::uint64_t> hashes;
  serve::EngineStats stats;
};

RunResult run(const std::vector<sparse::CsrD>& tenants,
              const std::vector<serve::TraceOp>& trace, int devices,
              const std::string& spec, const std::string& placement) {
  serve::EngineConfig cfg;
  cfg.threads = 4;
  cfg.batch_window = 1;  // isolate the sharded spmv path
  cfg.queue_capacity = 2048;
  cfg.plan_cache_bytes = 256u << 20;
  cfg.devices = devices;
  cfg.device_spec = spec;
  if (!placement.empty()) cfg.shard_placement = placement;
  serve::Engine engine(cfg);
  std::vector<serve::MatrixHandle> handles;
  for (const auto& a : tenants) handles.push_back(engine.register_matrix(a));

  const auto t0 = std::chrono::steady_clock::now();
  std::vector<std::future<serve::SpmvResult>> futures;
  futures.reserve(trace.size());
  for (const auto& op : trace) {
    futures.push_back(engine.submit_spmv(
        handles[op.matrix], make_x(tenants[op.matrix], op.x_seed)));
  }
  RunResult out;
  out.hashes.reserve(futures.size());
  for (auto& f : futures) {
    serve::SpmvResult r = f.get();
    out.modeled_ms += r.modeled_ms;
    out.hashes.push_back(hash_bits(r.y));
  }
  out.wall_s =
      std::chrono::duration<double>(std::chrono::steady_clock::now() - t0)
          .count();
  engine.shutdown();
  out.stats = engine.stats();
  require(out.stats.completed == static_cast<long long>(trace.size()),
          "not every request completed");
  return out;
}

}  // namespace

int main() {
  const auto cfg = analysis::bench_config(/*default_scale=*/1.0);
  analysis::print_system_config(vgpu::gtx_titan(), cfg);

  // Three ~2M-nnz tenants; the Zipf trace skews traffic onto the first.
  const index_t n = static_cast<index_t>(40000.0 * cfg.scale);
  std::vector<sparse::CsrD> tenants;
  for (std::uint64_t s = 0; s < 3; ++s) {
    tenants.push_back(make_tenant(std::max<index_t>(n, 1024), 50, 1000 + s));
  }
  serve::TraceConfig tcfg;
  tcfg.requests = 96;
  tcfg.spadd_percent = 0;
  tcfg.spgemm_percent = 0;
  const auto trace = serve::synthetic_trace(tcfg, tenants.size());
  std::printf("tenants: 3 x %d rows, ~%lld nnz each  |  %zu SpMV requests, "
              "zipf %.2f\n\n",
              tenants[0].num_rows, static_cast<long long>(tenants[0].nnz()),
              trace.size(), tcfg.zipf_s);

  util::Table t("Shard scaling: modeled SpMV cost vs fleet size");
  t.set_header({"devices", "spec", "placement", "modeled ms", "scaling",
                "req/s", "shards"});
  analysis::BenchJson report("shard_scaling");
  report.add_stat("scale", cfg.scale);
  report.add_stat("requests", static_cast<double>(trace.size()));
  report.add_stat("tenant_nnz", static_cast<double>(tenants[0].nnz()));

  // Homogeneous sweep: all-titan fleets of 1/2/4/8.  devices=1 serves
  // unsharded (one shard would be pointless) and is the baseline.
  double modeled_1 = 0.0;
  double scaling_4 = 0.0;
  std::vector<std::uint64_t> reference_hashes;
  for (const int devices : {1, 2, 4, 8}) {
    const RunResult r = run(tenants, trace, devices, "", "");
    if (devices == 1) {
      modeled_1 = r.modeled_ms;
      reference_hashes = r.hashes;
    } else {
      require(r.hashes == reference_hashes,
              "sharded answers diverged bitwise from single-device");
    }
    const double scaling = modeled_1 / r.modeled_ms;
    if (devices == 4) scaling_4 = scaling;
    long long shards = 0;
    for (const auto& d : r.stats.devices) shards += d.shards_hosted;
    t.add_row({std::to_string(devices), "titan", "weighted",
               util::fmt(r.modeled_ms, 2), util::fmt(scaling, 2) + "x",
               util::fmt(static_cast<double>(trace.size()) / r.wall_s, 1),
               std::to_string(shards)});
    report.add_case("titan_x" + std::to_string(devices),
                    {{"devices", static_cast<double>(devices)},
                     {"modeled_ms", r.modeled_ms},
                     {"scaling", scaling},
                     {"shards", static_cast<double>(shards)}});
  }
  require(scaling_4 >= 3.0,
          "modeled SpMV scaling 1 -> 4 homogeneous devices is below 3x");
  report.add_stat("scaling_1_to_4", scaling_4);

  // Heterogeneous fleet: 2 fast + 2 slow devices.  Weighted placement
  // cuts the merge-path staircase by the launch-floor + bandwidth cost
  // model (equal predicted finish times); uniform placement gives every
  // device the same share, so the slow pair dominates the makespan.
  double hetero_modeled[2] = {0.0, 0.0};
  int idx = 0;
  for (const std::string placement : {"weighted", "uniform"}) {
    const RunResult r = run(tenants, trace, 4, "fast*2,slow*2", placement);
    require(r.hashes == reference_hashes,
            "heterogeneous sharding changed answers bitwise");
    hetero_modeled[idx] = r.modeled_ms;
    t.add_row({"4", "fast*2,slow*2", placement, util::fmt(r.modeled_ms, 2),
               util::fmt(modeled_1 / r.modeled_ms, 2) + "x",
               util::fmt(static_cast<double>(trace.size()) / r.wall_s, 1),
               "-"});
    report.add_case("hetero_" + placement,
                    {{"devices", 4.0},
                     {"modeled_ms", r.modeled_ms},
                     {"scaling", modeled_1 / r.modeled_ms}});
    ++idx;
  }
  require(hetero_modeled[0] < hetero_modeled[1],
          "cost-model placement does not beat uniform on the hetero fleet");
  report.add_stat("hetero_weighted_vs_uniform",
                  hetero_modeled[1] / hetero_modeled[0]);

  analysis::emit(t, "shard_scaling");
  report.write();
  std::puts("\nExpected shape: modeled cost falls near-linearly with fleet"
            " size (halo + launch overhead bound the tail), answers are"
            " bitwise-identical in every row, and cost-model placement"
            " beats uniform on the mixed fleet.");
  return 0;
}

// Serving-engine throughput: threads x batch-window sweep over a
// Zipf-skewed multi-tenant SpMV trace on the iterative-suite (Table II)
// matrices.  For each configuration the table reports wall throughput,
// tail latency, the modeled kernel cost (batched SpMM amortizes the
// merge-path partition across coalesced requests, so the summed modeled
// cost falls as the window opens), and plan-cache effectiveness.
//
// Validation: the engine's determinism contract — every configuration
// must produce bitwise-identical answers for every request, regardless
// of thread count, batch window, or arrival interleaving.
#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <filesystem>
#include <future>
#include <span>
#include <vector>

#include "analysis/bench_json.hpp"
#include "analysis/experiment.hpp"
#include "resilience/integrity.hpp"
#include "serve/engine.hpp"
#include "serve/trace.hpp"
#include "suite_runners.hpp"
#include "telemetry/profile.hpp"
#include "telemetry/span.hpp"
#include "util/rng.hpp"
#include "util/table.hpp"
#include "workloads/suite.hpp"

namespace {

using namespace mps;

using bench::require;

std::vector<double> make_x(const sparse::CsrD& a, std::uint64_t seed) {
  util::Rng rng(seed);
  std::vector<double> x(static_cast<std::size_t>(a.num_cols));
  for (auto& v : x) v = rng.uniform_double(-1, 1);
  return x;
}

// FNV-1a over the result bits: cheap bitwise-equality witness across
// configurations without storing every vector 16 times.
std::uint64_t hash_bits(const std::vector<double>& y) {
  return resilience::checksum_span(std::span<const double>(y));
}

}  // namespace

int main() {
  const auto cfg = analysis::bench_config(/*default_scale=*/0.3);
  analysis::print_system_config(vgpu::gtx_titan(), cfg);

  // Tenants: the iterative-suite matrices (the repeated-SpMV regime the
  // plan cache exists for).
  std::vector<sparse::CsrD> tenants;
  std::vector<std::string> tenant_names;
  for (const auto& it : workloads::iterative_suite(cfg.scale)) {
    tenants.push_back(it.entry.matrix);
    tenant_names.push_back(it.entry.name);
  }
  require(!tenants.empty(), "iterative suite is empty");

  serve::TraceConfig tcfg;
  tcfg.requests = 400;
  tcfg.spadd_percent = 0;   // pure SpMV: isolate the batching effect
  tcfg.spgemm_percent = 0;
  const auto trace = serve::synthetic_trace(tcfg, tenants.size());

  std::printf("tenants:");
  for (const auto& n : tenant_names) std::printf(" %s", n.c_str());
  std::printf("  |  %zu SpMV requests, zipf %.2f\n\n", trace.size(), tcfg.zipf_s);

  util::Table t("Serving throughput: threads x batch window, "
                + std::to_string(trace.size()) + " SpMV requests");
  t.set_header({"threads", "window", "req/s", "p50 ms", "p99 ms",
                "modeled ms", "batched%", "max", "cache hit%"});

  analysis::BenchJson report("serve_throughput");
  report.add_stat("scale", cfg.scale);
  report.add_stat("requests", static_cast<double>(trace.size()));
  std::vector<std::uint64_t> reference_hashes;  // from the first config
  double modeled_unbatched = 0.0;               // window=1 baseline per thread count
  for (const unsigned threads : {1u, 2u, 4u, 8u}) {
    for (const int window : {1, 4, 8, 16}) {
      serve::EngineConfig ecfg;
      ecfg.threads = threads;
      ecfg.batch_window = window;
      ecfg.queue_capacity = 2048;
      ecfg.plan_cache_bytes = 64u << 20;
      serve::Engine engine(ecfg);
      std::vector<serve::MatrixHandle> handles;
      for (const auto& a : tenants) handles.push_back(engine.register_matrix(a));

      const auto t0 = std::chrono::steady_clock::now();
      std::vector<std::future<serve::SpmvResult>> futures;
      futures.reserve(trace.size());
      for (const auto& op : trace) {
        futures.push_back(engine.submit_spmv(
            handles[op.matrix], make_x(tenants[op.matrix], op.x_seed)));
      }
      double modeled_ms = 0.0;
      long long batched = 0;
      long long max_batch = 1;
      std::vector<std::uint64_t> hashes;
      hashes.reserve(futures.size());
      for (auto& f : futures) {
        serve::SpmvResult r = f.get();
        modeled_ms += r.modeled_ms;
        if (r.batch_size > 1) ++batched;
        max_batch = std::max(max_batch, static_cast<long long>(r.batch_size));
        hashes.push_back(hash_bits(r.y));
      }
      const double wall_s =
          std::chrono::duration<double>(std::chrono::steady_clock::now() - t0)
              .count();
      engine.shutdown();
      const auto s = engine.stats();

      // Determinism across every configuration: bitwise-identical
      // answers request-for-request (the differential guarantee of
      // tests/serve_test.cpp, re-checked at bench scale).
      if (reference_hashes.empty()) {
        reference_hashes = hashes;
      } else {
        require(hashes == reference_hashes,
                "answers changed across thread/window configurations");
      }
      require(s.completed == static_cast<long long>(trace.size()),
              "not every request completed");
      require(s.peak_queue_depth <= s.queue_capacity,
              "queue exceeded its cap");
      if (window == 1) {
        modeled_unbatched = modeled_ms;
        require(s.batches == 0, "window=1 must never batch");
      }

      const auto& pc = s.plan_cache;
      const double lookups = static_cast<double>(pc.hits + pc.misses);
      t.add_row({std::to_string(threads), std::to_string(window),
                 util::fmt(static_cast<double>(trace.size()) / wall_s, 1),
                 util::fmt(s.latency_p50_ms, 3), util::fmt(s.latency_p99_ms, 3),
                 util::fmt(modeled_ms, 2),
                 util::fmt(100.0 * static_cast<double>(batched) /
                               static_cast<double>(trace.size()), 1),
                 std::to_string(max_batch),
                 lookups > 0
                     ? util::fmt(100.0 * static_cast<double>(pc.hits) / lookups, 1)
                     : "-"});
      // Wall-clock metrics (req/s, latency) vary run to run; modeled ms
      // and cache behavior are the deterministic regression signals.
      report.add_case("t" + std::to_string(threads) + "_w" +
                          std::to_string(window),
                      {{"threads", static_cast<double>(threads)},
                       {"window", static_cast<double>(window)},
                       {"modeled_ms", modeled_ms},
                       {"batched", static_cast<double>(batched)},
                       {"max_batch", static_cast<double>(max_batch)},
                       {"cache_hits", static_cast<double>(pc.hits)},
                       {"cache_misses", static_cast<double>(pc.misses)}});
      // Coalescing must not cost modeled time: a batched dispatch runs
      // ONE merge-path partition where unbatched dispatch runs N.
      if (window > 1) {
        require(modeled_ms <= modeled_unbatched * 1.0001,
                "batched modeled cost exceeds unbatched");
      }
    }
  }
  // Zero-overhead-when-off contract: constructing the engine with the
  // chaos layer force-disabled vs armed-with-an-empty-schedule must give
  // bitwise-identical summed modeled time and answers.  The disarmed
  // fast path in vgpu::Device::launch is one predicted branch; if the
  // fault-tolerance machinery (retry policy, breaker, supervision) ever
  // leaks modeled cost into the fault-free path, this trips.
  double chaos_modeled[2] = {0.0, 0.0};
  std::vector<std::uint64_t> chaos_hashes[2];
  for (const int chaos_enabled : {0, 1}) {
    serve::EngineConfig ecfg;
    ecfg.threads = 1;
    ecfg.batch_window = 1;
    ecfg.queue_capacity = 2048;
    ecfg.plan_cache_bytes = 64u << 20;
    ecfg.chaos_enabled = chaos_enabled;
    serve::Engine engine(ecfg);
    std::vector<serve::MatrixHandle> handles;
    for (const auto& a : tenants) handles.push_back(engine.register_matrix(a));
    std::vector<std::future<serve::SpmvResult>> futures;
    futures.reserve(trace.size());
    for (const auto& op : trace) {
      futures.push_back(engine.submit_spmv(
          handles[op.matrix], make_x(tenants[op.matrix], op.x_seed)));
    }
    for (auto& f : futures) {
      serve::SpmvResult r = f.get();
      chaos_modeled[chaos_enabled] += r.modeled_ms;
      chaos_hashes[chaos_enabled].push_back(hash_bits(r.y));
    }
    engine.shutdown();
    require(engine.stats().retries == 0,
            "fault-free run must not spend retry budget");
  }
  require(std::memcmp(&chaos_modeled[0], &chaos_modeled[1],
                      sizeof(chaos_modeled[0])) == 0,
          "arming an empty chaos schedule changed modeled time");
  require(chaos_hashes[0] == chaos_hashes[1],
          "arming an empty chaos schedule changed answers");
  require(chaos_hashes[0] == reference_hashes,
          "chaos-layer check diverged from the sweep's answers");
  report.add_stat("chaos_zero_overhead_ok", 1.0);

  // Same contract for the durability layer: WAL appends and snapshots
  // happen on the host wall clock, never on the modeled device timeline,
  // so running with a durable directory must give bitwise-identical
  // modeled time and answers to running with durability off entirely.
  char durable_dir[] = "/tmp/mps_serve_bench_durable.XXXXXX";
  require(::mkdtemp(durable_dir) != nullptr, "mkdtemp failed");
  double durable_modeled[2] = {0.0, 0.0};
  std::vector<std::uint64_t> durable_hashes[2];
  for (const int durable : {0, 1}) {
    serve::EngineConfig ecfg;
    ecfg.threads = 1;
    ecfg.batch_window = 1;
    ecfg.queue_capacity = 2048;
    ecfg.plan_cache_bytes = 64u << 20;
    if (durable) {
      ecfg.durable_dir = durable_dir;
      ecfg.durable_enabled = 1;
    }
    serve::Engine engine(ecfg);
    require(engine.stats().durability.enabled == (durable != 0),
            "durability armed state does not match the config");
    std::vector<serve::MatrixHandle> handles;
    for (const auto& a : tenants) handles.push_back(engine.register_matrix(a));
    std::vector<std::future<serve::SpmvResult>> futures;
    futures.reserve(trace.size());
    for (const auto& op : trace) {
      futures.push_back(engine.submit_spmv(
          handles[op.matrix], make_x(tenants[op.matrix], op.x_seed)));
    }
    for (auto& f : futures) {
      serve::SpmvResult r = f.get();
      durable_modeled[durable] += r.modeled_ms;
      durable_hashes[durable].push_back(hash_bits(r.y));
    }
    engine.shutdown();
    if (durable) {
      require(engine.stats().durability.wal_appends ==
                  static_cast<long long>(tenants.size()),
              "every registration must hit the WAL exactly once");
    }
  }
  std::filesystem::remove_all(durable_dir);
  require(std::memcmp(&durable_modeled[0], &durable_modeled[1],
                      sizeof(durable_modeled[0])) == 0,
          "durable logging changed modeled time");
  require(durable_hashes[0] == durable_hashes[1],
          "durable logging changed answers");
  require(durable_hashes[0] == reference_hashes,
          "durability check diverged from the sweep's answers");
  report.add_stat("durable_zero_overhead_ok", 1.0);

  // Same contract for the observability stack as a whole: the tracer,
  // the roofline profiler, and the per-tenant SLO engine all read what
  // the hot path already produced (span timestamps on the host clock,
  // kernel counters the launch computed anyway, settle-time latency).
  // Turning ALL of them on must leave summed modeled time and every
  // answer bit-identical to running with all of them off.
  double observed_modeled[2] = {0.0, 0.0};
  std::vector<std::uint64_t> observed_hashes[2];
  for (const int observed : {0, 1}) {
    if (observed) {
      telemetry::tracer().enable();
      telemetry::profiler().enable();
    }
    serve::EngineConfig ecfg;
    ecfg.threads = 1;
    ecfg.batch_window = 1;
    ecfg.queue_capacity = 2048;
    ecfg.plan_cache_bytes = 64u << 20;
    ecfg.slo_enabled = observed;
    serve::Engine engine(ecfg);
    std::vector<serve::MatrixHandle> handles;
    for (const auto& a : tenants) handles.push_back(engine.register_matrix(a));
    std::vector<std::future<serve::SpmvResult>> futures;
    futures.reserve(trace.size());
    for (const auto& op : trace) {
      futures.push_back(engine.submit_spmv(
          handles[op.matrix], make_x(tenants[op.matrix], op.x_seed)));
    }
    for (auto& f : futures) {
      serve::SpmvResult r = f.get();
      observed_modeled[observed] += r.modeled_ms;
      observed_hashes[observed].push_back(hash_bits(r.y));
    }
    engine.shutdown();
    if (observed) {
      require(telemetry::tracer().size() > 0,
              "tracer enabled but recorded nothing");
      require(!telemetry::profiler().report().by_op.empty(),
              "profiler enabled but attributed nothing");
      require(!engine.stats().slo.tenants.empty(),
              "SLO engine enabled but tracked no tenants");
      telemetry::tracer().disable();
      telemetry::tracer().clear();
      telemetry::profiler().disable();
      telemetry::profiler().clear();
    } else {
      require(telemetry::profiler().report().by_op.empty(),
              "profiler attributed launches while disabled");
      require(engine.stats().slo.tenants.empty(),
              "SLO engine tracked tenants while disabled");
    }
  }
  require(std::memcmp(&observed_modeled[0], &observed_modeled[1],
                      sizeof(observed_modeled[0])) == 0,
          "enabling tracer+profiler+SLO changed modeled time");
  require(observed_hashes[0] == observed_hashes[1],
          "enabling tracer+profiler+SLO changed answers");
  require(observed_hashes[0] == reference_hashes,
          "observability check diverged from the sweep's answers");
  report.add_stat("observability_zero_overhead_ok", 1.0);

  analysis::emit(t, "serve_throughput");
  report.write();
  std::puts("\nExpected shape: req/s grows with threads; opening the batch"
            " window lowers the summed modeled kernel cost (one partition"
            " per coalesced spmm instead of one per request) and the"
            " answers stay bitwise-identical in every cell.");
  return 0;
}

// mps_serve — replay a synthetic multi-tenant trace through the serving
// engine (src/serve) and print its operational statistics.
//
//   mps_serve --trace synthetic --requests 2000
//   mps_serve --requests 5000 --threads 8 --batch-window 16 --verify
//   mps_serve --requests 10000 --chaos-seed 7 --verify
//
// Options:
//   --trace synthetic            trace source (only synthetic for now)
//   --requests N                 number of requests to replay (default 2000)
//   --tenants M                  registered matrices (default 6)
//   --scale S                    suite scale factor (default 0.05)
//   --zipf S                     tenant-popularity skew (default 1.1)
//   --seed N                     trace seed (default 42)
//   --threads N                  worker threads (default 4)
//   --queue-cap N                queue capacity (default 1024)
//   --batch-window N             coalescing window (default 8)
//   --cache-mb N                 plan-cache MiB (default 64)
//   --retries N                  retries after a transient fault's first
//                                attempt (default 1; 0 disables retry)
//   --devices N                  sharded serving on an N-device fleet
//                                (default 0 = legacy one-device-per-worker
//                                mode)
//   --device-spec S              fleet heterogeneity, e.g. "fast*2,slow*2"
//                                (default all titan; see docs/sharding.md
//                                for the grammar)
//   --verify                     check every answer (SpMV, SpAdd, SpGEMM)
//                                bit for bit against the sequential
//                                reference
//   --chaos-seed N               arm a seeded fault schedule (device loss,
//                                stragglers, OOM, bit flips) and run the
//                                CHAOS HARNESS: the trace is replayed twice
//                                in-process — once fault-free for reference,
//                                once under chaos — and every chaos-run
//                                success must be bitwise-identical to the
//                                reference answer
//   --chaos-script S             same harness with an explicit schedule
//                                (see src/vgpu/chaos.hpp for the grammar);
//                                wins over --chaos-seed
//   --trace-out PATH             enable the telemetry tracer and write the
//                                correlated Perfetto timeline (request
//                                lanes + host spans + device kernels);
//                                MPS_TRACE_OUT sets the same thing
//   --metrics-out PATH           write the metrics registry as JSON on
//                                clean shutdown
//   --metrics-prom PATH          write Prometheus text exposition
//   --dump-bundle PATH           write the flight-recorder debug bundle
//                                (recent events + metrics + profile +
//                                engine state) on clean shutdown; "-"
//                                writes to stdout.  Independent of
//                                MPS_FLIGHT_DIR, which additionally arms
//                                automatic dumps on faults and crashes
//   --slo                        enable the per-tenant SLO engine (default
//                                objectives: 50 ms, 0.999, windows
//                                256/4096, alert at burn 2.0) and print
//                                the burn-rate report table after the
//                                replay
//
// Durability / kill-and-recover harness (scripts/crash_matrix.sh drives
// the full sweep; docs/robustness.md):
//   --durable-dir PATH           arm the WAL + snapshot layer; on startup
//                                the engine recovers whatever the
//                                directory holds and prints a greppable
//                                "durable recovery:" line
//   --snapshot-every N           WAL appends between background snapshots
//                                (default 64; 0 = shutdown snapshot only)
//   --durable-warm               eagerly rebuild the snapshot's warm
//                                plan-cache entries during recovery
//   --reregister-every K         re-register a tenant (identical values,
//                                version bump) every K submissions, so
//                                WAL appends land mid-trace where kills
//                                can tear them; answers are unchanged
//   --crash-after N              _exit(43) right after the N-th
//                                submission — a kill with futures in
//                                flight
//   --crash-point P:N            die at the N-th hit of durability crash
//                                point P (wal-mid, wal-post,
//                                snapshot-mid, snapshot-post, post-ack)
//   --durable-manifest PATH      append "handle version" after every
//                                acknowledged registration (then hit the
//                                post-ack crash point); on recovery the
//                                manifest is verified line by line —
//                                every acked registration must have
//                                survived with version >= acked
//   --hash-out PATH              write per-position "index ok hash"
//                                result fingerprints (crash legs die
//                                before writing; recovery legs are
//                                compared bitwise against an
//                                uninterrupted run's file)
//
// MPS_METRICS_DUMP_MS=N additionally dumps the registry as JSON every
// N ms while the replay runs (to MPS_METRICS_DUMP_PATH or stderr).
//
// Exit status is non-zero if any admitted request is left unsettled —
// the zero-dropped-on-shutdown guarantee CI smokes against — if the
// engine completed requests but reports no finite p99 latency, or (under
// chaos) if any success diverged bitwise from the fault-free reference.
#include <algorithm>
#include <chrono>
#include <climits>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <fstream>
#include <map>
#include <span>
#include <sstream>
#include <string>
#include <tuple>
#include <vector>

#include <unistd.h>

#include "baselines/seq.hpp"
#include "durability/crash.hpp"
#include "resilience/integrity.hpp"
#include "serve/engine.hpp"
#include "serve/trace.hpp"
#include "sparse/compare.hpp"
#include "telemetry/flight.hpp"
#include "telemetry/metrics.hpp"
#include "telemetry/profile.hpp"
#include "telemetry/span.hpp"
#include "util/env.hpp"
#include "util/main_guard.hpp"
#include "util/rng.hpp"
#include "util/table.hpp"
#include "workloads/suite.hpp"

namespace {

using namespace mps;

[[noreturn]] void usage(const char* argv0) {
  std::fprintf(stderr,
               "usage: %s [--trace synthetic] [--requests N] [--tenants M]\n"
               "          [--scale S] [--zipf S] [--seed N] [--threads N]\n"
               "          [--queue-cap N] [--batch-window N] [--cache-mb N]\n"
               "          [--retries N] [--devices N] [--device-spec S]\n"
               "          [--verify] [--chaos-seed N] [--chaos-script S]\n"
               "          [--trace-out PATH] [--metrics-out PATH]\n"
               "          [--metrics-prom PATH] [--dump-bundle PATH] [--slo]\n"
               "          [--durable-dir PATH] [--snapshot-every N]\n"
               "          [--durable-warm] [--reregister-every K]\n"
               "          [--crash-after N] [--crash-point P:N]\n"
               "          [--durable-manifest PATH] [--hash-out PATH]\n",
               argv0);
  std::exit(2);
}

struct Options {
  std::string trace = "synthetic";
  std::size_t requests = 2000;
  std::size_t tenants = 6;
  double scale = 0.05;
  double zipf = 1.1;
  std::uint64_t seed = 42;
  serve::EngineConfig engine;  // engine flags land here directly
  bool verify = false;
  std::uint64_t chaos_seed = 0;  // > 0 = chaos harness, seeded schedule
  std::string chaos_script;      // chaos harness, explicit schedule
  std::string trace_out;      // empty = MPS_TRACE_OUT, else no trace
  std::string metrics_out;    // metrics registry JSON on shutdown
  std::string metrics_prom;   // Prometheus text exposition on shutdown
  std::string dump_bundle;    // flight-recorder debug bundle ("-" = stdout)
  std::size_t reregister_every = 0;  // re-register a tenant every K submits
  std::size_t crash_after = 0;     // _exit(43) after the N-th submission
  std::string crash_point;         // "<point>:<n>"
  std::string manifest;            // acked-registration manifest path
  std::string hash_out;            // per-position result fingerprints
};

Options parse(int argc, char** argv) {
  Options o;
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    auto value = [&]() -> std::string {
      if (i + 1 >= argc) usage(argv[0]);
      return argv[++i];
    };
    if (arg == "--trace") {
      o.trace = value();
    } else if (arg == "--requests") {
      o.requests = std::stoull(value());
    } else if (arg == "--tenants") {
      o.tenants = std::stoull(value());
    } else if (arg == "--scale") {
      o.scale = std::stod(value());
    } else if (arg == "--zipf") {
      o.zipf = std::stod(value());
    } else if (arg == "--seed") {
      o.seed = std::stoull(value());
    } else if (arg == "--threads") {
      o.engine.threads = static_cast<unsigned>(std::stoul(value()));
    } else if (arg == "--queue-cap") {
      o.engine.queue_capacity = std::stoull(value());
    } else if (arg == "--batch-window") {
      o.engine.batch_window = std::stoi(value());
    } else if (arg == "--cache-mb") {
      o.engine.plan_cache_bytes = std::stoull(value()) << 20;
    } else if (arg == "--retries") {
      // Clamped so N + 1 fits an int; a negative N becomes 0 attempts,
      // which engine construction rejects.
      o.engine.retry.max_attempts =
          static_cast<int>(std::clamp<long long>(std::stoll(value()), -1,
                                                 INT_MAX - 1)) + 1;
    } else if (arg == "--devices") {
      o.engine.devices = std::stoi(value());
    } else if (arg == "--device-spec") {
      o.engine.device_spec = value();
    } else if (arg == "--verify") {
      o.verify = true;
    } else if (arg == "--chaos-seed") {
      o.chaos_seed = std::stoull(value());
    } else if (arg == "--chaos-script") {
      o.chaos_script = value();
    } else if (arg == "--trace-out") {
      o.trace_out = value();
    } else if (arg == "--metrics-out") {
      o.metrics_out = value();
    } else if (arg == "--metrics-prom") {
      o.metrics_prom = value();
    } else if (arg == "--dump-bundle") {
      o.dump_bundle = value();
    } else if (arg == "--slo") {
      o.engine.slo_enabled = 1;
    } else if (arg == "--durable-dir") {
      o.engine.durable_dir = value();
      o.engine.durable_enabled = 1;
    } else if (arg == "--snapshot-every") {
      o.engine.durable_snapshot_every = std::stoll(value());
    } else if (arg == "--durable-warm") {
      o.engine.durable_warm = 1;
    } else if (arg == "--reregister-every") {
      o.reregister_every = std::stoull(value());
    } else if (arg == "--crash-after") {
      o.crash_after = std::stoull(value());
    } else if (arg == "--crash-point") {
      o.crash_point = value();
    } else if (arg == "--durable-manifest") {
      o.manifest = value();
    } else if (arg == "--hash-out") {
      o.hash_out = value();
    } else if (arg == "--help" || arg == "-h") {
      usage(argv[0]);
    } else {
      std::fprintf(stderr, "unknown option: %s\n", arg.c_str());
      usage(argv[0]);
    }
  }
  if (o.trace != "synthetic") {
    std::fprintf(stderr, "unknown trace source: %s\n", o.trace.c_str());
    usage(argv[0]);
  }
  if (o.requests == 0 || o.tenants == 0) usage(argv[0]);
  // The seeded generator spreads events over the fleet's slot ordinals
  // (the worker count in legacy mode); a script wins over a seed.
  if (!o.chaos_script.empty()) {
    o.engine.chaos = vgpu::ChaosSchedule::parse(o.chaos_script, "--chaos-script");
  } else if (o.chaos_seed > 0) {
    o.engine.chaos = vgpu::ChaosSchedule::seeded(
        o.chaos_seed, o.engine.devices > 0 ? o.engine.devices
                                           : static_cast<int>(o.engine.threads));
  }
  return o;
}

std::vector<double> make_x(const sparse::CsrD& a, std::uint64_t seed) {
  util::Rng rng(seed);
  std::vector<double> x(static_cast<std::size_t>(a.num_cols));
  for (auto& v : x) v = rng.uniform_double(-1, 1);
  return x;
}

/// Appends one acknowledged registration to the manifest, flushed before
/// the post-ack crash point fires: if the process dies at kPostAck, the
/// line is on disk and the recovery leg will demand the registration back.
void manifest_append(const std::string& path, serve::MatrixHandle h,
                     std::uint64_t version) {
  std::FILE* f = std::fopen(path.c_str(), "a");
  if (!f) {
    throw mps::IoError("cannot append to manifest " + path);
  }
  std::fprintf(f, "%llu %llu\n", static_cast<unsigned long long>(h),
               static_cast<unsigned long long>(version));
  std::fflush(f);
  std::fclose(f);
  durability::maybe_crash(durability::CrashPoint::kPostAck);
}

/// Replays the manifest against a freshly recovered engine: every
/// acknowledged registration must be present with a version at least as
/// new as the one acknowledged.  Throws RecoveryError on any loss —
/// that's the headline invariant the kill matrix exists to test.
void verify_manifest(const serve::Engine& engine, const std::string& path) {
  std::ifstream in(path);
  long long total = 0, recovered = 0;
  if (!in) {
    // First run, or a crash before the first ack: nothing to verify, but
    // still print the line so the harness can tell "0 acked" from "forgot
    // to check".
    std::printf("manifest: 0/0 acked registrations recovered\n");
    return;
  }
  unsigned long long h = 0, v = 0;
  while (in >> h >> v) {
    ++total;
    if (engine.has_matrix(h) && engine.matrix_version(h) >= v) {
      ++recovered;
    } else {
      std::fprintf(stderr,
                   "LOST: acked registration handle=%llu version=%llu "
                   "(recovered version %llu)\n",
                   h, v,
                   static_cast<unsigned long long>(engine.matrix_version(h)));
    }
  }
  // crash_matrix.sh greps this exact line — keep the format stable.
  std::printf("manifest: %lld/%lld acked registrations recovered\n", recovered,
              total);
  if (recovered != total) {
    throw mps::RecoveryError(
        std::to_string(total - recovered) +
        " acknowledged registrations were lost across the crash");
  }
}

/// One pending request's bookkeeping for the settle/verify pass.
struct Pending {
  serve::OpKind kind = serve::OpKind::kSpmv;
  std::size_t matrix = 0;
  std::size_t matrix_b = 0;
  std::uint64_t x_seed = 0;
  std::future<serve::SpmvResult> spmv;
  std::future<serve::MatrixResult> matrix_op;
};

/// One full trace replay through a fresh engine.  `ok[i]` / `hash[i]`
/// record, per trace position, whether the request delivered a value and
/// the FNV-1a fingerprint of its result bits (modeled time excluded —
/// retries and backoff legitimately change the bill, never the answer).
struct ReplayOutcome {
  std::vector<char> ok;
  std::vector<std::uint64_t> hash;
  long long settled_ok = 0, errored = 0, verified = 0, mismatched = 0;
  double modeled_ms = 0.0;
  double wall_s = 0.0;
  serve::EngineStats stats;
  std::string perfetto;  ///< non-empty when a trace dump was requested
  std::string bundle;    ///< non-empty when a debug bundle was requested
};

ReplayOutcome replay(const Options& opt,
                     const std::vector<workloads::SuiteEntry>& tenants,
                     const std::vector<serve::TraceOp>& trace,
                     bool chaos, bool print_tenants,
                     bool want_perfetto, bool want_bundle) {
  serve::EngineConfig cfg = opt.engine;
  cfg.chaos_enabled = chaos ? 1 : 0;
  serve::Engine engine(cfg);

  if (cfg.durable_enabled > 0) {
    // crash_matrix.sh greps this line — keep the format stable.
    const auto& ri = engine.recovery_info();
    std::printf(
        "durable recovery: snapshot=%d snap_matrices=%lld wal_replayed=%lld "
        "stale=%lld torn=%d last_seq=%llu\n",
        ri.snapshot_loaded ? 1 : 0, ri.snapshot_matrices,
        ri.wal_records_replayed, ri.stale_skipped,
        ri.torn_tail_dropped ? 1 : 0,
        static_cast<unsigned long long>(ri.last_seq));
    // Verify BEFORE this run registers anything: the manifest must be
    // satisfied by recovered state alone.
    if (!opt.manifest.empty()) verify_manifest(engine, opt.manifest);
  }

  std::vector<serve::MatrixHandle> handles;
  if (print_tenants) {
    std::printf("tenants (%zu, scale %.3g):\n", tenants.size(), opt.scale);
  }
  for (const auto& t : tenants) {
    handles.push_back(engine.register_matrix(t.matrix));
    if (!opt.manifest.empty()) {
      manifest_append(opt.manifest, handles.back(),
                      engine.matrix_version(handles.back()));
    }
    if (print_tenants) {
      std::printf("  %-10s %7d x %-7d %9lld nnz  handle %016llx\n",
                  t.name.c_str(), t.matrix.num_rows, t.matrix.num_cols,
                  static_cast<long long>(t.matrix.nnz()),
                  static_cast<unsigned long long>(handles.back()));
    }
  }

  const auto t0 = std::chrono::steady_clock::now();
  std::vector<Pending> pending;
  pending.reserve(trace.size());
  std::size_t submitted = 0;
  for (const auto& op : trace) {
    if (opt.reregister_every > 0 && submitted > 0 &&
        submitted % opt.reregister_every == 0) {
      // Mid-trace re-registration with identical values: the WAL append
      // and version bump land while requests are in flight — exactly
      // where the kill matrix wants writes to tear — and answers are
      // unchanged (same matrix, same pattern, plans stay valid).
      const std::size_t tenant =
          (submitted / opt.reregister_every - 1) % tenants.size();
      const auto h = engine.register_matrix(tenants[tenant].matrix);
      if (!opt.manifest.empty()) {
        manifest_append(opt.manifest, h, engine.matrix_version(h));
      }
    }
    Pending p;
    p.kind = op.kind;
    p.matrix = op.matrix;
    p.matrix_b = op.matrix_b;
    p.x_seed = op.x_seed;
    switch (op.kind) {
      case serve::OpKind::kSpmv:
        p.spmv = engine.submit_spmv(
            handles[op.matrix], make_x(tenants[op.matrix].matrix, op.x_seed));
        break;
      case serve::OpKind::kSpadd:
        p.matrix_op = engine.submit_spadd(handles[op.matrix],
                                          handles[op.matrix_b]);
        break;
      case serve::OpKind::kSpgemm:
        p.matrix_op = engine.submit_spgemm(handles[op.matrix],
                                           handles[op.matrix_b]);
        break;
    }
    pending.push_back(std::move(p));
    ++submitted;
    if (opt.crash_after > 0 && submitted >= opt.crash_after) {
      // A kill with futures in flight: no drain, no shutdown snapshot,
      // no destructors — the recovery leg gets whatever the WAL holds.
      std::fprintf(stderr, "crashing after %zu submissions\n", submitted);
      std::fflush(nullptr);
      ::_exit(durability::kCrashExitCode);
    }
  }
  engine.shutdown(serve::Engine::ShutdownMode::kDrain);
  ReplayOutcome out;
  out.wall_s =
      std::chrono::duration<double>(std::chrono::steady_clock::now() - t0)
          .count();

  // Settle every future; the drain guarantee means none may block or be
  // abandoned.  Fingerprint successes for cross-run comparison and
  // optionally verify answers bit for bit against the sequential
  // reference.  A matrix op's reference is computed once per operand
  // pair of this replay's tenants.
  std::map<std::tuple<serve::OpKind, std::size_t, std::size_t>, sparse::CsrD>
      matrix_refs;
  auto matrix_ref = [&](const Pending& p) -> const sparse::CsrD& {
    const auto [it, fresh] =
        matrix_refs.try_emplace({p.kind, p.matrix, p.matrix_b});
    if (fresh) {
      const auto& a = tenants[p.matrix].matrix;
      const auto& b = tenants[p.matrix_b].matrix;
      it->second = p.kind == serve::OpKind::kSpadd
                       ? baselines::seq::spadd(a, b)
                       : baselines::seq::spgemm(a, b);
    }
    return it->second;
  };
  out.ok.assign(pending.size(), 0);
  out.hash.assign(pending.size(), 0);
  for (std::size_t i = 0; i < pending.size(); ++i) {
    Pending& p = pending[i];
    try {
      if (p.kind == serve::OpKind::kSpmv) {
        serve::SpmvResult r = p.spmv.get();
        out.modeled_ms += r.modeled_ms;
        out.hash[i] = resilience::checksum_span(std::span<const double>(r.y));
        if (opt.verify) {
          const auto& a = tenants[p.matrix].matrix;
          std::vector<double> ref(static_cast<std::size_t>(a.num_rows));
          baselines::seq::spmv(a, make_x(a, p.x_seed), ref);
          ++out.verified;
          if (!sparse::same_bits(std::span<const double>(r.y),
                                 std::span<const double>(ref))) {
            ++out.mismatched;
          }
        }
      } else {
        serve::MatrixResult r = p.matrix_op.get();
        out.modeled_ms += r.modeled_ms;
        std::uint64_t h =
            resilience::checksum_span(std::span<const index_t>(r.c.row_offsets));
        h = resilience::checksum_span(std::span<const index_t>(r.c.col), h);
        out.hash[i] =
            resilience::checksum_span(std::span<const double>(r.c.val), h);
        if (opt.verify) {
          ++out.verified;
          if (!sparse::same_bits(r.c, matrix_ref(p))) ++out.mismatched;
        }
      }
      out.ok[i] = 1;
      ++out.settled_ok;
    } catch (const mps::Error&) {
      ++out.errored;
    }
  }

  out.stats = engine.stats();
  if (want_perfetto) {
    std::ostringstream trace_stream;
    engine.write_trace(trace_stream);
    out.perfetto = trace_stream.str();
  }
  if (want_bundle) {
    // Captured while the engine is alive so its registered state
    // provider (config, queue, workers, devices, plan cache, SLO) is
    // still part of the bundle.
    std::ostringstream bundle_stream;
    telemetry::flight().write_bundle(bundle_stream, "mps_serve --dump-bundle");
    out.bundle = bundle_stream.str();
  }
  return out;
}

int run_main(int argc, char** argv) {
  Options opt = parse(argc, argv);
  if (opt.trace_out.empty()) {
    // Strict: MPS_TRACE_OUT set-but-empty is a quoting accident, not a
    // request for no trace — env_path_checked throws InvalidInputError.
    opt.trace_out = util::env_path_checked("MPS_TRACE_OUT");
  }
  if (!opt.crash_point.empty()) {
    const auto crash = durability::parse_crash_spec(opt.crash_point, "--crash-point");
    durability::arm_crash(crash.point, crash.n);
  }

  // The tracer must be live BEFORE any request is admitted so that the
  // serve.request spans, the host phase spans underneath them, and the
  // kernel launches they trigger all carry correlated trace ids.
  if (!opt.trace_out.empty()) telemetry::tracer().enable();
  // Same for the roofline profiler: MPS_PROFILE=1 must arm it before the
  // first launch or the early kernels are missing from the attribution.
  telemetry::profiler().configure_from_env();
  // Honors MPS_METRICS_DUMP_MS; inert (no thread) when the knob is unset.
  telemetry::PeriodicDumper dumper;

  // Tenant matrices: square Table II surrogates (the trace self-pairs
  // SpAdd/SpGEMM operands, which needs square dims).
  std::vector<workloads::SuiteEntry> tenants;
  for (const auto& name : workloads::suite_names()) {
    if (tenants.size() >= opt.tenants) break;
    auto entry = workloads::suite_entry(name, opt.scale);
    if (entry.matrix.num_rows == entry.matrix.num_cols) {
      tenants.push_back(std::move(entry));
    }
  }
  if (tenants.size() < opt.tenants) {
    std::fprintf(stderr, "only %zu square suite matrices available\n",
                 tenants.size());
    return 2;
  }

  serve::TraceConfig tcfg;
  tcfg.requests = opt.requests;
  tcfg.zipf_s = opt.zipf;
  tcfg.seed = opt.seed;
  const auto trace = serve::synthetic_trace(tcfg, tenants.size());

  const bool chaos_mode = opt.chaos_seed > 0 || !opt.chaos_script.empty();
  ReplayOutcome ref, out;
  if (chaos_mode) {
    // Integrity checking on unless MPS_INTEGRITY_CHECK says otherwise —
    // bit-flip chaos relies on it to convert silent corruption into
    // retryable IntegrityError.
    resilience::set_integrity_checks_default(true);
    if (!opt.chaos_script.empty()) {
      std::printf("chaos script: %s\n", opt.chaos_script.c_str());
    } else {
      std::printf("chaos seed: %llu\n",
                  static_cast<unsigned long long>(opt.chaos_seed));
    }
    // Reference leg: same trace, same engine configuration, chaos forced
    // off.  Every success in the chaos leg must reproduce these bits.
    ref = replay(opt, tenants, trace, /*chaos=*/false,
                 /*print_tenants=*/true, /*want_perfetto=*/false,
                 /*want_bundle=*/false);
    out = replay(opt, tenants, trace, /*chaos=*/true,
                 /*print_tenants=*/false, !opt.trace_out.empty(),
                 !opt.dump_bundle.empty());
  } else {
    out = replay(opt, tenants, trace, /*chaos=*/false,
                 /*print_tenants=*/true, !opt.trace_out.empty(),
                 !opt.dump_bundle.empty());
  }
  const serve::EngineStats& s = out.stats;

  util::Table t(chaos_mode ? "mps_serve: chaos replay (faults armed)"
                           : "mps_serve: synthetic trace replay");
  t.set_header({"metric", "value"});
  const auto add = [&t](const std::string& k, const std::string& v) {
    t.add_row({k, v});
  };
  add("requests", std::to_string(opt.requests));
  add("accepted", std::to_string(s.accepted));
  add("completed", std::to_string(s.completed));
  add("failed", std::to_string(s.failed));
  add("timed out", std::to_string(s.timed_out));
  add("rejected (full)", std::to_string(s.rejected_full));
  add("rejected (shutdown)", std::to_string(s.rejected_shutdown));
  add("shed (low priority)", std::to_string(s.shed));
  add("retries", std::to_string(s.retries));
  add("failovers", std::to_string(s.failovers));
  add("breaker", std::to_string(s.breaker.opened) + " opened / " +
                     std::to_string(s.breaker.fail_fast) + " fail-fast / " +
                     std::to_string(s.breaker.reclosed) + " reclosed");
  add("degraded mode", std::to_string(s.degraded_entered) + " entered" +
                           (s.degraded ? " (still degraded)" : ""));
  add("throughput req/s", util::fmt(static_cast<double>(opt.requests) / out.wall_s, 1));
  add("modeled kernel ms", util::fmt(out.modeled_ms, 2));
  add("latency mean ms", util::fmt(s.latency_ms.mean, 3));
  add("latency p50 ms", util::fmt(s.latency_p50_ms, 3));
  add("latency p99 ms", util::fmt(s.latency_p99_ms, 3));
  add("peak queue depth", std::to_string(s.peak_queue_depth) + " / cap " +
                              std::to_string(s.queue_capacity));
  add("spmm batches", std::to_string(s.batches) + " (max " +
                          std::to_string(s.max_batch) + ")");
  std::string histo;
  for (std::size_t k = 1; k < s.batch_histogram.size(); ++k) {
    if (s.batch_histogram[k] == 0) continue;
    if (!histo.empty()) histo += " ";
    histo += std::to_string(k) + ":" + std::to_string(s.batch_histogram[k]);
  }
  add("batch histogram", histo.empty() ? "-" : histo);
  add("plan cache", std::to_string(s.plan_cache.hits) + " hits / " +
                        std::to_string(s.plan_cache.misses) + " misses / " +
                        std::to_string(s.plan_cache.evictions) + " evictions");
  add("plan cache bytes", std::to_string(s.plan_cache.bytes_in_use) + " / " +
                              std::to_string(s.plan_cache.capacity_bytes));
  if (opt.engine.devices > 0) {
    add("sharded matrices", std::to_string(s.sharded_matrices) + " (" +
                                std::to_string(s.replicated_matrices) +
                                " hot-replicated)");
    for (std::size_t i = 0; i < s.devices.size(); ++i) {
      const auto& d = s.devices[i];
      add("device " + std::to_string(i) + " (" + d.profile + ")",
          std::to_string(d.dispatched) + " dispatched / " +
              std::to_string(d.shards_hosted) + " shards / " +
              std::to_string(d.lost) + " lost / w=" + util::fmt(d.weight, 0));
    }
  }
  if (s.durability.enabled) {
    add("wal appends", std::to_string(s.durability.wal_appends) + " (" +
                           std::to_string(s.durability.wal_bytes) + " bytes)");
    add("snapshots", std::to_string(s.durability.snapshots));
    add("recovered", std::to_string(s.durability.recovery.snapshot_matrices) +
                         " snap + " +
                         std::to_string(s.durability.recovery.wal_records_replayed) +
                         " wal replayed");
  }
  if (opt.verify) {
    add("verified", std::to_string(out.verified) + " (" +
                        std::to_string(out.mismatched) + " mismatched)");
  }
  std::fputs(t.render().c_str(), stdout);

  if (s.slo.enabled) {
    // Per-tenant burn-rate report: burn 1.0 = spending the error budget
    // exactly at the objective's sustainable rate; an alert requires
    // BOTH windows above the threshold (docs/observability.md).
    char title[128];
    std::snprintf(title, sizeof(title),
                  "SLO report (latency %.3g ms, objective %.6g, alert at "
                  "burn > %.3g)",
                  s.slo.latency_ms, s.slo.objective, s.slo.burn_alert);
    util::Table slo_t(title);
    slo_t.set_header({"tenant", "requests", "bad", "burn short", "burn long",
                      "budget left", "state", "alerts"});
    for (const auto& ts : s.slo.tenants) {
      char handle_hex[32];
      std::snprintf(handle_hex, sizeof(handle_hex), "%016llx",
                    static_cast<unsigned long long>(ts.tenant));
      slo_t.add_row({handle_hex, std::to_string(ts.total),
                     std::to_string(ts.bad), util::fmt(ts.burn_short, 2),
                     util::fmt(ts.burn_long, 2),
                     util::fmt(ts.budget_remaining, 2),
                     ts.alerting ? "ALERTING" : "ok",
                     std::to_string(ts.alerts)});
    }
    std::fputs(slo_t.render().c_str(), stdout);
    // CI greps this line — keep the format stable.
    std::printf("slo: %lld tenants alerting\n", s.slo.alerting_now);
  }

  // Observability artifacts: the correlated Perfetto timeline, the
  // flight-recorder debug bundle, and the final metrics-registry
  // snapshot (JSON and/or Prometheus text).
  if (!opt.trace_out.empty()) {
    std::ofstream fout(opt.trace_out);
    if (!fout) {
      std::fprintf(stderr, "FAILED: cannot write trace to %s\n",
                   opt.trace_out.c_str());
      return 1;
    }
    fout << out.perfetto;
    std::printf("(perfetto trace written to %s: %zu spans)\n",
                opt.trace_out.c_str(), telemetry::tracer().size());
    telemetry::tracer().disable();
  }
  if (!opt.dump_bundle.empty()) {
    if (opt.dump_bundle == "-") {
      std::fputs(out.bundle.c_str(), stdout);
    } else {
      std::ofstream fout(opt.dump_bundle);
      if (!fout) {
        std::fprintf(stderr, "FAILED: cannot write bundle to %s\n",
                     opt.dump_bundle.c_str());
        return 1;
      }
      fout << out.bundle;
      std::printf("(debug bundle written to %s: %zu bytes)\n",
                  opt.dump_bundle.c_str(), out.bundle.size());
    }
  }
  if (!opt.metrics_out.empty()) {
    std::ofstream fout(opt.metrics_out);
    if (!fout) {
      std::fprintf(stderr, "FAILED: cannot write metrics to %s\n",
                   opt.metrics_out.c_str());
      return 1;
    }
    telemetry::metrics().write_json(fout);
    std::printf("(metrics json written to %s)\n", opt.metrics_out.c_str());
  }
  if (!opt.hash_out.empty()) {
    // Per-position result fingerprints: the kill matrix compares a
    // recovery run's file bitwise (cmp) against an uninterrupted run's.
    std::ofstream fout(opt.hash_out);
    if (!fout) {
      std::fprintf(stderr, "FAILED: cannot write hashes to %s\n",
                   opt.hash_out.c_str());
      return 1;
    }
    for (std::size_t i = 0; i < out.ok.size(); ++i) {
      fout << i << ' ' << (out.ok[i] ? 1 : 0) << ' ' << out.hash[i] << '\n';
    }
    std::printf("(result hashes written to %s)\n", opt.hash_out.c_str());
  }
  if (!opt.metrics_prom.empty()) {
    std::ofstream fout(opt.metrics_prom);
    if (!fout) {
      std::fprintf(stderr, "FAILED: cannot write metrics to %s\n",
                   opt.metrics_prom.c_str());
      return 1;
    }
    telemetry::metrics().write_prometheus(fout);
    std::printf("(prometheus metrics written to %s)\n",
                opt.metrics_prom.c_str());
  }

  // The hard guarantees this binary smokes in CI:
  //  * every admitted request was settled (value or typed error) — in
  //    BOTH legs when the chaos harness ran;
  //  * the bounded queue never exceeded its cap;
  //  * under chaos, every request that succeeded in both legs returned
  //    bitwise-identical bits.
  const auto check_drops = [](const serve::EngineStats& st, const char* leg) {
    const long long settled =
        st.completed + st.failed + st.timed_out + st.rejected_shutdown;
    const long long dropped = st.accepted - settled;
    if (leg) {
      std::printf("dropped on shutdown (%s leg): %lld\n", leg, dropped);
    } else {
      // CI greps this exact line — keep the format stable.
      std::printf("\ndropped on shutdown: %lld\n", dropped);
    }
    if (dropped != 0) {
      std::fprintf(stderr, "FAILED: %lld admitted requests were never "
                   "settled%s%s\n", dropped, leg ? " in the " : "",
                   leg ? leg : "");
      return false;
    }
    return true;
  };
  if (chaos_mode && !check_drops(ref.stats, "reference")) return 1;
  if (!check_drops(out.stats, nullptr)) return 1;
  if (s.peak_queue_depth > s.queue_capacity) {
    std::fprintf(stderr, "FAILED: queue depth %zu exceeded cap %zu\n",
                 s.peak_queue_depth, s.queue_capacity);
    return 1;
  }
  if (out.settled_ok + out.errored != static_cast<long long>(trace.size())) {
    std::fprintf(stderr, "FAILED: settled futures do not cover the trace\n");
    return 1;
  }
  if (out.mismatched != 0) {
    std::fprintf(stderr, "FAILED: %lld SpMV answers diverged from the "
                 "sequential reference\n", out.mismatched);
    return 1;
  }
  // A run that completed work must report a usable tail latency — an
  // absent or NaN p99 means the latency ring broke, which would blind
  // any operator dashboard built on these stats.
  if (s.completed > 0 &&
      (s.latency_ms.n == 0 || !std::isfinite(s.latency_p99_ms))) {
    std::fprintf(stderr,
                 "FAILED: completed %lld requests but p99 latency is "
                 "absent/non-finite\n", s.completed);
    return 1;
  }

  if (chaos_mode) {
    long long both_ok = 0, divergent = 0, chaos_only = 0;
    for (std::size_t i = 0; i < trace.size(); ++i) {
      if (!out.ok[i]) continue;
      if (!ref.ok[i]) {
        ++chaos_only;  // reference leg rejected it (e.g. backpressure)
      } else {
        ++both_ok;
        if (ref.hash[i] != out.hash[i]) ++divergent;
      }
    }
    std::printf("chaos comparison: %lld succeeded in both legs, %lld "
                "divergent, %lld chaos-only\n", both_ok, divergent, chaos_only);
    if (divergent != 0) {
      std::fprintf(stderr,
                   "FAILED: %lld chaos-run answers diverged bitwise from the "
                   "fault-free reference\n", divergent);
      return 1;
    }
  }
  return 0;
}

}  // namespace

int main(int argc, char** argv) {
  return mps::util::guarded_main("mps_serve", [&] { return run_main(argc, argv); });
}

// Workloads `serve_spmv` and `serve_fleet`: closed-loop bursts through
// serve::Engine.
//
// One client thread admits each burst atomically (pause, 32 submits,
// resume) and waits for the whole burst to settle before sending the
// next, so batch composition -- and with it every modeled number -- is a
// pure function of the seed.  Free-running submission makes coalescing
// depend on timing, which moved the modeled totals between identical runs.
//
// serve_spmv: legacy engine (one titan per worker), SpMV only, over the
// 14 Table II tenants.  serve_fleet: durable, autotuned, sharded
// "fast*2,slow*2" fleet, default op mix (95% SpMV, 4% SpAdd, 1% SpGEMM)
// over the Table II tenants whose A x A is cheap on the host, with one
// tenant re-registered (identical values) about every 200 requests.

#include <array>
#include <cstdio>
#include <cstring>
#include <filesystem>
#include <future>
#include <memory>
#include <unordered_map>

#include "autotune/autotune.hpp"
#include "baselines/seq.hpp"
#include "common.hpp"
#include "serve/engine.hpp"
#include "serve/trace.hpp"
#include "shard/exec.hpp"
#include "shard/sharded_matrix.hpp"
#include "telemetry/profile.hpp"
#include "telemetry/span.hpp"
#include "util/rng.hpp"
#include "util/stats.hpp"
#include "vgpu/device_set.hpp"
#include "workloads/suite.hpp"

namespace perfbench {
namespace {

using namespace mps;

constexpr std::size_t kBurst = 32;  ///< divides Stream::kBlock
constexpr std::size_t kVectors = 8;  ///< input vectors per tenant
/// Bursts whose modeled figures are reported: a fixed prefix of whole
/// stream blocks, so they are identical in every run of a seed.
constexpr std::size_t kWindowSpmv = 512;
constexpr std::size_t kWindowFleet = 256;
/// serve_fleet re-registers one tenant before every 6th burst (192 requests).
constexpr std::size_t kRegisterEvery = 6;
constexpr const char* kFleetSpec = "fast*2,slow*2";
constexpr int kFleetDevices = 4;

struct Tenant {
  std::string name;
  sparse::CsrD a;
  serve::MatrixHandle handle = 0;
  std::vector<std::vector<double>> x;
};

struct SRefs {
  std::vector<std::vector<double>> y;
  sparse::CsrD add;
  sparse::CsrD gemm;
};

struct SState {
  std::vector<Tenant> t;
  std::unique_ptr<serve::Engine> engine;  ///< destroyed before the tenants
};

std::vector<std::string> tenant_names(bool fleet) {
  if (fleet) return {"Circuit", "Economics", "Webbase", "Epidemiology", "QCD", "Dense"};
  return workloads::suite_names();
}

serve::EngineConfig engine_config(bool fleet, const std::string& durable_dir) {
  serve::EngineConfig c;
  c.threads = kEngineWorkers;
  c.queue_capacity = 1024;
  c.batch_window = 8;
  c.plan_cache_bytes = std::size_t{64} << 20;
  c.autotune = fleet ? 1 : 0;
  c.shed_watermark = 0.0;
  c.chaos_enabled = 0;
  c.slo_enabled = 0;
  c.durable_enabled = fleet ? 1 : 0;
  c.durable_dir = durable_dir;
  c.durable_snapshot_every = 64;
  c.durable_warm = 0;
  c.durable_fsync = 0;
  c.devices = fleet ? kFleetDevices : 0;
  c.device_spec = fleet ? kFleetSpec : "";
  c.shard_max = 8;
  c.shard_min_nnz = 2048;
  c.shard_placement = "weighted";
  c.shard_replicate_hot = 0.5;
  c.shard_2d_nnz = 0;
  return c;
}

double setup(const Options& opt, bool fleet, int rep, SState& s, double& gen_s) {
  const double t0 = now_s();
  for (const auto& name : tenant_names(fleet)) {
    auto e = workloads::suite_entry(name, kScale);
    s.t.push_back(Tenant{e.name, std::move(e.matrix), 0, {}});
  }
  gen_s = now_s() - t0;
  std::string dir;
  if (fleet) {
    dir = opt.work_dir + "/durable-" + std::to_string(rep);
    std::filesystem::remove_all(dir);
    std::filesystem::create_directories(dir);
  }
  s.engine = std::make_unique<serve::Engine>(engine_config(fleet, dir));
  for (std::size_t i = 0; i < s.t.size(); ++i) {
    Tenant& t = s.t[i];
    t.handle = s.engine->register_matrix(t.a);
    for (std::size_t k = 0; k < kVectors; ++k) {
      t.x.push_back(make_x(t.a, mix_seed(opt.seed, i * 64 + k)));
    }
  }
  // Plan / autotune warm-up: one request per tenant.
  for (const Tenant& t : s.t) s.engine->submit_spmv(t.handle, t.x.front()).get();
  return now_s() - t0;
}

SRefs reference(const Tenant& t, bool fleet, Report& rep) {
  SRefs r;
  for (const auto& x : t.x) {
    r.y.emplace_back(static_cast<std::size_t>(t.a.num_rows));
    baselines::seq::spmv(t.a, x, r.y.back());
  }
  if (fleet) {
    r.add = baselines::seq::spadd(t.a, t.a);
    if (!spgemm_reference(t.a, t.a, r.gemm)) {
      std::fprintf(stderr, "perfbench: merge SpGEMM on %s breaks the seq:: oracle\n",
                   t.name.c_str());
      ++rep.attempted;
      ++rep.failed;
    }
  }
  return r;
}

/// The seed's endless request stream.  Every block of kBlock requests
/// is the same multiset of ops -- one synthetic_trace draw with a fixed
/// seed -- in a seed-shuffled order with seed-drawn input vectors.  With
/// freely drawn blocks the count of 1% SpGEMMs varied with the seed and
/// spread serve_fleet's model_us_per_op ten times wider across seeds.
class Stream {
 public:
  static constexpr std::size_t kBlock = 2048;

  Stream(serve::TraceConfig cfg, std::size_t tenants, std::uint64_t seed) : seed_(seed) {
    cfg.requests = kBlock;
    cfg.seed = 42;
    block_ = serve::synthetic_trace(cfg, tenants);
  }
  const serve::TraceOp& next() {
    if (pos_ == block_.size()) {
      util::Rng rng(mix_seed(seed_, blocks_++));
      for (std::size_t i = block_.size(); i > 1; --i) {
        std::swap(block_[i - 1], block_[static_cast<std::size_t>(rng.uniform(i))]);
      }
      for (auto& op : block_) op.x_seed = rng.next_u64();
      pos_ = 0;
    }
    return block_[pos_++];
  }
  /// True between blocks (and before the first).
  bool at_block_end() const { return pos_ == block_.size(); }

 private:
  std::uint64_t seed_;
  std::uint64_t blocks_ = 0;
  std::vector<serve::TraceOp> block_;
  std::size_t pos_ = kBlock;
};

struct Pending {
  serve::TraceOp op;
  std::future<serve::SpmvResult> spmv;
  std::future<serve::MatrixResult> mat;
  double latency_ms = -1.0;
  bool ready() const {
    const auto zero = std::chrono::seconds(0);
    return (op.kind == serve::OpKind::kSpmv ? spmv.wait_for(zero) : mat.wait_for(zero)) ==
           std::future_status::ready;
  }
  void wait() const {
    if (op.kind == serve::OpKind::kSpmv) {
      spmv.wait();
    } else {
      mat.wait();
    }
  }
};

/// Figures of the window prefix (deterministic per seed).
struct Window {
  double model_ms = 0.0;
  long long ops = 0;
  long long spmv = 0;
  long long spadd = 0;
  long long spgemm = 0;
  long long batched = 0;
  double inv_batch = 0.0;  ///< sum of 1 / batch size over SpMV requests
  std::uint64_t digest = 1469598103934665603ull;
  serve::PlanCache::Stats cache0;
  serve::PlanCache::Stats cache1;
  telemetry::ProfileReport prof;
};

/// Wall-side samples of the traced phase.
struct TraceLog {
  std::vector<double> submit_us;
  std::vector<double> spmv_settle_ms;
  std::vector<double> matrix_settle_ms;
  std::vector<double> register_ms;
  std::vector<double> wal_bytes;
  double model_ms = 0.0;
};

class Client {
 public:
  Client(const Options& opt, bool fleet, SState& s, const std::vector<SRefs>& refs)
      : fleet_(fleet),
        s_(s),
        refs_(refs),
        stream_(trace_config(fleet), s.t.size(), mix_seed(opt.seed, 0x57AE)),
        reg_rng_(mix_seed(opt.seed, 0x4E6)),
        window_bursts_(fleet ? kWindowFleet : kWindowSpmv) {
    window_.cache0 = s.engine->stats().plan_cache;
  }

  /// Run whole stream blocks until the block boundary nearest
  /// `seconds`, and at least until the window is complete and p99 has
  /// ten samples beyond it.  `log` records the traced phase's wall-side
  /// samples.
  Phase run(double seconds, TraceLog* log) {
    Phase p;
    const double cpu0 = process_cpu_s();
    const double t0 = now_s();
    std::size_t first = 0;
    long long done0 = 0;
    double block_t0 = t0;
    double block_cpu0 = cpu0;
    for (int blocks = 0;;) {
      if (fleet_ && bursts_ > 0 && bursts_ % kRegisterEvery == 0) reregister(log);
      burst(p, log);
      ++bursts_;
      if (bursts_ == window_bursts_) {
        window_.cache1 = s_.engine->stats().plan_cache;
        if (telemetry::profiler().enabled()) window_.prof = telemetry::profiler().report();
      }
      if (!stream_.at_block_end()) continue;
      ++blocks;
      const double now = now_s();
      const double cpu = process_cpu_s();
      p.close_block(first, p.succeeded - done0, now - block_t0, cpu - block_cpu0);
      first = p.latency_ms.size();
      done0 = p.succeeded;
      block_t0 = now;
      block_cpu0 = cpu;
      const double elapsed = now - t0;
      if (elapsed + 0.5 * elapsed / blocks >= seconds && bursts_ >= window_bursts_ &&
          p.latency_ms.size() >= 1000) {
        break;
      }
    }
    p.wall_s = now_s() - t0;
    p.cpu_s = process_cpu_s() - cpu0;
    return p;
  }

  const Window& window() const { return window_; }
  long long registrations() const { return registrations_; }
  long long registration_failures() const { return registration_failures_; }

 private:
  static serve::TraceConfig trace_config(bool fleet) {
    serve::TraceConfig c;
    c.zipf_s = 1.1;
    if (!fleet) {
      c.spadd_percent = 0;
      c.spgemm_percent = 0;
    }
    return c;
  }

  void reregister(TraceLog* log) {
    Tenant& t = s_.t[static_cast<std::size_t>(reg_rng_.uniform(s_.t.size()))];
    serve::Engine& e = *s_.engine;
    const std::uint64_t version = e.matrix_version(t.handle);
    const long long wal0 = log ? e.stats().durability.wal_bytes : 0;
    const double t0 = now_s();
    const serve::MatrixHandle h = e.register_matrix(t.a);
    const double ms = (now_s() - t0) * 1e3;
    ++registrations_;
    if (h != t.handle || e.matrix_version(h) != version + 1) ++registration_failures_;
    if (log) {
      log->register_ms.push_back(ms);
      log->wal_bytes.push_back(static_cast<double>(e.stats().durability.wal_bytes - wal0));
    }
  }

  void burst(Phase& p, TraceLog* log) {
    serve::Engine& e = *s_.engine;
    const bool in_window = bursts_ < window_bursts_;
    std::vector<Pending> reqs(kBurst);
    e.pause();
    for (Pending& r : reqs) {
      r.op = stream_.next();
      const Tenant& t = s_.t[r.op.matrix];
      if (in_window) {
        window_.digest = fnv(window_.digest, (r.op.x_seed << 2) ^
                                                 (static_cast<std::uint64_t>(r.op.kind) << 1) ^
                                                 r.op.matrix);
      }
      const double t0 = now_s();
      try {
        switch (r.op.kind) {
          case serve::OpKind::kSpmv:
            r.spmv = e.submit_spmv(t.handle, t.x[r.op.x_seed % kVectors]);
            break;
          case serve::OpKind::kSpadd:
            r.mat = e.submit_spadd(t.handle, t.handle);
            break;
          case serve::OpKind::kSpgemm:
            r.mat = e.submit_spgemm(t.handle, t.handle);
            break;
        }
      } catch (const std::exception& ex) {
        std::fprintf(stderr, "perfbench: submit failed: %s\n", ex.what());
        r.latency_ms = 0.0;  // refused at admission: nothing to wait for
      }
      if (log) log->submit_us.push_back((now_s() - t0) * 1e6);
    }
    const double release = now_s();
    e.resume();

    // Latency is stamped when the client observes a settled future:
    // block on the oldest unsettled request, then sweep the rest.
    for (std::size_t first = 0; first < reqs.size();) {
      if (reqs[first].latency_ms < 0.0) reqs[first].wait();
      const double t = (now_s() - release) * 1e3;
      for (std::size_t j = first; j < reqs.size(); ++j) {
        if (reqs[j].latency_ms < 0.0 && reqs[j].ready()) reqs[j].latency_ms = t;
      }
      while (first < reqs.size() && reqs[first].latency_ms >= 0.0) ++first;
    }

    for (Pending& r : reqs) {
      ++p.attempted;
      if (!settle(r, in_window, log)) {
        ++p.failed;  // fails the run; no latency sample
        continue;
      }
      ++p.succeeded;
      p.latency_ms.push_back(r.latency_ms);
      if (log) {
        (r.op.kind == serve::OpKind::kSpmv ? log->spmv_settle_ms : log->matrix_settle_ms)
            .push_back(r.latency_ms);
      }
    }
  }

  /// Collect and verify one result against the seq:: reference.
  bool settle(Pending& r, bool in_window, TraceLog* log) {
    const SRefs& ref = refs_[r.op.matrix];
    double model_ms = 0.0;
    bool ok = false;
    try {
      if (r.op.kind == serve::OpKind::kSpmv) {
        if (!r.spmv.valid()) return false;
        const serve::SpmvResult res = r.spmv.get();
        ok = same_bits(res.y, ref.y[r.op.x_seed % kVectors]);
        model_ms = res.modeled_ms;
        if (in_window) {
          ++window_.spmv;
          window_.inv_batch += 1.0 / res.batch_size;
          if (res.batch_size >= 2) ++window_.batched;
        }
      } else {
        if (!r.mat.valid()) return false;
        const serve::MatrixResult res = r.mat.get();
        ok = same_bits(res.c, r.op.kind == serve::OpKind::kSpadd ? ref.add : ref.gemm);
        model_ms = res.modeled_ms;
        if (in_window) ++(r.op.kind == serve::OpKind::kSpadd ? window_.spadd : window_.spgemm);
      }
    } catch (const std::exception& ex) {
      std::fprintf(stderr, "perfbench: request failed: %s\n", ex.what());
      return false;
    }
    if (!ok) std::fprintf(stderr, "perfbench: result differs from seq:: reference\n");
    if (in_window) {
      window_.model_ms += model_ms;
      ++window_.ops;
    }
    if (log) log->model_ms += model_ms;
    return ok;
  }

  bool fleet_;
  SState& s_;
  const std::vector<SRefs>& refs_;
  Stream stream_;
  util::Rng reg_rng_;
  std::size_t window_bursts_;
  std::size_t bursts_ = 0;
  long long registrations_ = 0;
  long long registration_failures_ = 0;
  Window window_;
};

/// Summed self time (span duration minus its children's) of every span
/// named `name`, in microseconds.
double self_us(const std::vector<telemetry::SpanRecord>& spans, const char* name) {
  std::unordered_map<telemetry::SpanId, double> child_us;
  for (const auto& s : spans) {
    if (s.parent_id != 0) child_us[s.parent_id] += s.dur_us;
  }
  double total = 0.0;
  for (const auto& s : spans) {
    if (s.name != name) continue;
    const auto it = child_us.find(s.span_id);
    total += s.dur_us - (it == child_us.end() ? 0.0 : it->second);
  }
  return total;
}

double span_us(const std::vector<telemetry::SpanRecord>& spans, const char* name) {
  double total = 0.0;
  for (const auto& s : spans) {
    if (s.name == name) total += s.dur_us;
  }
  return total;
}

/// Library-level probes of the layers the fleet engine runs internally:
/// shard build / halo / imbalance, per-shard autotuning, snapshots.
void fleet_probes(SState& s, const std::vector<SRefs>& refs, Report& r) {
  vgpu::DeviceSet fleet(vgpu::parse_device_spec(kFleetSpec, kFleetDevices));
  std::vector<vgpu::Device*> devices;
  for (std::size_t i = 0; i < fleet.size(); ++i) devices.push_back(&fleet.device(i));

  std::vector<double> build_ms, halo_bytes, halo_us, imbalance, tune_ms;
  double trials = 0.0;
  double tuned = 0.0;
  double nondefault = 0.0;
  for (std::size_t i = 0; i < s.t.size(); ++i) {
    const Tenant& t = s.t[i];
    const serve::PlanExplain ex = s.engine->explain(t.handle);
    if (!ex.sharded) continue;
    std::vector<double> weights;
    for (const int d : ex.shard_devices) weights.push_back(fleet.weight(static_cast<std::size_t>(d)));
    const double t0 = now_s();
    const shard::ShardedMatrix sm(t.a, ex.shard_devices, weights);
    build_ms.push_back((now_s() - t0) * 1e3);
    halo_bytes.push_back(static_cast<double>(sm.halo_bytes()));

    std::vector<double> y(static_cast<std::size_t>(t.a.num_rows));
    const shard::ExecStats st = shard::spmv(sm, devices, t.x.front(), y);
    ++r.attempted;
    if (same_bits(y, refs[i].y.front())) {
      ++r.succeeded;
    } else {
      std::fprintf(stderr, "perfbench: shard::spmv differs from seq:: on %s\n", t.name.c_str());
      ++r.failed;
    }
    halo_us.push_back(st.halo_ms * 1e3);
    imbalance.push_back(st.modeled_ms / (st.sum_ms / st.shards));

    const double t1 = now_s();
    for (const shard::Shard& sh : sm.shards()) {
      if (sh.local.nnz() == 0) continue;
      const autotune::TunedPlan plan =
          autotune::tune(fleet.device(static_cast<std::size_t>(sh.device)), sh.local);
      trials += static_cast<double>(plan.trials().size());
      tuned += 1.0;
      if (std::strcmp(plan.choice().name, plan.trials().front().name) != 0) nondefault += 1.0;
    }
    tune_ms.push_back((now_s() - t1) * 1e3);
  }
  r.layer["shard.build_ms"] = util::percentile(build_ms, 50);
  r.layer["shard.halo_bytes"] = util::mean(halo_bytes);
  r.layer["shard.halo_us"] = util::mean(halo_us);
  r.layer["shard.imbalance"] = util::mean(imbalance);
  r.layer["autotune.tune_ms"] = util::percentile(tune_ms, 50);
  r.layer["autotune.trials"] = tuned > 0.0 ? trials / tuned : 0.0;
  r.layer["autotune.nondefault_wins"] = nondefault;

  std::vector<double> snap_ms;
  for (int i = 0; i < 5; ++i) {
    const double t0 = now_s();
    s.engine->snapshot_now();
    snap_ms.push_back((now_s() - t0) * 1e3);
  }
  r.layer["durability.snapshot_ms"] = util::percentile(snap_ms, 50);
}

void add_layer_metrics(Report& r, const Window& w, const TraceLog& log, const Phase& traced,
                       const std::vector<telemetry::SpanRecord>& spans) {
  telemetry::RooflineAgg total;
  for (const auto& [name, agg] : w.prof.by_op) total += agg;
  const auto ops = static_cast<double>(w.ops);
  r.layer["vgpu.launches_per_op"] = static_cast<double>(total.launches) / ops;
  r.layer["vgpu.bytes_per_op"] = total.bytes / ops;
  r.layer["vgpu.achieved_bw_frac"] = total.achieved_frac();
  r.layer["vgpu.wall_per_model"] = span_us(spans, "serve.execute") / (log.model_ms * 1e3);

  r.layer["serve.submit_us"] = util::percentile(log.submit_us, 50);
  r.layer["serve.spmv.settle_ms_p50"] = util::percentile(log.spmv_settle_ms, 50);
  r.layer["serve.spmv.settle_ms_p99"] = util::percentile(log.spmv_settle_ms, 99);
  if (!log.matrix_settle_ms.empty()) {
    r.layer["serve.matrix_op.settle_ms_p50"] = util::percentile(log.matrix_settle_ms, 50);
  }
  r.layer["serve.batch_size_mean"] = static_cast<double>(w.spmv) / w.inv_batch;
  r.layer["serve.batched_frac"] = static_cast<double>(w.batched) / static_cast<double>(w.spmv);
  const double hits = static_cast<double>(w.cache1.hits - w.cache0.hits);
  const double misses = static_cast<double>(w.cache1.misses - w.cache0.misses);
  r.layer["serve.plan_cache.hit_ratio"] = hits + misses > 0.0 ? hits / (hits + misses) : 0.0;
  const auto done = static_cast<double>(traced.succeeded);
  r.layer["serve.execute.self_ms"] = self_us(spans, "serve.execute") / 1e3 / done;
  r.layer["serve.batch_assemble.self_us"] = self_us(spans, "serve.batch_assemble") / done;
  r.layer["serve.batch_scatter.self_us"] = self_us(spans, "serve.batch_scatter") / done;
  if (!log.register_ms.empty()) {
    r.layer["durability.register_ms"] = util::percentile(log.register_ms, 50);
    r.layer["durability.wal_bytes_per_register"] = util::percentile(log.wal_bytes, 50);
  }
}

}  // namespace

void run_serve(const Options& opt, Report& r, bool fleet) {
  std::unique_ptr<SState> state;
  std::vector<double> setup_s;
  std::vector<double> gen_s;
  for (int rep = 0; rep < kSetupReps; ++rep) {
    state.reset();
    state = std::make_unique<SState>();
    double g = 0.0;
    setup_s.push_back(setup(opt, fleet, rep, *state, g));
    gen_s.push_back(g);
  }
  SState& s = *state;
  std::vector<SRefs> refs;
  for (const Tenant& t : s.t) refs.push_back(reference(t, fleet, r));
  r.note("peak_rss_reset", reset_peak_rss() ? 1.0 : 0.0);
  r.note("tenants", static_cast<double>(s.t.size()));
  r.note("burst", static_cast<double>(kBurst));

  Client client(opt, fleet, s, refs);
  // Fold the client's totals into the report; returns model_us_per_op.
  const auto finish = [&] {
    const Window& w = client.window();
    r.trace_digest = w.digest;
    r.attempted += client.registrations();
    r.succeeded += client.registrations() - client.registration_failures();
    r.failed += client.registration_failures();
    const double model_us_per_op = w.model_ms * 1e3 / static_cast<double>(w.ops);
    r.note("registrations", static_cast<double>(client.registrations()));
    r.note("model_us_per_op", model_us_per_op);
    r.note("window_ops", static_cast<double>(w.ops));
    r.note("window_spmv", static_cast<double>(w.spmv));
    r.note("window_spadd", static_cast<double>(w.spadd));
    r.note("window_spgemm", static_cast<double>(w.spgemm));
    return model_us_per_op;
  };

  if (!opt.trace) {
    const Phase p = client.run(opt.seconds, nullptr);
    count_ops(r, p);
    add_end_to_end(r, p, util::percentile(setup_s, 50), finish());
    return;
  }

  // Traced phase first, from the same state as a timed run, so the
  // window's modeled figures match it bit for bit.
  TraceLog log;
  telemetry::profiler().clear();
  telemetry::tracer().clear();
  set_tracing(true);
  const Phase traced = client.run(opt.seconds / 2, &log);
  set_tracing(false);
  const long long snapshots = s.engine->stats().durability.snapshots;
  const std::vector<telemetry::SpanRecord> spans = telemetry::tracer().snapshot();
  count_ops(r, traced);
  // Tracing overhead: alternate untraced and traced blocks so drift and
  // stream mix cancel out.  Index 1 holds the traced blocks.
  std::array<double, 2> cpu_s{};
  std::array<long long, 2> done{};
  for (std::size_t b = 0; b < 4; ++b) {
    const std::size_t on = b % 2;
    set_tracing(on != 0);
    const Phase p = client.run(opt.seconds / 8, nullptr);
    set_tracing(false);
    telemetry::tracer().clear();
    count_ops(r, p);
    cpu_s[on] += p.cpu_s;
    done[on] += p.succeeded;
  }
  finish();
  r.note("spans", static_cast<double>(spans.size()));

  add_layer_metrics(r, client.window(), log, traced, spans);
  const serve::EngineStats st = s.engine->stats();
  r.layer["serve.failed"] = static_cast<double>(st.failed);
  r.layer["serve.retries"] = static_cast<double>(st.retries);
  if (fleet) {
    r.layer["durability.snapshots"] = static_cast<double>(snapshots);
    fleet_probes(s, refs, r);
  }
  r.layer["workloads.generate_s"] = util::percentile(gen_s, 50);
  r.layer["telemetry.trace_overhead_frac"] =
      (cpu_s[1] / static_cast<double>(done[1])) / (cpu_s[0] / static_cast<double>(done[0])) - 1.0;
}

}  // namespace perfbench

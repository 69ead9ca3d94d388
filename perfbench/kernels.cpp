// Workload `kernels`: the paper's four kernels on the paper's Table II
// suite, called directly through core::merge with no serving engine.
//
// A cycle is a fixed, seed-shuffled list of calls on every matrix:
// planned SpMV, one-shot SpMV, 8-wide SpMM, SpAdd(A, A) and one SpGEMM
// (A x A, LP as A x A^T).  The per-family counts below come from the
// measured host cost of each family at scale 0.05 on a 4-thread vgpu
// pool, picked so SpGEMM takes a bit under half of a cycle's wall, SpAdd
// about a fifth and the SpMV/SpMM families the rest.  Runs always end on
// a cycle boundary, so the op mix of every run is the same.

#include <algorithm>
#include <array>
#include <cstdio>
#include <memory>

#include "baselines/seq.hpp"
#include "common.hpp"
#include "core/spadd.hpp"
#include "core/spgemm.hpp"
#include "core/spmm.hpp"
#include "core/spmv.hpp"
#include "sparse/convert.hpp"
#include "telemetry/profile.hpp"
#include "telemetry/span.hpp"
#include "util/rng.hpp"
#include "util/stats.hpp"
#include "workloads/suite.hpp"

namespace perfbench {
namespace {

using namespace mps;

enum Family : std::uint8_t { kExec, kSpmv, kSpmm, kSpadd, kSpgemm, kFamilies };
constexpr std::array<const char*, kFamilies> kFamilyName = {
    "spmv_exec", "spmv", "spmm8", "spadd", "spgemm"};
constexpr std::array<int, kFamilies> kPerCycle = {250, 230, 80, 16, 1};
/// SpMM width (the shape batched serving dispatches); SpMV inputs cycle
/// through the same vectors.
constexpr int kVectors = 8;

struct KMatrix {
  std::string name;
  sparse::CsrD a;
  sparse::CsrD at;  ///< A^T when SpGEMM multiplies A x A^T (LP), else empty
  bool transpose = false;
  std::vector<std::vector<double>> x;
  std::vector<double> x8;  ///< row-major num_cols x kVectors
  std::vector<double> y;
  std::vector<double> y8;
  core::merge::SpmvPlan plan;
  const sparse::CsrD& rhs() const { return transpose ? at : a; }
};

/// Devices outlive the plans accounted against them: members are
/// destroyed in reverse order.
struct KState {
  std::unique_ptr<vgpu::Device> device;
  std::vector<KMatrix> m;
};

struct KRefs {
  std::vector<std::vector<double>> y;
  std::vector<double> y8;
  sparse::CsrD add;
  sparse::CsrD gemm;
};

struct KOp {
  Family family;
  std::uint8_t vec;
  std::uint16_t matrix;
};

/// Per-family detail recorded over one window cycle of the traced run.
struct FamilyLog {
  std::vector<double> wall_us;
  std::vector<double> model_us;
  std::array<double, 3> spmv_phase_us{};    ///< partition, reduce, update
  std::array<double, 5> spgemm_phase_us{};  ///< setup .. product reduce
  double products = 0.0;
};

struct OpOut {
  double wall_ms = 0.0;
  double model_ms = 0.0;
  bool ok = false;
};

double setup(const Options& opt, KState& s, double& gen_s) {
  const double t0 = now_s();
  auto suite = workloads::paper_suite(kScale);
  gen_s = now_s() - t0;
  s.device = std::make_unique<vgpu::Device>();
  s.m.resize(suite.size());
  for (std::size_t i = 0; i < suite.size(); ++i) {
    KMatrix& km = s.m[i];
    km.name = suite[i].name;
    km.a = std::move(suite[i].matrix);
    km.transpose = suite[i].spgemm_transpose;
    if (km.transpose) km.at = sparse::transpose(km.a);
    km.plan = core::merge::spmv_plan(*s.device, km.a);
    const auto cols = static_cast<std::size_t>(km.a.num_cols);
    km.x8.assign(cols * kVectors, 0.0);
    for (int k = 0; k < kVectors; ++k) {
      km.x.push_back(make_x(km.a, mix_seed(opt.seed, i * 64 + static_cast<std::size_t>(k))));
      for (std::size_t c = 0; c < cols; ++c) km.x8[c * kVectors + k] = km.x.back()[c];
    }
    km.y.assign(static_cast<std::size_t>(km.a.num_rows), 0.0);
    km.y8.assign(km.y.size() * kVectors, 0.0);
  }
  return now_s() - t0;
}

KRefs reference(const KMatrix& km, Report& rep) {
  KRefs r;
  const std::size_t rows = km.y.size();
  r.y8.assign(rows * kVectors, 0.0);
  for (int k = 0; k < kVectors; ++k) {
    r.y.emplace_back(rows);
    baselines::seq::spmv(km.a, km.x[static_cast<std::size_t>(k)], r.y.back());
    for (std::size_t i = 0; i < rows; ++i) r.y8[i * kVectors + k] = r.y.back()[i];
  }
  r.add = baselines::seq::spadd(km.a, km.a);
  if (!spgemm_reference(km.a, km.rhs(), r.gemm)) {
    std::fprintf(stderr, "perfbench: merge SpGEMM on %s breaks the seq:: oracle\n",
                 km.name.c_str());
    ++rep.attempted;
    ++rep.failed;
  }
  return r;
}

OpOut run_op(vgpu::Device& dev, KMatrix& km, const KRefs& ref, const KOp& op,
             FamilyLog* log) {
  OpOut out;
  const std::vector<double>& x = km.x[op.vec];
  const double t0 = now_s();
  try {
    switch (op.family) {
      case kExec: {
        const auto st = core::merge::spmv_execute(dev, km.a, x, km.y, km.plan);
        out.wall_ms = (now_s() - t0) * 1e3;
        out.model_ms = st.modeled_ms();
        out.ok = same_bits(km.y, ref.y[op.vec]);
        break;
      }
      case kSpmv: {
        const auto st = core::merge::spmv(dev, km.a, x, km.y);
        out.wall_ms = (now_s() - t0) * 1e3;
        out.model_ms = st.modeled_ms();
        out.ok = same_bits(km.y, ref.y[op.vec]);
        if (log) {
          log->spmv_phase_us[0] += (st.partition_ms + st.compact_ms) * 1e3;
          log->spmv_phase_us[1] += st.reduce_ms * 1e3;
          log->spmv_phase_us[2] += st.update_ms * 1e3;
        }
        break;
      }
      case kSpmm: {
        const auto st = core::merge::spmm(dev, km.a, km.x8, kVectors, km.y8);
        out.wall_ms = (now_s() - t0) * 1e3;
        out.model_ms = st.modeled_ms;
        out.ok = same_bits(km.y8, ref.y8);
        break;
      }
      case kSpadd: {
        sparse::CsrD c;
        const auto st = core::merge::spadd_csr(dev, km.a, km.a, c);
        out.wall_ms = (now_s() - t0) * 1e3;
        out.model_ms = st.modeled_ms;
        out.ok = same_bits(c, ref.add);
        break;
      }
      case kSpgemm: {
        sparse::CsrD c;
        const auto st = core::merge::spgemm(dev, km.a, km.rhs(), c);
        out.wall_ms = (now_s() - t0) * 1e3;
        out.model_ms = st.modeled_ms();
        out.ok = same_bits(c, ref.gemm);
        if (log) {
          const auto& ph = st.phases;
          const std::array<double, 5> us = {ph.setup_ms, ph.block_sort_ms,
                                            ph.global_sort_ms, ph.product_compute_ms,
                                            ph.product_reduce_ms};
          for (std::size_t i = 0; i < us.size(); ++i) log->spgemm_phase_us[i] += us[i] * 1e3;
          log->products += static_cast<double>(st.num_products);
        }
        break;
      }
      case kFamilies:
        break;
    }
  } catch (const std::exception& e) {
    std::fprintf(stderr, "perfbench: %s on %s failed: %s\n", kFamilyName[op.family],
                 km.name.c_str(), e.what());
    out.wall_ms = (now_s() - t0) * 1e3;
    out.ok = false;
  }
  if (log) {
    log->wall_us.push_back(out.wall_ms * 1e3);
    log->model_us.push_back(out.model_ms * 1e3);
  }
  return out;
}

struct Cycles {
  Phase phase;
  double model_ms = 0.0;  ///< modeled sum of the first cycle
  bool repeatable = true;
  std::array<double, kFamilies> family_wall_ms{};
};

/// The traced run's record of its first cycle.
struct KWindow {
  std::array<FamilyLog, kFamilies> logs;
  telemetry::ProfileReport prof;
};

/// Run whole cycles until the boundary nearest `seconds`.  When `win` is
/// given, the first cycle is recorded into it.
Cycles run_cycles(KState& s, const std::vector<KRefs>& refs,
                  const std::vector<KOp>& cycle, double seconds, KWindow* win) {
  Cycles c;
  Phase& p = c.phase;
  const double cpu0 = process_cpu_s();
  const double t0 = now_s();
  for (int n = 0;; ++n) {
    const std::size_t first = p.latency_ms.size();
    const long long done0 = p.succeeded;
    const double cycle_cpu0 = process_cpu_s();
    const double cycle_t0 = now_s();
    double model_ms = 0.0;
    for (const KOp& op : cycle) {
      FamilyLog* log = (win && n == 0) ? &win->logs[op.family] : nullptr;
      const OpOut out = run_op(*s.device, s.m[op.matrix], refs[op.matrix], op, log);
      ++p.attempted;
      if (out.ok) {
        ++p.succeeded;
        p.latency_ms.push_back(out.wall_ms);
      } else {
        ++p.failed;  // fails the run; no latency sample
      }
      c.family_wall_ms[op.family] += out.wall_ms;
      model_ms += out.model_ms;
    }
    p.close_block(first, p.succeeded - done0, now_s() - cycle_t0, process_cpu_s() - cycle_cpu0);
    s.device->clear_log();  // the launch log would otherwise grow with run length
    if (n == 0) {
      c.model_ms = model_ms;
      if (win) win->prof = telemetry::profiler().report();
    } else if (model_ms != c.model_ms) {
      c.repeatable = false;
    }
    const double elapsed = now_s() - t0;
    if (elapsed + 0.5 * elapsed / (n + 1) >= seconds) break;
  }
  p.wall_s = now_s() - t0;
  p.cpu_s = process_cpu_s() - cpu0;
  return c;
}

/// CPU seconds of the same ops run untraced and traced.
struct Overhead {
  Phase phase;
  std::array<double, 2> cpu_s{};  ///< index 1: traced
  bool repeatable = true;
};

/// Run each op of the cycle twice back to back, untraced and traced, the
/// order alternating from op to op, until `seconds` pass.  Both states
/// then run the same ops, and host drift and cache warmth cancel; a
/// cycle (~10 s) is too long to alternate whole cycles in one run.
Overhead run_overhead(KState& s, const std::vector<KRefs>& refs,
                      const std::vector<KOp>& cycle, double seconds) {
  Overhead o;
  Phase& p = o.phase;
  const double t0 = now_s();
  for (std::size_t i = 0; i < cycle.size() && now_s() - t0 < seconds; ++i) {
    const KOp& op = cycle[i];
    std::array<double, 2> model_ms{};
    for (std::size_t k = 0; k < 2; ++k) {
      const std::size_t on = (i + k) % 2;
      set_tracing(on != 0);
      const double cpu0 = process_cpu_s();
      const OpOut out = run_op(*s.device, s.m[op.matrix], refs[op.matrix], op, nullptr);
      o.cpu_s[on] += process_cpu_s() - cpu0;
      set_tracing(false);
      model_ms[on] = out.model_ms;
      ++p.attempted;
      ++(out.ok ? p.succeeded : p.failed);
    }
    if (model_ms[0] != model_ms[1]) o.repeatable = false;
    telemetry::tracer().clear();
    s.device->clear_log();
  }
  return o;
}

void add_layer_metrics(Report& r, const KWindow& win, std::size_t window_ops) {
  const auto& logs = win.logs;
  double wall_us = 0.0;
  double model_us = 0.0;
  for (int f = 0; f < kFamilies; ++f) {
    const FamilyLog& log = logs[static_cast<std::size_t>(f)];
    const std::string base = std::string("core.") + kFamilyName[static_cast<std::size_t>(f)];
    r.layer[base + ".wall_us"] = util::percentile(log.wall_us, 50);
    r.layer[base + ".model_us"] = util::percentile(log.model_us, 50);
    for (const double w : log.wall_us) wall_us += w;
    for (const double m : log.model_us) model_us += m;
  }
  const FamilyLog& spmv = logs[kSpmv];
  const auto calls = static_cast<double>(spmv.model_us.size());
  r.layer["core.spmv.partition_us"] = spmv.spmv_phase_us[0] / calls;
  r.layer["core.spmv.reduce_us"] = spmv.spmv_phase_us[1] / calls;
  r.layer["core.spmv.update_us"] = spmv.spmv_phase_us[2] / calls;
  const FamilyLog& gemm = logs[kSpgemm];
  const auto gcalls = static_cast<double>(gemm.model_us.size());
  const std::array<const char*, 5> phase = {"setup_us", "block_sort_us", "global_sort_us",
                                            "product_compute_us", "product_reduce_us"};
  for (std::size_t i = 0; i < phase.size(); ++i) {
    r.layer[std::string("core.spgemm.") + phase[i]] = gemm.spgemm_phase_us[i] / gcalls;
  }
  double gemm_wall_ns = 0.0;
  for (const double w : gemm.wall_us) gemm_wall_ns += w * 1e3;
  r.layer["core.spgemm.wall_ns_per_product"] = gemm_wall_ns / gemm.products;

  telemetry::RooflineAgg total;
  for (const auto& [name, agg] : win.prof.by_op) total += agg;
  const auto ops = static_cast<double>(window_ops);
  r.layer["vgpu.launches_per_op"] = static_cast<double>(total.launches) / ops;
  r.layer["vgpu.bytes_per_op"] = total.bytes / ops;
  r.layer["vgpu.achieved_bw_frac"] = total.achieved_frac();
  r.layer["vgpu.wall_per_model"] = wall_us / model_us;
}

}  // namespace

void run_kernels(const Options& opt, Report& r) {
  std::unique_ptr<KState> state;
  std::vector<double> setup_s;
  std::vector<double> gen_s;
  for (int rep = 0; rep < kSetupReps; ++rep) {
    state.reset();
    state = std::make_unique<KState>();
    double g = 0.0;
    setup_s.push_back(setup(opt, *state, g));
    gen_s.push_back(g);
  }
  KState& s = *state;

  std::vector<KRefs> refs;
  for (const KMatrix& km : s.m) refs.push_back(reference(km, r));
  r.note("peak_rss_reset", reset_peak_rss() ? 1.0 : 0.0);

  std::vector<KOp> cycle;
  for (std::size_t i = 0; i < s.m.size(); ++i) {
    for (int f = 0; f < kFamilies; ++f) {
      for (int j = 0; j < kPerCycle[static_cast<std::size_t>(f)]; ++j) {
        cycle.push_back(KOp{static_cast<Family>(f), static_cast<std::uint8_t>(j % kVectors),
                            static_cast<std::uint16_t>(i)});
      }
    }
  }
  util::Rng rng(mix_seed(opt.seed, 0xC7C1E));
  for (std::size_t i = cycle.size(); i > 1; --i) {
    std::swap(cycle[i - 1], cycle[static_cast<std::size_t>(rng.uniform(i))]);
  }
  std::uint64_t digest = 1469598103934665603ull;
  for (const KOp& op : cycle) {
    digest = fnv(digest, (static_cast<std::uint64_t>(op.family) << 24) |
                             (static_cast<std::uint64_t>(op.vec) << 16) | op.matrix);
  }
  for (const KMatrix& km : s.m) {
    for (const auto& x : km.x) digest = fnv(digest, std::hash<double>{}(x.front()));
  }
  r.trace_digest = digest;
  r.note("cycle_ops", static_cast<double>(cycle.size()));
  r.note("matrices", static_cast<double>(s.m.size()));

  if (!opt.trace) {
    const Cycles c = run_cycles(s, refs, cycle, opt.seconds, nullptr);
    count_ops(r, c.phase);
    r.model_repeatable = c.repeatable;
    const double model_us_per_op = c.model_ms * 1e3 / static_cast<double>(cycle.size());
    r.note("cycles", static_cast<double>(c.phase.attempted) / static_cast<double>(cycle.size()));
    r.note("model_us_per_op", model_us_per_op);
    // Each family's share of the call wall: none should pass about half.
    double call_ms = 0.0;
    for (const double w : c.family_wall_ms) call_ms += w;
    for (int f = 0; f < kFamilies; ++f) {
      r.note(std::string("wall_share.") + kFamilyName[static_cast<std::size_t>(f)],
             c.family_wall_ms[static_cast<std::size_t>(f)] / call_ms);
    }
    add_end_to_end(r, c.phase, util::percentile(setup_s, 50), model_us_per_op);
    return;
  }

  // Traced run: the traced phase starts from the same state as a timed
  // run, so its first cycle's modeled figures match bit for bit; the
  // paired phase after it gives the tracing overhead.
  KWindow win;
  telemetry::profiler().clear();
  telemetry::tracer().clear();
  set_tracing(true);
  const Cycles traced = run_cycles(s, refs, cycle, opt.seconds / 2, &win);
  set_tracing(false);
  r.note("spans", static_cast<double>(telemetry::tracer().size()));
  const Overhead over = run_overhead(s, refs, cycle, opt.seconds / 2);
  count_ops(r, traced.phase);
  count_ops(r, over.phase);
  r.model_repeatable = traced.repeatable && over.repeatable;
  r.note("overhead_pairs", static_cast<double>(over.phase.attempted / 2));
  r.note("model_us_per_op", traced.model_ms * 1e3 / static_cast<double>(cycle.size()));
  add_layer_metrics(r, win, cycle.size());
  r.layer["workloads.generate_s"] = util::percentile(gen_s, 50);
  r.layer["telemetry.trace_overhead_frac"] = over.cpu_s[1] / over.cpu_s[0] - 1.0;
}

}  // namespace perfbench

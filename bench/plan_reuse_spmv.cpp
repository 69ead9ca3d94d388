// Plan-reuse SpMV: how the one-time merge-path partition (SpmvPlan)
// amortizes across iterative workloads — the MERBIT-style precomputed
// execution metadata setting.  For each iterative-suite matrix the table
// reports the one-shot modeled cost, the plan build cost, the
// steady-state execute cost, the break-even apply count n* after which
// the plan path is cheaper than one-shot, and the per-iteration cost of
// the plan path at increasing iteration counts (the amortization curve).
//
// One-shot spmv is a single launch whose CTAs search their own fences, so
// a plan saves only that search per call: n* = plan / (one-shot - exec).
//
// This bench also enforces the two zero-overhead contracts on the hot
// path: disabled integrity guards charge no modeled time, and the
// telemetry tracer — enabled or not — never perturbs modeled kernel time
// (spans run on the host side only; docs/observability.md).
#include <cstdio>
#include <vector>

#include "analysis/bench_json.hpp"
#include "analysis/experiment.hpp"
#include "baselines/seq.hpp"
#include "core/spmv.hpp"
#include "resilience/integrity.hpp"
#include "suite_runners.hpp"
#include "telemetry/profile.hpp"
#include "telemetry/span.hpp"
#include "util/rng.hpp"
#include "util/table.hpp"
#include "workloads/suite.hpp"

using mps::bench::require;

int main() {
  using namespace mps;
  const auto cfg = analysis::bench_config(/*default_scale=*/1.0);
  analysis::print_system_config(vgpu::gtx_titan(), cfg);

  util::Table t("Plan-reuse SpMV: per-iteration modeled ms vs apply count");
  t.set_header({"Matrix", "driver", "one-shot", "plan", "plan KiB", "exec",
                "n*", "n=10", "n=100", "n=1000", "steady-state x"});
  analysis::BenchJson report("plan_reuse_spmv");
  report.add_stat("scale", cfg.scale);
  for (const auto& it : workloads::iterative_suite(cfg.scale)) {
    const auto& a = it.entry.matrix;
    vgpu::Device dev;
    util::Rng rng(17);
    std::vector<double> x(static_cast<std::size_t>(a.num_cols));
    for (auto& v : x) v = rng.uniform_double(-1, 1);
    std::vector<double> y_ref(static_cast<std::size_t>(a.num_rows));
    baselines::seq::spmv(a, x, y_ref);

    // Kernel time only (SpmvStats::kernel_ms): guard scans, which run
    // only under MPS_INTEGRITY_CHECK, differ between the two paths.
    std::vector<double> y(y_ref.size());
    const double oneshot_ms = core::merge::spmv(dev, a, x, y).kernel_ms();
    double err = 0.0;
    for (std::size_t i = 0; i < y.size(); ++i)
      err = std::max(err, std::abs(y[i] - y_ref[i]));
    require(err < 1e-8, "one-shot spmv mismatch");

    const auto plan = core::merge::spmv_plan(dev, a);
    std::vector<double> y_exec(y.size());
    const auto exec_stats = core::merge::spmv_execute(dev, a, x, y_exec, plan);
    const double exec_ms = exec_stats.kernel_ms();
    require(y_exec == y, "planned spmv not bit-identical to one-shot");
    // Reading the fences is cheaper than searching for them.
    require(exec_ms < oneshot_ms, "planned execute not cheaper than one-shot");
    // The zero-overhead contract: with guards disabled the integrity
    // machinery must not charge a single modeled microsecond to the
    // steady-state hot path.
    if (!resilience::integrity_checks_enabled()) {
      require(exec_stats.integrity_ms == 0.0,
              "integrity guards charged modeled time while disabled");
    }
    // Same contract for telemetry: the modeled execute time must be
    // bit-identical with the tracer off (the default above) and on, and
    // no spans may have been recorded while it was off.
    {
      const std::size_t spans_before = telemetry::tracer().size();
      telemetry::tracer().enable();
      std::vector<double> y_traced(y.size());
      const double traced_ms =
          core::merge::spmv_execute(dev, a, x, y_traced, plan).kernel_ms();
      telemetry::tracer().disable();
      require(spans_before == 0,
              "spans were recorded while the tracer was disabled");
      require(traced_ms == exec_ms,
              "enabling the tracer changed modeled kernel time");
      require(y_traced == y_exec, "tracing changed spmv results");
      require(telemetry::tracer().size() > spans_before,
              "tracer enabled but no spans recorded");
      telemetry::tracer().clear();
    }
    // And for the roofline profiler: attribution reads kernel counters
    // the launch already produced, so modeled time and results must be
    // bit-identical with it on, and nothing may be recorded while off.
    {
      require(telemetry::profiler().report().by_op.empty(),
              "profiler recorded launches while disabled");
      telemetry::profiler().enable();
      std::vector<double> y_prof(y.size());
      const double prof_ms =
          core::merge::spmv_execute(dev, a, x, y_prof, plan).kernel_ms();
      telemetry::profiler().disable();
      require(prof_ms == exec_ms,
              "enabling the profiler changed modeled kernel time");
      require(y_prof == y_exec, "profiling changed spmv results");
      const auto prof_report = telemetry::profiler().report();
      require(!prof_report.by_op.empty(),
              "profiler enabled but no launches attributed");
      telemetry::profiler().clear();
    }

    // Modeled time is deterministic, so the amortization curve is exact
    // arithmetic — no need to actually run n applications.
    const auto per_iter = [&](double n) {
      return (plan.plan_ms() + n * exec_ms) / n;
    };
    const double break_even = plan.plan_ms() / (oneshot_ms - exec_ms);
    // The heap bytes a cached plan keeps resident (what the serving
    // engine's plan cache charges, docs/serving.md).
    require(plan.bytes() > 0, "plan reports a zero heap footprint");
    std::vector<std::string> row{it.entry.name, it.driver,
                                 util::fmt(oneshot_ms, 4),
                                 util::fmt(plan.plan_ms(), 4),
                                 util::fmt(static_cast<double>(plan.bytes()) / 1024.0, 2),
                                 util::fmt(exec_ms, 4),
                                 util::fmt(break_even, 0)};
    for (const double n : {10.0, 100.0, 1000.0})
      row.push_back(util::fmt(per_iter(n), 4));
    row.push_back(util::fmt(oneshot_ms / exec_ms, 2) + "x");
    t.add_row(row);
    report.add_case(it.entry.name,
                    {{"nnz", static_cast<double>(a.nnz())},
                     {"oneshot_ms", oneshot_ms},
                     {"plan_ms", plan.plan_ms()},
                     {"exec_ms", exec_ms},
                     {"break_even_n", break_even},
                     {"plan_bytes", static_cast<double>(plan.bytes())}});
  }
  analysis::emit(t, "plan_reuse_spmv");
  report.write();
  std::puts("\nExpected shape: execute is strictly below one-shot (it reads"
            " the fences one-shot searches for); the per-iteration plan cost"
            " falls below one-shot once n exceeds the break-even n* and"
            " converges to the execute-only steady state.");
  std::puts("telemetry zero-overhead contract: PASS (tracer and profiler"
            " on/off modeled deltas all zero)");
  return 0;
}

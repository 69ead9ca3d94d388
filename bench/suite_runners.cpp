#include "suite_runners.hpp"

#include <cmath>
#include <cstdio>

#include "autotune/autotune.hpp"
#include "baselines/cusplike.hpp"
#include "baselines/rowwise.hpp"
#include "baselines/seq.hpp"
#include "core/spadd.hpp"
#include "core/spmv.hpp"
#include "resilience/integrity.hpp"
#include "sparse/compare.hpp"
#include "sparse/convert.hpp"
#include "util/rng.hpp"

namespace mps::bench {

using sparse::CooD;
using sparse::CsrD;

namespace {

std::vector<double> random_vector(std::size_t n, std::uint64_t seed) {
  util::Rng rng(seed);
  std::vector<double> x(n);
  for (auto& v : x) v = rng.uniform_double(-1.0, 1.0);
  return x;
}

void require(bool ok, const std::string& what) {
  if (!ok) {
    std::fprintf(stderr, "BENCH VALIDATION FAILED: %s\n", what.c_str());
    std::exit(2);
  }
}

double max_abs_diff(const std::vector<double>& a, const std::vector<double>& b) {
  double m = 0.0;
  for (std::size_t i = 0; i < a.size(); ++i) m = std::max(m, std::abs(a[i] - b[i]));
  return m;
}

}  // namespace

std::vector<SpmvRow> run_spmv_suite(const std::vector<workloads::SuiteEntry>& suite) {
  std::vector<SpmvRow> rows;
  for (const auto& e : suite) {
    const CsrD& a = e.matrix;
    const auto x = random_vector(static_cast<std::size_t>(a.num_cols), 99);
    std::vector<double> y_ref(static_cast<std::size_t>(a.num_rows));
    std::vector<double> y(static_cast<std::size_t>(a.num_rows));
    baselines::seq::spmv(a, x, y_ref);

    SpmvRow row;
    row.name = e.name;
    row.nnz = a.nnz();

    vgpu::Device dev;
    row.cusp_ms = baselines::cusplike::spmv(dev, a, x, y).modeled_ms;
    require(max_abs_diff(y, y_ref) < 1e-8, e.name + " cusp spmv mismatch");
    row.rowwise_ms = baselines::rowwise::spmv(dev, a, x, y).modeled_ms;
    require(max_abs_diff(y, y_ref) < 1e-8, e.name + " rowwise spmv mismatch");
    row.merge_ms = core::merge::spmv(dev, a, x, y).modeled_ms();
    require(max_abs_diff(y, y_ref) < 1e-8, e.name + " merge spmv mismatch");

    // Repeated-apply path: plan once, execute once, and require the
    // result to be bit-identical to the one-shot merge kernel.
    const auto counters_before = resilience::counters();
    const auto plan = core::merge::spmv_plan(dev, a);
    std::vector<double> y_exec(y.size());
    const auto exec = core::merge::spmv_execute(dev, a, x, y_exec, plan);
    require(y_exec == y, e.name + " planned spmv not bit-identical");
    row.merge_plan_ms = plan.plan_ms();
    row.merge_exec_ms = exec.modeled_ms();
    row.integrity_ms = exec.integrity_ms;
    const auto& counters_after = resilience::counters();
    row.integrity_failures =
        counters_after.integrity_failures - counters_before.integrity_failures;
    row.restores =
        counters_after.checkpoint_restores - counters_before.checkpoint_restores;

    if (autotune::enabled()) {
      const autotune::TunedPlan tuned(dev, a);
      std::vector<double> y_auto(y.size(), -999.0);
      row.auto_ms = tuned.execute(dev, a, x, y_auto).modeled_ms();
      require(y_auto == y_exec, e.name + " autotuned spmv not bit-identical");
      require(row.auto_ms <= row.merge_exec_ms * (1.0 + 1e-12),
              e.name + " autotuner slower than static merge default");
      row.auto_choice = tuned.choice().name;
    }
    rows.push_back(row);
  }
  return rows;
}

std::vector<SpaddRow> run_spadd_suite(const std::vector<workloads::SuiteEntry>& suite) {
  std::vector<SpaddRow> rows;
  for (const auto& e : suite) {
    const CsrD& a = e.matrix;
    const CooD a_coo = sparse::csr_to_coo(a);

    SpaddRow row;
    row.name = e.name;
    row.work = 2LL * a.nnz();

    vgpu::CpuCost cpu;
    const CsrD ref = baselines::seq::spadd(a, a, &cpu);
    row.cpu_ms = cpu.modeled_ms();

    vgpu::Device dev;
    CooD c_coo;
    row.cusp_ms = baselines::cusplike::spadd(dev, a_coo, a_coo, c_coo).modeled_ms;
    require(c_coo.nnz() == ref.nnz(), e.name + " cusp spadd nnz mismatch");
    CsrD c;
    row.rowwise_ms = baselines::rowwise::spadd(dev, a, a, c).modeled_ms;
    require(sparse::compare_csr(c, ref).equal, e.name + " rowwise spadd mismatch");
    row.merge_ms = core::merge::spadd(dev, a_coo, a_coo, c_coo).modeled_ms;
    require(c_coo.nnz() == ref.nnz(), e.name + " merge spadd nnz mismatch");
    rows.push_back(row);
  }
  return rows;
}

std::vector<SpgemmRow> run_spgemm_suite(
    const std::vector<workloads::SuiteEntry>& suite) {
  // Native-scale footprint per intermediate product (bytes): the merge
  // scheme stores a 16-bit permutation, head bits and the block-reduced
  // tuple subset; ESC (cusp-like) streams keys+values through the global sort.
  constexpr double kMergeBytesPerProduct = 4.5;
  constexpr double kEscBytesPerProduct = 8.0;
  constexpr double kDeviceBytes = 6.0 * 1024 * 1024 * 1024;

  std::vector<SpgemmRow> rows;
  for (const auto& e : suite) {
    const CsrD& a = e.matrix;
    const CsrD b = e.spgemm_transpose ? sparse::transpose(a) : a;

    SpgemmRow row;
    row.name = e.name;
    row.products = baselines::seq::spgemm_num_products(a, b);
    row.merge_oom =
        e.native_products_estimate * kMergeBytesPerProduct > kDeviceBytes;
    row.cusp_oom = e.native_products_estimate * kEscBytesPerProduct > kDeviceBytes;

    vgpu::CpuCost cpu;
    const CsrD ref = baselines::seq::spgemm(a, b, &cpu);
    row.cpu_ms = cpu.modeled_ms();

    vgpu::Device dev;
    CsrD c;
    if (row.cusp_oom) {
      row.cusp_ms = -1.0;
    } else {
      row.cusp_ms = baselines::cusplike::spgemm(dev, a, b, c).modeled_ms;
      require(c.nnz() == ref.nnz(), e.name + " cusp spgemm nnz mismatch");
    }
    row.rowwise_ms = baselines::rowwise::spgemm(dev, a, b, c).modeled_ms;
    require(sparse::compare_csr(c, ref, 1e-9, 1e-11).equal,
            e.name + " rowwise spgemm mismatch");
    if (row.merge_oom) {
      row.merge_ms = -1.0;
    } else {
      const auto stats = core::merge::spgemm(dev, a, b, c);
      row.merge_ms = stats.modeled_ms();
      row.merge_phases = stats.phases;
      require(sparse::compare_csr(c, ref, 1e-9, 1e-11).equal,
              e.name + " merge spgemm mismatch");
    }
    rows.push_back(row);
  }
  return rows;
}

}  // namespace mps::bench

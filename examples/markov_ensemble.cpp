// Evolving an ensemble of probability distributions over a Markov chain
// with merge-path SpMM: Y = P^T X for a block of initial distributions.
// Demonstrates the blocked kernel's bandwidth advantage over repeated
// SpMV — one pass over the transition matrix serves every chain.  The
// transition pattern is fixed, so one SpmvPlan serves every step of the
// ensemble and of the per-chain SpMV comparison alike.
//
//   $ ./examples/markov_ensemble [states] [chains]
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <vector>

#include "core/spmv.hpp"
#include "solver/resilient.hpp"
#include "sparse/convert.hpp"
#include "util/rng.hpp"
#include "vgpu/device.hpp"
#include "workloads/generators.hpp"
#include "util/main_guard.hpp"

namespace {

int run_main(int argc, char** argv) {
  using namespace mps;
  const index_t states = argc > 1 ? static_cast<index_t>(std::atoi(argv[1])) : 20'000;
  const index_t chains = argc > 2 ? static_cast<index_t>(std::atoi(argv[2])) : 8;

  // Random sparse transition structure (row = from-state), then column
  // operator P^T so x_{t+1} = P^T x_t advances a distribution.
  auto p = workloads::random_sparse(states, states, 6.0, 2.0, /*seed=*/77);
  for (index_t r = 0; r < p.num_rows; ++r) {
    double row_sum = 0.0;
    for (index_t k = p.row_offsets[static_cast<std::size_t>(r)];
         k < p.row_offsets[static_cast<std::size_t>(r) + 1]; ++k) {
      p.val[static_cast<std::size_t>(k)] =
          std::abs(p.val[static_cast<std::size_t>(k)]) + 0.05;
      row_sum += p.val[static_cast<std::size_t>(k)];
    }
    for (index_t k = p.row_offsets[static_cast<std::size_t>(r)];
         k < p.row_offsets[static_cast<std::size_t>(r) + 1]; ++k) {
      p.val[static_cast<std::size_t>(k)] /= row_sum;
    }
  }
  const auto pt = sparse::transpose(p);
  std::printf("Markov chain: %d states, %d nnz transitions, %d parallel chains\n",
              states, pt.nnz(), chains);

  // Ensemble of point-mass initial distributions.
  util::Rng rng(5);
  const std::size_t nv = static_cast<std::size_t>(chains);
  std::vector<double> x(static_cast<std::size_t>(states) * nv, 0.0);
  for (std::size_t j = 0; j < nv; ++j) {
    x[static_cast<std::size_t>(rng.uniform(static_cast<std::uint64_t>(states))) * nv + j] = 1.0;
  }

  vgpu::Device device;
  std::vector<double> y(x.size());
  // The partition is built once and charged once; every step runs
  // planned SpMM through it.
  const auto plan = core::merge::spmv_plan(device, pt);
  double spmm_ms = plan.plan_ms();
  const int steps = 30;

  // Mass conservation per chain (column sums stay 1) is this workload's
  // health signal: the self-healing driver runs the fixed-step evolution
  // with the mass error as the step residual, so a bit flip that breaks
  // conservation (or a scrub-readback mismatch) rolls the ensemble back
  // to the last clean checkpoint.
  auto mass_error = [&](const std::vector<double>& dist) {
    double worst = 0.0;
    for (std::size_t j = 0; j < nv; ++j) {
      double mass = 0.0;
      for (index_t s = 0; s < states; ++s) {
        mass += dist[static_cast<std::size_t>(s) * nv + j];
      }
      worst = std::max(worst, std::abs(mass - 1.0));
    }
    return worst;
  };
  solver::ResilientConfig rcfg;
  rcfg.max_iterations = steps;
  rcfg.tolerance = 0.0;  // fixed-step: run all 30 evolutions
  solver::ResilientSolver driver(device, rcfg);
  driver.track("x", x);
  driver.track("y", y);
  const auto report = driver.run([&](int) {
    const double ms =
        core::merge::spmv_execute(device, pt, x, y, plan, chains).modeled_ms();
    spmm_ms += ms;
    x.swap(y);
    return solver::StepResult{mass_error(x), ms};
  });

  const double max_mass_err = report.residual;
  std::printf("after %d steps: max |mass - 1| = %.3e\n", report.iterations,
              max_mass_err);
  if (report.detections > 0) {
    std::printf("resilience: %d corruption(s) detected, %d rollback(s)\n",
                report.detections, report.restores);
  }

  // Compare against running the chains one by one with SpMV through the
  // same plan: both sides pay the partition once.
  std::vector<double> x1(static_cast<std::size_t>(states), 1.0 / states);
  std::vector<double> y1(x1.size());
  const double spmv_ms =
      plan.plan_ms() +
      core::merge::spmv_execute(device, pt, x1, y1, plan).modeled_ms() * steps *
          chains;
  std::printf("modeled cost: SpMM ensemble %.3f ms vs %d separate planned SpMV "
              "chains %.3f ms (%.2fx saved)\n",
              spmm_ms, chains, spmv_ms, spmv_ms / spmm_ms);
  return max_mass_err < 1e-9 ? 0 : 1;
}

}  // namespace

int main(int argc, char** argv) {
  return mps::util::guarded_main("markov_ensemble",
                                 [&] { return run_main(argc, argv); });
}

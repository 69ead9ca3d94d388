// Silent-data-corruption tests: deterministic bit-flip injection, the
// integrity-guard module, and the self-healing solver driver.
//
// The contract under test (docs/robustness.md): with bit flips armed and
// MPS_INTEGRITY_CHECK=1, every covered path either produces the same
// bitwise result as an uncorrupted run (after recovery) or raises
// IntegrityError — it never returns silently wrong data.

#include <gtest/gtest.h>

#include <cmath>
#include <cstdlib>
#include <cstring>
#include <span>
#include <string>
#include <vector>

#include "core/spmv.hpp"
#include "resilience/integrity.hpp"
#include "solver/resilient.hpp"
#include "sparse/convert.hpp"
#include "sparse/validate.hpp"
#include "env_guard.hpp"
#include "test_matrices.hpp"
#include "util/rng.hpp"
#include "vgpu/device.hpp"
#include "workloads/generators.hpp"

namespace {

using namespace mps;
using sparse::CsrD;
using sparse::coo_to_csr;
using mps::testing::EnvVarGuard;

/// A device whose injector is guaranteed disarmed even when the process
/// runs under an MPS_FAULT_* sweep — deterministic tests arm it
/// explicitly themselves.
vgpu::Device make_clean_device() {
  vgpu::Device dev;
  dev.fault_injector().disarm();
  dev.fault_injector().reset_counters();
  return dev;
}

CsrD medium_matrix(unsigned seed, index_t rows = 200, index_t cols = 200,
                   index_t nnz = 1400) {
  util::Rng rng(seed);
  return coo_to_csr(mps::testing::random_coo(rng, rows, cols, nnz));
}

// ---------------------------------------------------------------------------
// Bit-flip injector unit behavior.

TEST(BitFlip, FlipsExactByteAtArmedAllocation) {
  auto dev = make_clean_device();
  dev.fault_injector().flip_bit_at_allocation(2, /*offset=*/3, /*mask=*/0x10);
  std::vector<std::uint8_t> buf(16, 0xAA);
  vgpu::ScopedDeviceAlloc first(dev.memory(), 64);  // ordinal 1: not armed
  EXPECT_EQ(buf[3], 0xAA);
  vgpu::ScopedDeviceAlloc second(dev.memory(), buf.size(), buf.data(),
                                 buf.size());  // ordinal 2: flip lands
  EXPECT_EQ(buf[3], 0xAA ^ 0x10);
  for (std::size_t i = 0; i < buf.size(); ++i) {
    if (i != 3) {
      EXPECT_EQ(buf[i], 0xAA) << "collateral damage at byte " << i;
    }
  }
  EXPECT_EQ(dev.fault_injector().bitflips_injected(), 1);
  EXPECT_EQ(dev.fault_injector().bitflips_missed(), 0);
}

TEST(BitFlip, OffsetWrapsAroundTheWindow) {
  auto dev = make_clean_device();
  dev.fault_injector().flip_bit_at_allocation(1, /*offset=*/10, /*mask=*/0x01);
  std::vector<std::uint8_t> buf(4, 0x00);
  vgpu::ScopedDeviceAlloc a(dev.memory(), buf.size(), buf.data(), buf.size());
  EXPECT_EQ(buf[10 % 4], 0x01);  // offset reduced modulo the window
}

TEST(BitFlip, MissedWhenNoWindowRegistered) {
  auto dev = make_clean_device();
  dev.fault_injector().flip_bit_at_allocation(1, 0, 0x01);
  vgpu::ScopedDeviceAlloc a(dev.memory(), 64);  // plain accounting, no window
  EXPECT_EQ(dev.fault_injector().bitflips_injected(), 0);
  EXPECT_EQ(dev.fault_injector().bitflips_missed(), 1);
}

TEST(BitFlip, TransientModeRepeatsEveryN) {
  auto dev = make_clean_device();
  dev.fault_injector().flip_bit_at_allocation(1, 0, 0x01, /*every=*/2);
  std::vector<std::uint8_t> buf(8, 0x00);
  for (int i = 0; i < 5; ++i) {
    vgpu::ScopedDeviceAlloc a(dev.memory(), buf.size(), buf.data(), buf.size());
  }
  // Ordinals 1, 3, 5 flip; 2 and 4 do not.
  EXPECT_EQ(dev.fault_injector().bitflips_injected(), 3);
  EXPECT_EQ(buf[0], 0x01);  // three XORs of the same bit
}

TEST(BitFlip, EnvKnobsArmDeviceAtConstruction) {
  EnvVarGuard a("MPS_FAULT_BITFLIP_ALLOC", "1");
  EnvVarGuard o("MPS_FAULT_BITFLIP_OFFSET", "2");
  EnvVarGuard m("MPS_FAULT_BITFLIP_MASK", "0x80");
  EnvVarGuard n("MPS_FAULT_ALLOC_N", nullptr);
  EnvVarGuard b("MPS_FAULT_BYTE_LIMIT", nullptr);
  vgpu::Device dev;
  EXPECT_TRUE(dev.fault_injector().armed());
  std::vector<std::uint8_t> buf(4, 0x00);
  vgpu::ScopedDeviceAlloc alloc(dev.memory(), buf.size(), buf.data(), buf.size());
  EXPECT_EQ(buf[2], 0x80);
  EXPECT_EQ(dev.fault_injector().bitflips_injected(), 1);
}

// ---------------------------------------------------------------------------
// Integrity-guard module.

TEST(Integrity, ChecksumSeesEveryBit) {
  std::vector<double> v(64, 1.25);
  const auto base = resilience::checksum_span(std::span<const double>(v));
  auto* bytes = reinterpret_cast<std::uint8_t*>(v.data());
  bytes[100] ^= 0x01;  // a single-bit mantissa flip
  EXPECT_NE(resilience::checksum_span(std::span<const double>(v)), base);
  bytes[100] ^= 0x01;
  EXPECT_EQ(resilience::checksum_span(std::span<const double>(v)), base);
}

TEST(Integrity, BufferGuardNamesTheDriftedBuffer) {
  std::vector<double> healthy(32, 1.0), victim(32, 2.0);
  resilience::BufferGuard guard;
  guard.add("healthy", std::span<const double>(healthy));
  guard.add("victim", std::span<const double>(victim));
  guard.verify();  // no drift yet
  reinterpret_cast<std::uint8_t*>(victim.data())[5] ^= 0x40;
  try {
    guard.verify();
    FAIL() << "expected IntegrityError";
  } catch (const IntegrityError& e) {
    EXPECT_NE(std::string(e.what()).find("victim"), std::string::npos);
  }
}

TEST(Integrity, ScrubExposesTheBufferWithoutAccounting) {
  auto dev = make_clean_device();
  dev.fault_injector().flip_bit_at_allocation(1, /*offset=*/9, /*mask=*/0x04);
  std::vector<double> v(16, 3.0);
  const auto before = resilience::checksum_span(std::span<const double>(v));
  const long long scrubs_before = resilience::counters().scrubs;
  const double ms = resilience::scrub(dev, std::span<double>(v));
  EXPECT_GT(ms, 0.0);                       // the read pass is charged
  EXPECT_EQ(dev.memory().in_use(), 0u);     // but nothing is accounted
  EXPECT_EQ(dev.fault_injector().bitflips_injected(), 1);
  EXPECT_NE(resilience::checksum_span(std::span<const double>(v)), before);
  EXPECT_EQ(resilience::counters().scrubs, scrubs_before + 1);
}

TEST(Integrity, CheckCsrFlagsStructureColumnsAndValues) {
  auto dev = make_clean_device();
  const CsrD good = medium_matrix(7);
  EXPECT_GT(resilience::check_csr(dev, good, "test"), 0.0);

  CsrD bad_off = good;
  bad_off.row_offsets[5] = bad_off.row_offsets[4] - 1;
  EXPECT_THROW(resilience::check_csr(dev, bad_off, "test"), IntegrityError);

  CsrD bad_col = good;
  bad_col.col[3] = good.num_cols + 7;
  EXPECT_THROW(resilience::check_csr(dev, bad_col, "test"), IntegrityError);

  CsrD bad_val = good;
  bad_val.val[2] = std::nan("");
  EXPECT_THROW(resilience::check_csr(dev, bad_val, "test"), IntegrityError);
}

TEST(Integrity, CheckFiniteReportsFirstIndex) {
  auto dev = make_clean_device();
  std::vector<double> v(10, 1.0);
  v[6] = std::numeric_limits<double>::infinity();
  try {
    resilience::check_finite(dev, std::span<const double>(v), "test: y");
    FAIL() << "expected IntegrityError";
  } catch (const IntegrityError& e) {
    EXPECT_NE(std::string(e.what()).find("index 6"), std::string::npos);
  }
}

// ---------------------------------------------------------------------------
// SpmvPlan state integrity: a flip in pinned plan state is detected.

TEST(SpmvPlanGuard, DetectsFlipLandingInPinnedPlanState) {
  EnvVarGuard on("MPS_INTEGRITY_CHECK", "1");
  const CsrD a = medium_matrix(11);
  std::vector<double> x(static_cast<std::size_t>(a.num_cols), 1.0);
  std::vector<double> y(static_cast<std::size_t>(a.num_rows), 0.0);

  // The plan's only device reservation is the build-time pin, whose live
  // window is the partition-fence array — so a flip armed at that ordinal
  // deterministically corrupts real plan state.
  auto dev = make_clean_device();
  dev.fault_injector().flip_bit_at_allocation(1, /*offset=*/6, /*mask=*/0x20);
  const auto plan = core::merge::spmv_plan(dev, a);
  EXPECT_EQ(dev.fault_injector().bitflips_injected(), 1);
  EXPECT_THROW(core::merge::spmv_execute(dev, a, x, y, plan), IntegrityError);
}

TEST(SpmvPlanGuard, NeverSilentlyWrongAcrossFlipSweep) {
  EnvVarGuard on("MPS_INTEGRITY_CHECK", "1");
  const CsrD a = medium_matrix(13);
  std::vector<double> x(static_cast<std::size_t>(a.num_cols), 0.5);

  std::vector<double> ref(static_cast<std::size_t>(a.num_rows), 0.0);
  // Planned SpMM through the same plan: three right-hand sides, the
  // middle one x.
  constexpr index_t kVectors = 3;
  std::vector<double> x_block(x.size() * kVectors);
  for (std::size_t i = 0; i < x_block.size(); ++i) {
    x_block[i] = i % kVectors == 1 ? x[i / kVectors] : 0.25 * (i % 5);
  }
  std::vector<double> ref_block(ref.size() * kVectors, 0.0);
  {
    auto dev = make_clean_device();
    const auto plan = core::merge::spmv_plan(dev, a);
    core::merge::spmv_execute(dev, a, x, ref, plan);
    core::merge::spmv_execute(dev, a, x_block, ref_block, plan, kVectors);
  }

  for (const std::size_t offset : {0u, 1u, 7u, 40u, 123u, 4096u}) {
    for (const int mask : {0x01, 0x80}) {
      SCOPED_TRACE("offset " + std::to_string(offset) + " mask " +
                   std::to_string(mask));
      auto dev = make_clean_device();
      dev.fault_injector().flip_bit_at_allocation(
          1, offset, static_cast<std::uint8_t>(mask));
      const auto plan = core::merge::spmv_plan(dev, a);
      std::vector<double> y(static_cast<std::size_t>(a.num_rows), 0.0);
      bool threw = false;
      try {
        core::merge::spmv_execute(dev, a, x, y, plan);
      } catch (const IntegrityError&) {
        threw = true;
      }
      if (!threw) {
        // Only acceptable alternative: the answer is bitwise correct
        // (possible only if the flip was not actually injected).
        ASSERT_EQ(std::memcmp(y.data(), ref.data(), ref.size() * sizeof(double)),
                  0)
            << "silently wrong result";
      }
      // Planned SpMM on the same plan: a flip SpMV detected must raise
      // here too, before Y is touched.
      std::vector<double> y_block(ref_block.size(), -7.0);
      bool block_threw = false;
      try {
        core::merge::spmv_execute(dev, a, x_block, y_block, plan, kVectors);
      } catch (const IntegrityError&) {
        block_threw = true;
      }
      EXPECT_EQ(block_threw, threw);
      if (block_threw) {
        for (const double v : y_block) ASSERT_EQ(v, -7.0) << "Y touched";
      } else {
        ASSERT_EQ(std::memcmp(y_block.data(), ref_block.data(),
                              ref_block.size() * sizeof(double)),
                  0)
            << "silently wrong block result";
      }
    }
  }
}

TEST(SpmvPlanGuard, CleanPlanPassesVerificationAndMatchesUnguardedRun) {
  const CsrD a = medium_matrix(17);
  std::vector<double> x(static_cast<std::size_t>(a.num_cols), 2.0);
  std::vector<double> y_off(static_cast<std::size_t>(a.num_rows), 0.0);
  std::vector<double> y_on(y_off);

  auto dev = make_clean_device();
  const auto plan = core::merge::spmv_plan(dev, a);
  {
    EnvVarGuard off("MPS_INTEGRITY_CHECK", nullptr);
    const auto s = core::merge::spmv_execute(dev, a, x, y_off, plan);
    EXPECT_EQ(s.integrity_ms, 0.0);  // guards off: zero modeled overhead
  }
  {
    EnvVarGuard on("MPS_INTEGRITY_CHECK", "1");
    const auto s = core::merge::spmv_execute(dev, a, x, y_on, plan);
    EXPECT_GT(s.integrity_ms, 0.0);  // guards on: the checks are charged
    EXPECT_EQ(s.modeled_ms(),
              s.partition_ms + s.reduce_ms + s.update_ms + s.compact_ms +
                  s.integrity_ms);
  }
  EXPECT_EQ(std::memcmp(y_off.data(), y_on.data(), y_on.size() * sizeof(double)),
            0);
}

// ---------------------------------------------------------------------------
// Strict validation level 2: non-finite inputs rejected at kernel entry.

TEST(StrictValidationL2, RejectsNonFiniteNamingRowAndCol) {
  // Entry validation is the subject here, not the output guards — those
  // would also (correctly) flag the NaN propagating into y at level 1.
  EnvVarGuard guards_off("MPS_INTEGRITY_CHECK", nullptr);
  CsrD a = medium_matrix(19);
  // Poison a known coordinate.
  const index_t row = 3;
  const index_t k = a.row_offsets[static_cast<std::size_t>(row)];
  ASSERT_LT(k, a.row_offsets[static_cast<std::size_t>(row) + 1])
      << "row 3 unexpectedly empty";
  a.val[static_cast<std::size_t>(k)] = std::nan("");
  const index_t col = a.col[static_cast<std::size_t>(k)];

  std::vector<double> x(static_cast<std::size_t>(a.num_cols), 1.0);
  std::vector<double> y(static_cast<std::size_t>(a.num_rows), 0.0);
  {
    // Level 1: structural only — NaN passes entry validation.
    EnvVarGuard lvl("MPS_STRICT_VALIDATE", "1");
    auto dev = make_clean_device();
    EXPECT_NO_THROW(core::merge::spmv(dev, a, x, y));
  }
  {
    EnvVarGuard lvl("MPS_STRICT_VALIDATE", "2");
    EXPECT_EQ(sparse::strict_validation_level(), 2);
    auto dev = make_clean_device();
    try {
      core::merge::spmv(dev, a, x, y);
      FAIL() << "expected InvalidInputError";
    } catch (const InvalidInputError& e) {
      const std::string what = e.what();
      EXPECT_NE(what.find("non-finite"), std::string::npos);
      EXPECT_NE(what.find("(" + std::to_string(row) + ", " +
                          std::to_string(col) + ")"),
                std::string::npos);
    }
  }
}

// ---------------------------------------------------------------------------
// Self-healing solver driver.

TEST(ResilientSolver, CleanRunConvergesWithoutRecoveryActivity) {
  auto dev = make_clean_device();
  std::vector<double> x(64, 0.0);
  solver::ResilientConfig cfg;
  cfg.max_iterations = 500;
  cfg.tolerance = 1e-12;
  solver::ResilientSolver driver(dev, cfg);
  driver.track("x", x);
  const auto report = driver.run([&](int) {
    double err = 0.0;
    for (auto& v : x) {
      v = 0.9 * v + 0.1;
      err = std::max(err, std::abs(v - 1.0));
    }
    return solver::StepResult{err, 0.0};
  });
  EXPECT_TRUE(report.converged);
  EXPECT_EQ(report.detections, 0);
  EXPECT_EQ(report.restores, 0);
  EXPECT_GT(report.guard_ms, 0.0);  // scans still ran
}

TEST(ResilientSolver, DetectsFlipRollsBackAndMatchesCleanRunBitwise) {
  const auto run_solve = [](vgpu::Device& dev) {
    std::vector<double> x(64, 0.0);
    solver::ResilientConfig cfg;
    cfg.max_iterations = 500;
    cfg.tolerance = 1e-12;
    solver::ResilientSolver driver(dev, cfg);
    driver.track("x", x);
    const auto report = driver.run([&](int) {
      double err = 0.0;
      for (auto& v : x) {
        v = 0.9 * v + 0.1;
        err = std::max(err, std::abs(v - 1.0));
      }
      return solver::StepResult{err, 0.0};
    });
    return std::make_pair(x, report);
  };

  auto clean_dev = make_clean_device();
  const auto [clean_x, clean_report] = run_solve(clean_dev);
  ASSERT_TRUE(clean_report.converged);

  // Arm a flip to land in the tracked vector during a mid-solve scrub
  // (the scrubs are the only windowed reservations this loop makes).
  auto faulty_dev = make_clean_device();
  faulty_dev.fault_injector().flip_bit_at_allocation(5, /*offset=*/101,
                                                     /*mask=*/0x08);
  const auto [healed_x, report] = run_solve(faulty_dev);
  EXPECT_EQ(faulty_dev.fault_injector().bitflips_injected(), 1);
  EXPECT_GE(report.detections, 1);
  EXPECT_GE(report.restores, 1);
  EXPECT_TRUE(report.converged);
  ASSERT_EQ(healed_x.size(), clean_x.size());
  EXPECT_EQ(std::memcmp(healed_x.data(), clean_x.data(),
                        clean_x.size() * sizeof(double)),
            0)
      << "recovered solve drifted from the uncorrupted answer";
}

TEST(ResilientSolver, ExhaustedRestoreBudgetIsLoud) {
  auto dev = make_clean_device();
  std::vector<double> x(32, 0.0);
  solver::ResilientConfig cfg;
  cfg.max_iterations = 100;
  cfg.tolerance = 0.0;  // fixed-step
  cfg.scan_interval = 1;
  cfg.max_restores = 2;
  // Initial scan scrubs once (ordinal 1); arm a transient fault that hits
  // every scrub from ordinal 2 on, so no checkpoint interval can outrun it.
  dev.fault_injector().flip_bit_at_allocation(2, /*offset=*/3, /*mask=*/0x01,
                                              /*every=*/1);
  solver::ResilientSolver driver(dev, cfg);
  driver.track("x", x);
  try {
    driver.run([&](int) {
      for (auto& v : x) v = 0.9 * v + 0.1;
      return solver::StepResult{1.0, 0.0};
    });
    FAIL() << "expected IntegrityError";
  } catch (const IntegrityError& e) {
    EXPECT_NE(std::string(e.what()).find("restore budget"), std::string::npos);
  }
}

TEST(ResilientSolver, RealCgRecoversWithPlanRebuild) {
  EnvVarGuard on("MPS_INTEGRITY_CHECK", "1");
  const CsrD a = workloads::poisson2d(16, 16);
  const std::size_t rows = static_cast<std::size_t>(a.num_rows);

  const auto solve = [&](vgpu::Device& dev) {
    auto plan = core::merge::spmv_plan(dev, a);
    std::vector<double> ones(rows, 1.0), rhs(rows);
    core::merge::spmv_execute(dev, a, ones, rhs, plan);
    std::vector<double> sol(rows, 0.0), r = rhs, p = r, ap(rows);
    double rr = 0.0;
    for (double v : r) rr += v * v;
    solver::ResilientConfig cfg;
    cfg.max_iterations = 400;
    cfg.tolerance = 1e-10 * std::sqrt(rr);
    solver::ResilientSolver driver(dev, cfg);
    driver.track("x", sol);
    driver.track("r", r);
    driver.track("p", p);
    driver.track("Ap", ap);
    driver.track_scalar("r.r", rr);
    const auto report = driver.run(
        [&](int) {
          core::merge::spmv_execute(dev, a, p, ap, plan);
          double pap = 0.0;
          for (std::size_t i = 0; i < rows; ++i) pap += p[i] * ap[i];
          const double alpha = rr / pap;
          for (std::size_t i = 0; i < rows; ++i) {
            sol[i] += alpha * p[i];
            r[i] -= alpha * ap[i];
          }
          double rr_new = 0.0;
          for (double v : r) rr_new += v * v;
          const double beta = rr_new / rr;
          rr = rr_new;
          for (std::size_t i = 0; i < rows; ++i) p[i] = r[i] + beta * p[i];
          return solver::StepResult{std::sqrt(rr), 0.0};
        },
        [&] { plan = core::merge::spmv_plan(dev, a); });
    return std::make_pair(sol, report);
  };

  auto clean_dev = make_clean_device();
  const auto [clean_sol, clean_report] = solve(clean_dev);

  // Arm a flip deep enough into the ordinal stream to land mid-solve (the
  // scrub cadence makes windowed reservations every scan).
  auto faulty_dev = make_clean_device();
  faulty_dev.fault_injector().flip_bit_at_allocation(30, /*offset=*/77,
                                                     /*mask=*/0x80);
  const auto [healed_sol, report] = solve(faulty_dev);
  EXPECT_EQ(faulty_dev.fault_injector().bitflips_injected(), 1);
  EXPECT_GE(report.detections, 1);
  EXPECT_TRUE(report.converged);
  EXPECT_EQ(std::memcmp(healed_sol.data(), clean_sol.data(),
                        clean_sol.size() * sizeof(double)),
            0)
      << "recovered CG drifted from the uncorrupted solution";
  EXPECT_TRUE(clean_report.converged);
}

}  // namespace

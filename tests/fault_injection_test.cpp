// Fault-injection and exception-safety tests.
//
// The central harness is the allocation-failure sweep: run a kernel once
// on a clean device to learn how many device allocations it makes, then
// re-run it N times with allocation i = 1..N forced to fail, asserting
// the strong guarantee after every injected failure — DeviceOomError
// propagates, MemoryModel accounting returns to zero, and the caller's
// outputs are untouched.

#include <gtest/gtest.h>

#include <functional>
#include <string>
#include <vector>

#include "autotune/autotune.hpp"
#include "baselines/formats.hpp"
#include "baselines/rowwise.hpp"
#include "baselines/seq.hpp"
#include "core/spadd.hpp"
#include "core/spgemm.hpp"
#include "core/spmm.hpp"
#include "core/spmv.hpp"
#include "env_guard.hpp"
#include "oracle.hpp"
#include "sparse/compare.hpp"
#include "sparse/convert.hpp"
#include "sparse/validate.hpp"
#include "test_matrices.hpp"
#include "util/rng.hpp"
#include "vgpu/device.hpp"

namespace {

using namespace mps;
using sparse::CooD;
using sparse::CsrD;
using sparse::coo_to_csr;
using mps::testing::EnvVarGuard;

constexpr double kSentinel = -777.25;

/// A device whose injector is guaranteed disarmed even when the process
/// runs under an MPS_FAULT_* sweep (the CI fault job) — deterministic
/// tests arm it explicitly themselves.
vgpu::Device make_clean_device() {
  vgpu::Device dev;
  dev.fault_injector().disarm();
  dev.fault_injector().reset_counters();
  return dev;
}

/// The sweep harness.  `run` performs the kernel on the given device;
/// `reset_outputs` re-initializes the caller-visible outputs to sentinel
/// state; `verify_untouched` asserts they still hold it after a throw.
void sweep_alloc_failures(const std::function<void(vgpu::Device&)>& run,
                          const std::function<void()>& reset_outputs,
                          const std::function<void()>& verify_untouched) {
  auto clean = make_clean_device();
  reset_outputs();
  run(clean);
  EXPECT_EQ(clean.memory().in_use(), 0u);
  const long long n = clean.fault_injector().allocations_observed();
  ASSERT_GT(n, 0) << "kernel made no device allocations; sweep is vacuous";

  for (long long i = 1; i <= n; ++i) {
    SCOPED_TRACE("failing allocation " + std::to_string(i) + " of " +
                 std::to_string(n));
    auto dev = make_clean_device();
    dev.fault_injector().fail_at_allocation(i);
    reset_outputs();
    bool threw = false;
    try {
      run(dev);
    } catch (const vgpu::DeviceOomError& e) {
      threw = true;
      EXPECT_TRUE(e.injected());
    }
    EXPECT_TRUE(threw);
    EXPECT_EQ(dev.memory().in_use(), 0u);
    EXPECT_EQ(dev.fault_injector().faults_injected(), 1);
    verify_untouched();
  }
}

CsrD medium_matrix(unsigned seed, index_t rows = 200, index_t cols = 200,
                   index_t nnz = 1400) {
  util::Rng rng(seed);
  return coo_to_csr(mps::testing::random_coo(rng, rows, cols, nnz));
}

// ---------------------------------------------------------------------------
// Injector unit behavior.

TEST(FaultInjector, FailsExactlyTheNthAllocation) {
  auto dev = make_clean_device();
  dev.fault_injector().fail_at_allocation(2);
  vgpu::ScopedDeviceAlloc a(dev.memory(), 100);  // 1st: fine
  EXPECT_THROW(vgpu::ScopedDeviceAlloc(dev.memory(), 100), vgpu::DeviceOomError);
  // Fired once, now disarmed: later allocations succeed without rearming.
  vgpu::ScopedDeviceAlloc c(dev.memory(), 100);
  EXPECT_EQ(dev.fault_injector().faults_injected(), 1);
  EXPECT_FALSE(dev.fault_injector().armed());
}

TEST(FaultInjector, FailsAtByteThreshold) {
  auto dev = make_clean_device();
  dev.fault_injector().fail_at_byte_threshold(1000);
  vgpu::ScopedDeviceAlloc a(dev.memory(), 600);  // cumulative 600: fine
  EXPECT_THROW(vgpu::ScopedDeviceAlloc(dev.memory(), 600),  // 1200 > 1000
               vgpu::DeviceOomError);
  EXPECT_EQ(dev.fault_injector().faults_injected(), 1);
  EXPECT_EQ(dev.memory().in_use(), 600u);  // only the live RAII alloc
}

TEST(FaultInjector, InjectedErrorIsDistinguishable) {
  auto dev = make_clean_device();
  dev.fault_injector().fail_at_allocation(1);
  try {
    vgpu::ScopedDeviceAlloc a(dev.memory(), 64);
    FAIL() << "expected DeviceOomError";
  } catch (const vgpu::DeviceOomError& e) {
    EXPECT_TRUE(e.injected());
    EXPECT_NE(std::string(e.what()).find("injected"), std::string::npos);
  }
}

// ---------------------------------------------------------------------------
// Allocation-failure sweeps: one per kernel family.

TEST(FaultSweep, SpmvOneShot) {
  const CsrD a = medium_matrix(11);
  std::vector<double> x(static_cast<std::size_t>(a.num_cols), 1.0);
  std::vector<double> y;
  sweep_alloc_failures(
      [&](vgpu::Device& dev) { core::merge::spmv(dev, a, x, y); },
      [&] { y.assign(static_cast<std::size_t>(a.num_rows), kSentinel); },
      [&] {
        for (double v : y) ASSERT_EQ(v, kSentinel);
      });
}

TEST(FaultSweep, SpmvPlanBuildThenExecute) {
  // Empty rows force the compaction path, giving the build an extra
  // device-visible structure to cover.
  util::Rng rng(13);
  auto coo = mps::testing::random_coo(rng, 150, 150, 300);
  const CsrD a = coo_to_csr(coo);
  std::vector<double> x(static_cast<std::size_t>(a.num_cols), 1.0);
  std::vector<double> y;
  sweep_alloc_failures(
      [&](vgpu::Device& dev) {
        const auto plan = core::merge::spmv_plan(dev, a);
        core::merge::spmv_execute(dev, a, x, y, plan);
      },
      [&] { y.assign(static_cast<std::size_t>(a.num_rows), kSentinel); },
      [&] {
        for (double v : y) ASSERT_EQ(v, kSentinel);
      });
}

TEST(FaultSweep, Spadd) {
  util::Rng rng(17);
  const CooD a = mps::testing::random_coo(rng, 120, 120, 800);
  const CooD b = mps::testing::random_coo(rng, 120, 120, 700);
  CooD c;
  const auto make_sentinel = [] {
    CooD s(1, 1);
    s.push_back(0, 0, 3.5);
    return s;
  };
  sweep_alloc_failures(
      [&](vgpu::Device& dev) { core::merge::spadd(dev, a, b, c); },
      [&] { c = make_sentinel(); },
      [&] {
        ASSERT_EQ(c.num_rows, 1);
        ASSERT_EQ(c.nnz(), 1);
        ASSERT_EQ(c.val[0], 3.5);
      });
}

TEST(FaultSweep, SpaddRowBlock) {
  // SpAdd's memory-pressure rule under every injected allocation failure:
  // a row block either throws with C at its sentinel and no residency, or
  // steps down to row chunks and completes bitwise equal to flat.  Both a
  // whole-matrix block and an interior one are swept.
  const CsrD a = medium_matrix(113);
  const CsrD b = medium_matrix(127);
  CsrD flat;
  {
    auto dev = make_clean_device();
    core::merge::spadd_csr(dev, a, b, flat);
  }
  for (const auto& [r0, r1] : {std::pair<index_t, index_t>{0, a.num_rows},
                               std::pair<index_t, index_t>{50, 170}}) {
    SCOPED_TRACE("rows [" + std::to_string(r0) + ", " + std::to_string(r1) +
                 ")");
    const CsrD want = sparse::row_slice(flat, r0, r1);
    CsrD c;
    auto clean = make_clean_device();
    core::merge::spadd_row_block(clean, a, b, r0, r1, c);
    const long long n = clean.fault_injector().allocations_observed();
    ASSERT_GT(n, 0);
    for (long long i = 1; i <= n; ++i) {
      SCOPED_TRACE("failing allocation " + std::to_string(i));
      auto dev = make_clean_device();
      dev.fault_injector().fail_at_allocation(i);
      c = CsrD(1, 1);
      c.row_offsets = {0, 1};
      c.col = {0};
      c.val = {kSentinel};
      try {
        core::merge::spadd_row_block(dev, a, b, r0, r1, c);
        EXPECT_TRUE(mps::testing::bitwise_equal(c, want));
      } catch (const vgpu::DeviceOomError& e) {
        EXPECT_TRUE(e.injected());
        ASSERT_EQ(c.nnz(), 1);
        ASSERT_EQ(c.val[0], kSentinel);
      }
      EXPECT_EQ(dev.memory().in_use(), 0u);
      EXPECT_EQ(dev.fault_injector().faults_injected(), 1);
    }
  }
}

TEST(FaultSweep, SpgemmFlat) {
  const CsrD a = medium_matrix(19);
  const CsrD b = medium_matrix(23);
  CsrD c;
  sweep_alloc_failures(
      [&](vgpu::Device& dev) { core::merge::spgemm(dev, a, b, c); },
      [&] {
        c = CsrD(1, 1);
        c.row_offsets = {0, 1};
        c.col = {0};
        c.val = {kSentinel};
      },
      [&] {
        ASSERT_EQ(c.num_rows, 1);
        ASSERT_EQ(c.nnz(), 1);
        ASSERT_EQ(c.val[0], kSentinel);
      });
}

TEST(FaultSweep, SpgemmSymbolicLeavesPlanUntouched) {
  const CsrD a = medium_matrix(29);
  const CsrD b = medium_matrix(31);
  core::merge::SpgemmPlan plan;
  sweep_alloc_failures(
      [&](vgpu::Device& dev) {
        core::merge::spgemm_symbolic(dev, a, b, plan);
        // A successful build pins the plan's pattern on the device; drop
        // it before the harness asserts zero residency.  On the injected
        // failures the throw skips this, leaving `plan` for the verify.
        plan = core::merge::SpgemmPlan();
      },
      [&] { plan = core::merge::SpgemmPlan(); },
      [&] { ASSERT_FALSE(plan.valid()); });
}

TEST(FaultSweep, SpgemmNumericAfterCleanSymbolic) {
  const CsrD a = medium_matrix(37);
  const CsrD b = medium_matrix(41);

  // Learn the allocation counts of the two phases separately.
  auto clean = make_clean_device();
  core::merge::SpgemmPlan plan;
  core::merge::spgemm_symbolic(clean, a, b, plan);
  const long long symbolic_n = clean.fault_injector().allocations_observed();
  CsrD c;
  core::merge::spgemm_numeric(clean, a, b, plan, c);
  const long long total_n = clean.fault_injector().allocations_observed();
  ASSERT_GT(total_n, symbolic_n) << "numeric made no allocations to sweep";

  for (long long i = symbolic_n + 1; i <= total_n; ++i) {
    SCOPED_TRACE("failing allocation " + std::to_string(i));
    auto dev = make_clean_device();
    core::merge::SpgemmPlan p;
    core::merge::spgemm_symbolic(dev, a, b, p);
    const std::size_t pinned = dev.memory().in_use();  // held by the plan
    dev.fault_injector().fail_at_allocation(i);
    CsrD out(1, 1);
    out.row_offsets = {0, 1};
    out.col = {0};
    out.val = {kSentinel};
    EXPECT_THROW(core::merge::spgemm_numeric(dev, a, b, p, out),
                 vgpu::DeviceOomError);
    EXPECT_EQ(dev.memory().in_use(), pinned);  // only the plan's pin remains
    ASSERT_EQ(out.nnz(), 1);
    ASSERT_EQ(out.val[0], kSentinel);
  }
}

TEST(FaultSweep, SpgemmChunked) {
  const CsrD a = medium_matrix(43);
  const CsrD b = medium_matrix(47);
  CsrD c;
  core::merge::ChunkedConfig cfg;
  cfg.chunk_bytes = 64 * 1024;  // force several chunks
  sweep_alloc_failures(
      [&](vgpu::Device& dev) { core::merge::spgemm_chunked(dev, a, b, c, cfg); },
      [&] {
        c = CsrD(1, 1);
        c.row_offsets = {0, 1};
        c.col = {0};
        c.val = {kSentinel};
      },
      [&] {
        ASSERT_EQ(c.nnz(), 1);
        ASSERT_EQ(c.val[0], kSentinel);
      });
}

TEST(FaultSweep, SpgemmRowBlock) {
  // The memory-pressure rule under every injected allocation failure: a
  // row block either throws with C at its sentinel and no residency, or
  // steps down to row chunks and completes bitwise equal to flat.  Both a
  // whole-matrix block and an interior one (the sliced path) are swept.
  const CsrD a = medium_matrix(107);
  const CsrD b = medium_matrix(109);
  const auto prefix = core::merge::spgemm_row_prefix(a, b);
  CsrD flat;
  {
    auto dev = make_clean_device();
    core::merge::spgemm(dev, a, b, flat);
  }
  for (const auto& [r0, r1] : {std::pair<index_t, index_t>{0, a.num_rows},
                               std::pair<index_t, index_t>{50, 170}}) {
    SCOPED_TRACE("rows [" + std::to_string(r0) + ", " + std::to_string(r1) +
                 ")");
    const CsrD want = sparse::row_slice(flat, r0, r1);
    CsrD c;
    auto clean = make_clean_device();
    core::merge::spgemm_row_block(clean, a, b, prefix, r0, r1, c);
    const long long n = clean.fault_injector().allocations_observed();
    ASSERT_GT(n, 0);
    for (long long i = 1; i <= n; ++i) {
      SCOPED_TRACE("failing allocation " + std::to_string(i));
      auto dev = make_clean_device();
      dev.fault_injector().fail_at_allocation(i);
      c = CsrD(1, 1);
      c.row_offsets = {0, 1};
      c.col = {0};
      c.val = {kSentinel};
      try {
        core::merge::spgemm_row_block(dev, a, b, prefix, r0, r1, c);
        EXPECT_TRUE(mps::testing::bitwise_equal(c, want));
      } catch (const vgpu::DeviceOomError& e) {
        EXPECT_TRUE(e.injected());
        ASSERT_EQ(c.nnz(), 1);
        ASSERT_EQ(c.val[0], kSentinel);
      }
      EXPECT_EQ(dev.memory().in_use(), 0u);
      EXPECT_EQ(dev.fault_injector().faults_injected(), 1);
    }
  }
}

TEST(FaultSweep, Spmm) {
  const CsrD a = medium_matrix(61);
  const index_t nv = 4;
  std::vector<double> x(static_cast<std::size_t>(a.num_cols) * nv, 1.0);
  std::vector<double> y;
  sweep_alloc_failures(
      [&](vgpu::Device& dev) {
        core::merge::spmm(dev, a, x, nv, y);
      },
      [&] {
        y.assign(static_cast<std::size_t>(a.num_rows) * nv, kSentinel);
      },
      [&] {
        for (double v : y) ASSERT_EQ(v, kSentinel);
      });
}

TEST(FaultSweep, SpmmPlanned) {
  // The plan pins one carry value per CTA; a planned block reserves the
  // other k - 1 per call.  Either reservation failing leaves Y at its
  // sentinel.  Empty rows put the compacted view in the plan too.
  util::Rng rng(63);
  const CsrD a = coo_to_csr(mps::testing::random_coo(rng, 150, 150, 300));
  ASSERT_TRUE(a.has_empty_rows());
  const index_t nv = 4;
  std::vector<double> x(static_cast<std::size_t>(a.num_cols) * nv, 1.0);
  std::vector<double> y;
  sweep_alloc_failures(
      [&](vgpu::Device& dev) {
        const auto plan = core::merge::spmv_plan(dev, a);
        core::merge::spmv_execute(dev, a, x, y, plan, nv);
      },
      [&] {
        y.assign(static_cast<std::size_t>(a.num_rows) * nv, kSentinel);
      },
      [&] {
        for (double v : y) ASSERT_EQ(v, kSentinel);
      });
}

TEST(FaultSweep, AutotuneTrialProtocol) {
  // The tuner runs EVERY candidate once (merge tiles, ELL, CMRS), so the
  // sweep walks the allocation sites inside the trial protocol itself —
  // including the format conversions — then the winner's execute.  The
  // TunedPlan is scoped inside the run so its resident footprint is
  // released before the harness asserts zero residency.
  const CsrD a = medium_matrix(107, 120, 120, 900);
  std::vector<double> x(static_cast<std::size_t>(a.num_cols), 1.0);
  std::vector<double> y;
  sweep_alloc_failures(
      [&](vgpu::Device& dev) {
        const autotune::TunedPlan tuned = autotune::tune(dev, a);
        tuned.execute(dev, a, x, y);
      },
      [&] { y.assign(static_cast<std::size_t>(a.num_rows), kSentinel); },
      [&] {
        for (double v : y) ASSERT_EQ(v, kSentinel);
      });
}

TEST(FaultSweep, CmrsConvertAndSpmv) {
  // The CMRS conversion is host-side and the kernel itself is functional,
  // so the device allocations under test are the format's resident
  // arrays, accounted the way the autotuner's trial protocol residents
  // them.  A failure at any site must release every byte and leave the
  // converted matrix reusable and the output untouched.
  const CsrD a = medium_matrix(109, 150, 150, 1100);
  const sparse::CmrsD cmrs = sparse::csr_to_cmrs(a);
  std::vector<double> x(static_cast<std::size_t>(a.num_cols), 1.0);
  std::vector<double> y;
  const auto bytes_of = [](const auto& v) { return v.size() * sizeof(v[0]); };
  sweep_alloc_failures(
      [&](vgpu::Device& dev) {
        vgpu::ScopedDeviceAlloc strips(dev.memory(), bytes_of(cmrs.strip_ptr));
        vgpu::ScopedDeviceAlloc rows(dev.memory(),
                                     bytes_of(cmrs.row_in_strip));
        vgpu::ScopedDeviceAlloc cols(dev.memory(), bytes_of(cmrs.col));
        vgpu::ScopedDeviceAlloc vals(dev.memory(), bytes_of(cmrs.val));
        baselines::formats::spmv_cmrs(dev, cmrs, x, y);
      },
      [&] { y.assign(static_cast<std::size_t>(a.num_rows), kSentinel); },
      [&] {
        for (double v : y) ASSERT_EQ(v, kSentinel);
      });
  // The swept matrix still produces the right answer on a clean device.
  auto dev = make_clean_device();
  y.assign(static_cast<std::size_t>(a.num_rows), 0.0);
  baselines::formats::spmv_cmrs(dev, cmrs, x, y);
  std::vector<double> ref(static_cast<std::size_t>(a.num_rows), 0.0);
  baselines::seq::spmv(a, x, ref);
  for (std::size_t i = 0; i < ref.size(); ++i) ASSERT_EQ(y[i], ref[i]);
}

// ---------------------------------------------------------------------------
// Environment configuration.

TEST(FaultEnv, AllocNArmssDeviceAtConstruction) {
  EnvVarGuard n("MPS_FAULT_ALLOC_N", "1");
  EnvVarGuard b("MPS_FAULT_BYTE_LIMIT", nullptr);
  vgpu::Device dev;
  EXPECT_TRUE(dev.fault_injector().armed());
  EXPECT_THROW(vgpu::ScopedDeviceAlloc(dev.memory(), 64), vgpu::DeviceOomError);
}

TEST(FaultEnv, ByteLimitArmsDeviceAtConstruction) {
  EnvVarGuard n("MPS_FAULT_ALLOC_N", nullptr);
  EnvVarGuard b("MPS_FAULT_BYTE_LIMIT", "1024");
  vgpu::Device dev;
  EXPECT_TRUE(dev.fault_injector().armed());
  vgpu::ScopedDeviceAlloc ok(dev.memory(), 512);
  EXPECT_THROW(vgpu::ScopedDeviceAlloc(dev.memory(), 1024), vgpu::DeviceOomError);
}

TEST(FaultEnv, CapacityCapIsAMinimumNotAnOverride) {
  EnvVarGuard cap("MPS_FAULT_CAPACITY", "65536");
  vgpu::Device capped;
  EXPECT_EQ(capped.memory().capacity(), 65536u);
  // An explicitly tiny device keeps its own (smaller) capacity.
  auto props = vgpu::gtx_titan();
  props.global_mem_bytes = 4096;
  vgpu::Device tiny(props);
  EXPECT_EQ(tiny.memory().capacity(), 4096u);
}

TEST(FaultEnv, KernelsSurviveAnyEnvInjection) {
  // Runs with whatever MPS_FAULT_* the environment carries (the CI sweep
  // sets them process-wide): whether or not a fault fires, accounting
  // must return to zero and any error must be the typed DeviceOomError.
  vgpu::Device dev;  // deliberately NOT disarmed
  const CsrD a = medium_matrix(101);
  std::vector<double> x(static_cast<std::size_t>(a.num_cols), 1.0);
  std::vector<double> y(static_cast<std::size_t>(a.num_rows), 0.0);
  try {
    core::merge::spmv(dev, a, x, y);
  } catch (const vgpu::DeviceOomError&) {
  }
  CsrD c;
  try {
    core::merge::spgemm(dev, a, a, c);
  } catch (const vgpu::DeviceOomError&) {
  }
  EXPECT_EQ(dev.memory().in_use(), 0u);
}

TEST(FaultEnv, MalformedValuesAreRejectedNamingTheVariable) {
  // Misconfigured injection must fail loudly at device construction, not
  // silently run fault-free: a chaos job with a typo'd knob would
  // otherwise report a green soak that tested nothing.
  const auto expect_rejected = [](const char* var, const char* value) {
    SCOPED_TRACE(std::string(var) + "=" + value);
    EnvVarGuard g(var, value);
    try {
      vgpu::Device dev;
      FAIL() << "expected InvalidInputError for " << var << "=" << value;
    } catch (const InvalidInputError& e) {
      EXPECT_NE(std::string(e.what()).find(var), std::string::npos)
          << "error must name the offending variable: " << e.what();
    }
  };
  expect_rejected("MPS_FAULT_ALLOC_N", "banana");
  expect_rejected("MPS_FAULT_ALLOC_N", "12x");
  expect_rejected("MPS_FAULT_ALLOC_N", "-3");
  expect_rejected("MPS_FAULT_BYTE_LIMIT", "1e6");  // integers only
  expect_rejected("MPS_FAULT_BITFLIP_ALLOC", "abc");
  // The mask is validated even with no flip armed — a typo'd satellite
  // knob must not wait for MPS_FAULT_BITFLIP_ALLOC to be discovered.
  expect_rejected("MPS_FAULT_BITFLIP_MASK", "0x100");  // above 0xFF
  expect_rejected("MPS_FAULT_BITFLIP_MASK", "zz");
  expect_rejected("MPS_FAULT_CAPACITY", "99999999999999999999999");  // overflow
}

TEST(FaultEnv, WellFormedValuesStillParse) {
  EnvVarGuard mask("MPS_FAULT_BITFLIP_MASK", "0x80");
  EnvVarGuard flip("MPS_FAULT_BITFLIP_ALLOC", "0");
  vgpu::Device dev;  // hex mask in range: accepted
  EnvVarGuard mask2("MPS_FAULT_BITFLIP_MASK", "128");
  vgpu::Device dev2;  // decimal form of the same mask: accepted
  EnvVarGuard empty("MPS_FAULT_BITFLIP_ALLOC", "");
  vgpu::Device dev3;  // empty string counts as unset, not malformed
}

// ---------------------------------------------------------------------------
// Strict validation mode.

TEST(StrictValidation, EnvTogglesPerCall) {
  {
    EnvVarGuard off("MPS_STRICT_VALIDATE", nullptr);
    EXPECT_FALSE(sparse::strict_validation());
  }
  {
    EnvVarGuard on("MPS_STRICT_VALIDATE", "1");
    EXPECT_TRUE(sparse::strict_validation());
  }
}

TEST(StrictValidation, RejectsCorruptCsrAtKernelEntry) {
  EnvVarGuard on("MPS_STRICT_VALIDATE", "1");
  auto dev = make_clean_device();
  CsrD bad = medium_matrix(103);
  bad.col[0] = bad.num_cols + 5;  // out of range
  std::vector<double> x(static_cast<std::size_t>(bad.num_cols), 1.0);
  std::vector<double> y(static_cast<std::size_t>(bad.num_rows), 0.0);
  EXPECT_THROW(core::merge::spmv(dev, bad, x, y), InvalidInputError);
  CsrD c;
  EXPECT_THROW(core::merge::spgemm(dev, bad, bad, c), InvalidInputError);
  EXPECT_THROW(core::merge::spgemm_chunked(dev, bad, bad, c), InvalidInputError);
  EXPECT_EQ(dev.memory().in_use(), 0u);
}

TEST(StrictValidation, ValidatorsNameTheFirstViolation) {
  CsrD bad(2, 2);
  bad.row_offsets = {0, 2, 1};  // decreasing
  bad.col = {0, 1};
  bad.val = {1.0, 2.0};
  try {
    sparse::validate_csr(bad, "test: A");
    FAIL() << "expected InvalidInputError";
  } catch (const InvalidInputError& e) {
    EXPECT_NE(std::string(e.what()).find("test: A"), std::string::npos);
    EXPECT_NE(std::string(e.what()).find("decreases"), std::string::npos);
  }

  CooD dup(2, 2);
  dup.push_back(0, 0, 1.0);
  dup.push_back(0, 0, 2.0);
  try {
    sparse::validate_coo(dup, "test: B");
    FAIL() << "expected InvalidInputError";
  } catch (const InvalidInputError& e) {
    EXPECT_NE(std::string(e.what()).find("duplicate"), std::string::npos);
  }
}

}  // namespace

// Differential oracle suite for the format/kernel autotuner
// (docs/autotuning.md): every tuned configuration is bitwise-identical
// to the sequential baseline, tuning is deterministic, the trial cost is
// charged once (never leaking into steady-state modeled time), the
// tuned choice is never slower than the static merge default, and the
// serving engine's tuned path behaves identically to the untuned one.
#include <gtest/gtest.h>

#include <cstring>
#include <string>
#include <vector>

#include "autotune/autotune.hpp"
#include "baselines/seq.hpp"
#include "core/spmv.hpp"
#include "env_guard.hpp"
#include "oracle.hpp"
#include "serve/engine.hpp"
#include "sparse/convert.hpp"
#include "sparse/stats.hpp"
#include "test_matrices.hpp"
#include "util/error.hpp"
#include "vgpu/device.hpp"
#include "workloads/generators.hpp"

namespace mps {
namespace {

using autotune::Features;
using autotune::Format;
using autotune::TunedPlan;
using sparse::coo_to_csr;
using testing::bitwise_equal;
using testing::kAllRegimes;
using testing::kFuzzSeeds;
using testing::make_regime_matrix;
using testing::oracle_x;
using testing::Regime;
using testing::regime_name;

std::vector<double> seq_reference(const sparse::CsrD& a,
                                  const std::vector<double>& x) {
  std::vector<double> y(static_cast<std::size_t>(a.num_rows), -999.0);
  baselines::seq::spmv(a, x, y);
  return y;
}

// ---------------------------------------------------------------------------
// Canonical accumulation: merge output is bitwise-identical to the
// sequential reference for EVERY tile configuration.  This is the
// property that makes "tuned == untuned" well-defined at all — without
// it the tile choice would perturb rounding on rows that span CTAs.

TEST(MergeCanonical, SingleGiantRowExactForAllTiles) {
  vgpu::Device dev;
  sparse::CooD coo(3, 50000);
  util::Rng rng(13);
  for (index_t c = 0; c < 50000; c += 2) {
    coo.push_back(1, c, rng.uniform_double(-1, 1));
  }
  coo.canonicalize();
  const auto a = coo_to_csr(coo);
  const auto x = oracle_x(a);
  const auto y_ref = seq_reference(a, x);
  for (const int ipt : {1, 3, 7, 16}) {
    SCOPED_TRACE(ipt);
    std::vector<double> y(static_cast<std::size_t>(a.num_rows), -999.0);
    core::merge::spmv(dev, a, x, y, {128, ipt});
    EXPECT_TRUE(bitwise_equal(y, y_ref));
  }
}

class CanonicalGridTest
    : public ::testing::TestWithParam<std::tuple<Regime, std::uint64_t>> {
 protected:
  vgpu::Device dev_;
};

TEST_P(CanonicalGridTest, MergeBitIdenticalToSeqForAllTiles) {
  const auto [regime, seed] = GetParam();
  const auto a = make_regime_matrix(regime, seed);
  const auto x = oracle_x(a);
  const auto y_ref = seq_reference(a, x);
  for (const int ipt : {3, 7, 16}) {
    SCOPED_TRACE(ipt);
    std::vector<double> y(static_cast<std::size_t>(a.num_rows), -999.0);
    core::merge::spmv(dev_, a, x, y, {128, ipt});
    EXPECT_TRUE(bitwise_equal(y, y_ref));
  }
}

// ---------------------------------------------------------------------------
// Tuned execution: bitwise-identical to the sequential baseline AND to
// the untuned merge path, across every fuzz regime.

TEST_P(CanonicalGridTest, TunedBitIdenticalToSeqAndUntuned) {
  const auto [regime, seed] = GetParam();
  const auto a = make_regime_matrix(regime, seed);
  const auto x = oracle_x(a);
  const auto y_ref = seq_reference(a, x);

  const TunedPlan tuned(dev_, a);
  std::vector<double> y_tuned(static_cast<std::size_t>(a.num_rows), -999.0);
  const auto st = tuned.execute(dev_, a, x, y_tuned);
  EXPECT_TRUE(bitwise_equal(y_tuned, y_ref)) << tuned.choice().name;

  std::vector<double> y_merge(static_cast<std::size_t>(a.num_rows), -999.0);
  core::merge::spmv(dev_, a, x, y_merge);
  EXPECT_TRUE(bitwise_equal(y_tuned, y_merge)) << tuned.choice().name;

  // Never slower than the static default (candidate 0) in modeled time.
  ASSERT_FALSE(tuned.trials().empty());
  EXPECT_LE(tuned.steady_ms(), tuned.trials()[0].modeled_ms);
  EXPECT_DOUBLE_EQ(st.modeled_ms(), tuned.steady_ms());
}

// Every candidate runs the same output guard and is ranked without guard
// charges, so integrity guards never change which candidate wins.
TEST_P(CanonicalGridTest, TunedChoiceIgnoresGuardScans) {
  const auto [regime, seed] = GetParam();
  const auto a = make_regime_matrix(regime, seed);
  const auto x = oracle_x(a);
  std::string off;
  {
    testing::EnvVarGuard guards("MPS_INTEGRITY_CHECK", "0");
    off = TunedPlan(dev_, a).choice().name;
  }
  testing::EnvVarGuard guards("MPS_INTEGRITY_CHECK", "1");
  const TunedPlan tuned(dev_, a);
  EXPECT_EQ(tuned.choice().name, off);
  // The served winner pays its output guard, whatever its kernel.
  std::vector<double> y(static_cast<std::size_t>(a.num_rows));
  const auto st = tuned.execute(dev_, a, x, y);
  EXPECT_GT(st.integrity_ms, 0.0) << tuned.choice().name;
  EXPECT_DOUBLE_EQ(st.modeled_ms(), tuned.steady_ms());
}

std::string grid_name(
    const ::testing::TestParamInfo<std::tuple<Regime, std::uint64_t>>& info) {
  return regime_name(std::get<0>(info.param)) +
         std::to_string(std::get<1>(info.param));
}

INSTANTIATE_TEST_SUITE_P(
    Grid, CanonicalGridTest,
    ::testing::Combine(::testing::ValuesIn(testing::kAllRegimes),
                       ::testing::ValuesIn(testing::kFuzzSeeds)),
    grid_name);

// ---------------------------------------------------------------------------
// Tuning protocol properties.

TEST(Autotune, DeterministicGivenAMatrix) {
  vgpu::Device dev;
  const auto a = make_regime_matrix(Regime::kPowerLaw, 2);
  const TunedPlan t1(dev, a);
  const TunedPlan t2(dev, a);
  EXPECT_STREQ(t1.choice().name, t2.choice().name);
  EXPECT_DOUBLE_EQ(t1.steady_ms(), t2.steady_ms());
  EXPECT_DOUBLE_EQ(t1.tune_ms(), t2.tune_ms());
  ASSERT_EQ(t1.trials().size(), t2.trials().size());
  for (std::size_t i = 0; i < t1.trials().size(); ++i) {
    EXPECT_DOUBLE_EQ(t1.trials()[i].modeled_ms, t2.trials()[i].modeled_ms);
  }
}

TEST(Autotune, TrialCostChargedOnceNotInSteadyState) {
  vgpu::Device dev;
  const auto a = make_regime_matrix(Regime::kBanded, 1);
  const TunedPlan tuned(dev, a);
  // The trial protocol ran every candidate once: its cost strictly
  // exceeds any single steady-state apply.
  EXPECT_GT(tuned.tune_ms(), tuned.steady_ms());
  const auto x = oracle_x(a);
  std::vector<double> y(static_cast<std::size_t>(a.num_rows));
  // Repeated executes each report exactly the steady-state cost — the
  // tune-time charge never leaks in.
  for (int i = 0; i < 3; ++i) {
    const auto st = tuned.execute(dev, a, x, y);
    // modeled_ms() is reduce+update only — plan/tune cost excluded.
    EXPECT_DOUBLE_EQ(st.modeled_ms(), tuned.steady_ms());
    EXPECT_EQ(st.partition_ms, 0.0);
    EXPECT_EQ(st.compact_ms, 0.0);
  }
}

TEST(Autotune, NonDefaultWinsOnUniformShortRows) {
  // A 2D Poisson stencil: near-uniform 5-point rows.  Merge pays its
  // per-row offsets window and segmented-scan traffic; a format kernel
  // (CMRS or ELL) streams the same bytes without them and must win.
  vgpu::Device dev;
  const auto a = workloads::poisson2d(64, 64);
  const TunedPlan tuned(dev, a);
  EXPECT_NE(tuned.choice().format, Format::kCsr) << tuned.choice().name;
  EXPECT_LT(tuned.steady_ms(), tuned.trials()[0].modeled_ms);
}

TEST(Autotune, DefaultKeepsSkewedMatrix) {
  // Webbase-style hub-dominated rows (std >> avg): ELL's padding gate
  // rejects it, and CMRS strips are pinned behind their heaviest warp;
  // the flat merge decomposition is the paper's answer and must survive.
  vgpu::Device dev;
  const auto a = workloads::powerlaw_web(20000, 0.015, 1.5, 2, /*seed=*/2025);
  const TunedPlan tuned(dev, a);
  EXPECT_EQ(tuned.choice().kernel, autotune::Kernel::kMergePath)
      << tuned.choice().name;
}

TEST(Autotune, CandidateSpaceAlwaysLeadsWithMergeDefault) {
  for (const Regime r : kAllRegimes) {
    const auto a = make_regime_matrix(r, 1);
    const auto f = Features::extract(a);
    const auto c = autotune::candidate_space(f, 64);
    ASSERT_FALSE(c.empty());
    EXPECT_EQ(c[0].kernel, autotune::Kernel::kMergePath);
    EXPECT_EQ(c[0].cfg.block_threads, 128);
    EXPECT_EQ(c[0].cfg.items_per_thread, 7);
    // A trials cap of 1 degenerates to the static default.
    EXPECT_EQ(autotune::candidate_space(f, 1).size(), 1u);
  }
}

TEST(Autotune, FingerprintGuardRejectsDifferentPattern) {
  vgpu::Device dev;
  const auto a = make_regime_matrix(Regime::kUniform, 1);
  const auto b = make_regime_matrix(Regime::kUniform, 2);  // same dims
  std::vector<double> x(static_cast<std::size_t>(b.num_cols), 1.0);
  std::vector<double> y(static_cast<std::size_t>(b.num_rows));
  const TunedPlan tuned(dev, a);
  EXPECT_THROW(tuned.execute(dev, b, x, y), PlanMismatchError);
  // A one-candidate plan is a merge winner: spmv_execute's own pattern
  // guard is the only check on its path, and it must still reject b.
  const TunedPlan merge_only(dev, a, /*trials=*/1);
  ASSERT_EQ(merge_only.choice().kernel, autotune::Kernel::kMergePath);
  EXPECT_THROW(merge_only.execute(dev, b, x, y), PlanMismatchError);
  EXPECT_NO_THROW(merge_only.execute(dev, a, x, y));
}

TEST(Autotune, ValueBufferGuardForConvertedFormats) {
  // A format-converted winner snapshots the value buffer; executing
  // against an identical-pattern COPY (values live elsewhere) must be
  // rejected, not silently served from the snapshot.
  // 64x64: the smallest poisson2d grid a converted format (CMRS) still
  // wins once merge pays one launch per execute.
  vgpu::Device dev;
  const auto a = workloads::poisson2d(64, 64);
  const TunedPlan tuned(dev, a);
  ASSERT_NE(tuned.choice().format, Format::kCsr) << tuned.choice().name;
  const sparse::CsrD copy = a;
  std::vector<double> x(static_cast<std::size_t>(a.num_cols), 1.0);
  std::vector<double> y(static_cast<std::size_t>(a.num_rows));
  EXPECT_THROW(tuned.execute(dev, copy, x, y), PlanMismatchError);
  EXPECT_NO_THROW(tuned.execute(dev, a, x, y));
}

// ---------------------------------------------------------------------------
// Feature extraction regression: one pass over row_offsets, histogram
// cached on the stats struct.

TEST(Autotune, FeatureExtractionSinglePassOverMillionRows) {
  // 1M-row synthetic matrix, 2 nnz per row, built directly in CSR.
  const index_t rows = 1'000'000;
  sparse::CsrD a(rows, 64);
  a.row_offsets.resize(static_cast<std::size_t>(rows) + 1);
  a.col.resize(2u * static_cast<std::size_t>(rows));
  a.val.assign(2u * static_cast<std::size_t>(rows), 1.0);
  for (index_t r = 0; r <= rows; ++r) {
    a.row_offsets[static_cast<std::size_t>(r)] = 2 * r;
  }
  for (std::size_t k = 0; k < a.col.size(); ++k) {
    a.col[k] = static_cast<index_t>(k % 64);
  }

  const long long before = sparse::stats_scan_count();
  const auto f = Features::extract(a);
  // Exactly ONE row-offset scan: moments, extremes, bandwidth and the
  // nnz/row histogram all come out of the same fused pass, and feature
  // extraction reads the cached histogram instead of rescanning.
  EXPECT_EQ(sparse::stats_scan_count(), before + 1);

  EXPECT_EQ(f.rows, rows);
  EXPECT_EQ(f.nnz, 2ll * rows);
  EXPECT_DOUBLE_EQ(f.avg_row, 2.0);
  EXPECT_DOUBLE_EQ(f.cv_row, 0.0);
  EXPECT_DOUBLE_EQ(f.empty_frac, 0.0);
  long long hist_total = 0;
  for (const long long h : f.row_hist) hist_total += h;
  EXPECT_EQ(hist_total, static_cast<long long>(rows));
  EXPECT_EQ(f.row_hist[2], static_cast<long long>(rows));  // len 2 bucket

  // Candidate enumeration and tuning reuse the struct; no extra scan.
  const auto c = autotune::candidate_space(f, 64);
  EXPECT_EQ(sparse::stats_scan_count(), before + 1);
  EXPECT_FALSE(c.empty());
}

// ---------------------------------------------------------------------------
// Serving engine: the autotuned path is bitwise-identical to the
// untuned path, cache hits amortize the trial protocol, and
// re-registration invalidates value-bound tuned entries.

serve::EngineConfig tuned_engine_config() {
  serve::EngineConfig cfg;
  cfg.threads = 2;
  cfg.queue_capacity = 64;
  cfg.batch_window = 1;  // keep requests on the unbatched (tuned) path
  cfg.plan_cache_bytes = 8u << 20;
  cfg.autotune = 1;
  return cfg;
}

TEST(AutotuneServe, TunedPathBitIdenticalToUntunedAcrossRegimes) {
  for (const Regime r : kAllRegimes) {
    SCOPED_TRACE(regime_name(r));
    const auto a = make_regime_matrix(r, 1);
    const auto x = oracle_x(a);
    const auto y_ref = seq_reference(a, x);

    auto run = [&](int autotune_flag) {
      auto cfg = tuned_engine_config();
      cfg.autotune = autotune_flag;
      serve::Engine engine(cfg);
      const auto h = engine.register_matrix(a);
      return engine.submit_spmv(h, x).get().y;
    };
    const auto y_tuned = run(1);
    const auto y_plain = run(0);
    EXPECT_TRUE(bitwise_equal(y_tuned, y_ref));
    EXPECT_TRUE(bitwise_equal(y_tuned, y_plain));
  }
}

TEST(AutotuneServe, TunedPlanCachedAcrossRequests) {
  const auto a = workloads::poisson2d(32, 32);
  const auto x = oracle_x(a);
  serve::Engine engine(tuned_engine_config());
  const auto h = engine.register_matrix(a);
  const auto r1 = engine.submit_spmv(h, x).get();
  EXPECT_FALSE(r1.plan_cache_hit);  // miss: trial protocol ran
  const auto r2 = engine.submit_spmv(h, x).get();
  EXPECT_TRUE(r2.plan_cache_hit);  // hit: tuned entry reused
  EXPECT_TRUE(bitwise_equal(r1.y, r2.y));
  // Steady-state cost only, both times: the trial charge is not
  // re-reported by later requests.
  EXPECT_DOUBLE_EQ(r1.modeled_ms, r2.modeled_ms);
}

TEST(AutotuneServe, ReRegistrationInvalidatesValueBoundTunedEntry) {
  // poisson2d tunes to a format-converted winner whose storage snapshots
  // the registered values; re-registering the same pattern with new
  // values must invalidate it, and the next result must reflect the NEW
  // values (a stale snapshot would reproduce the old ones).
  auto a = workloads::poisson2d(64, 64);
  const auto x = oracle_x(a);
  serve::Engine engine(tuned_engine_config());
  const auto h1 = engine.register_matrix(a);
  const auto y_old = engine.submit_spmv(h1, x).get().y;
  const std::string choice = engine.explain(h1).choice;
  ASSERT_TRUE(choice == "ell" || choice == "cmrs") << choice;

  for (auto& v : a.val) v *= 2.0;
  const auto h2 = engine.register_matrix(a);
  EXPECT_EQ(h1, h2);  // same pattern => same handle, refreshed values
  const auto r = engine.submit_spmv(h2, x).get();
  EXPECT_FALSE(r.plan_cache_hit);  // tuned entry was invalidated
  EXPECT_TRUE(bitwise_equal(r.y, seq_reference(a, x)));
  // Doubling every value exactly doubles every (finite) output.
  ASSERT_EQ(r.y.size(), y_old.size());
  for (std::size_t i = 0; i < r.y.size(); ++i) {
    ASSERT_DOUBLE_EQ(r.y[i], 2.0 * y_old[i]);
  }
}

TEST(AutotuneServe, ReRegistrationKeepsValueFreeTunedEntry) {
  // A hub-dominated matrix tunes to a merge-family winner, whose plan
  // holds only the pattern: a same-pattern re-registration keeps it
  // resident, and the hit must still compute with the NEW values.
  auto a = workloads::powerlaw_web(20000, 0.015, 1.5, 2, /*seed=*/2025);
  const auto x = oracle_x(a);
  serve::Engine engine(tuned_engine_config());
  const auto h1 = engine.register_matrix(a);
  const auto y_old = engine.submit_spmv(h1, x).get().y;
  const auto before = engine.explain(h1);
  ASSERT_TRUE(before.plan_resident);
  ASSERT_FALSE(before.trials.empty());  // the tune really ran
  ASSERT_NE(before.choice, "ell");
  ASSERT_NE(before.choice, "cmrs");

  for (auto& v : a.val) v *= 2.0;
  const auto h2 = engine.register_matrix(a);
  EXPECT_EQ(h1, h2);
  EXPECT_TRUE(engine.explain(h2).plan_resident);
  const auto r = engine.submit_spmv(h2, x).get();
  EXPECT_TRUE(r.plan_cache_hit);  // value-free entry survived
  EXPECT_TRUE(bitwise_equal(r.y, seq_reference(a, x)));
  ASSERT_EQ(r.y.size(), y_old.size());
  for (std::size_t i = 0; i < r.y.size(); ++i) {
    ASSERT_DOUBLE_EQ(r.y[i], 2.0 * y_old[i]);
  }
}

}  // namespace
}  // namespace mps

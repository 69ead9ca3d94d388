#include "autotune/autotune.hpp"

#include <algorithm>
#include <cstring>

#include "baselines/cusplike.hpp"
#include "baselines/formats.hpp"
#include "baselines/rowwise.hpp"
#include "resilience/integrity.hpp"
#include "telemetry/metrics.hpp"
#include "telemetry/span.hpp"
#include "util/env.hpp"
#include "util/error.hpp"

namespace mps::autotune {

namespace {

std::uint64_t pattern_fingerprint(const sparse::CsrD& a) {
  std::uint64_t h = resilience::checksum_bytes(&a.num_rows, sizeof(a.num_rows));
  h = resilience::checksum_bytes(&a.num_cols, sizeof(a.num_cols), h);
  return resilience::checksum_span(std::span<const index_t>(a.row_offsets), h);
}

/// Registry handles cached once; bumps after that are lock-free.
struct TunerMetrics {
  telemetry::Counter& tunes = telemetry::metrics().counter("autotune.tunes");
  telemetry::Counter& trials = telemetry::metrics().counter("autotune.trials");
  telemetry::Counter& nondefault_wins =
      telemetry::metrics().counter("autotune.nondefault_wins");
};

TunerMetrics& tuner_metrics() {
  static TunerMetrics m;
  return m;
}

/// Deterministic probe vector: exact binary fractions so every trial
/// (and every re-tune of the same matrix) computes identical products.
std::vector<double> probe_vector(index_t cols) {
  std::vector<double> x(static_cast<std::size_t>(cols));
  for (std::size_t i = 0; i < x.size(); ++i) {
    x[i] = 0.5 + static_cast<double>(i % 16) * 0.0625;
  }
  return x;
}

/// Candidate 0: the paper's statically tuned merge default.
constexpr Candidate kMergeDefault{Format::kCsr, Kernel::kMergePath, {128, 7},
                                  "merge(128x7)"};

/// The output guard every candidate runs under MPS_INTEGRITY_CHECK: the
/// same check_finite scan spmv_execute runs on a merge winner's y.
/// Returns its modeled ms (0 with guards off).
double guard_output(vgpu::Device& device, const sparse::CsrD& a,
                    std::span<const double> y) {
  if (!resilience::integrity_checks_enabled()) return 0.0;
  return resilience::check_finite(
      device, y.first(static_cast<std::size_t>(a.num_rows)), "autotune: y");
}

/// A non-merge kernel's run as SpmvStats, its output guard included.
core::merge::SpmvStats wrap_format_stats(vgpu::Device& device,
                                         const sparse::CsrD& a,
                                         std::span<const double> y,
                                         double modeled_ms, double wall_ms) {
  core::merge::SpmvStats s;
  s.reduce_ms = modeled_ms;
  s.integrity_ms = guard_output(device, a, y);
  s.wall_ms = wall_ms;
  s.setup_amortized = true;
  return s;
}

}  // namespace

const char* format_name(Format f) {
  switch (f) {
    case Format::kCsr: return "csr";
    case Format::kEll: return "ell";
    case Format::kCmrs: return "cmrs";
  }
  return "?";
}

const char* kernel_name(Kernel k) {
  switch (k) {
    case Kernel::kMergePath: return "merge";
    case Kernel::kRowWise: return "rowwise";
    case Kernel::kCuspLike: return "cusplike";
    case Kernel::kFormatNative: return "native";
  }
  return "?";
}

bool enabled() { return util::env_int("MPS_AUTOTUNE", 0) != 0; }

Features Features::from_stats(const sparse::MatrixStats& s) {
  Features f;
  f.rows = s.rows;
  f.cols = s.cols;
  f.nnz = s.nnz;
  f.avg_row = s.avg_row;
  f.cv_row = s.cv_row();
  f.empty_frac = s.empty_frac();
  f.bandwidth_frac = s.bandwidth_frac;
  f.max_row = s.max_row;
  f.row_hist = s.row_hist;
  return f;
}

Features Features::extract(const sparse::CsrD& a) {
  return from_stats(sparse::compute_stats(a));
}

std::vector<Candidate> candidate_space(const Features& f, int trials) {
  std::vector<Candidate> c;
  // Candidate 0 is the paper's statically tuned merge default — always
  // trialed, so the tuned pick can never be slower than it.
  c.push_back(kMergeDefault);
  if (f.rows > 0 && f.nnz > 0) {
    c.push_back({Format::kCsr, Kernel::kMergePath, {128, 3}, "merge(128x3)"});
    c.push_back({Format::kCsr, Kernel::kMergePath, {128, 16}, "merge(128x16)"});
    c.push_back({Format::kCsr, Kernel::kCuspLike, {}, "cusplike"});
    c.push_back({Format::kCsr, Kernel::kRowWise, {}, "rowwise"});
    // ELL streams the whole padded rectangle: admissible only when the
    // padding overhead is bounded.
    const double padded = static_cast<double>(f.max_row) *
                          static_cast<double>(f.rows);
    if (f.max_row > 0 && padded <= 1.5 * static_cast<double>(f.nnz)) {
      c.push_back({Format::kEll, Kernel::kFormatNative, {}, "ell"});
    }
    // CMRS targets the short-row regime where per-row kernels pay the
    // transaction floor and merge pays its offsets window per row.
    if (f.avg_row <= 32.0) {
      c.push_back({Format::kCmrs, Kernel::kFormatNative, {}, "cmrs"});
    }
  }
  const std::size_t cap = static_cast<std::size_t>(std::max(1, trials));
  if (c.size() > cap) c.resize(cap);
  return c;
}

TunedPlan::TunedPlan(vgpu::Device& device, const sparse::CsrD& a,
                     int trials) {
  telemetry::ScopedSpan tune_span("autotune.tune");
  tuner_metrics().tunes.add();
  if (trials <= 1) {
    // The merge default is the whole list: build its plan and skip the
    // feature pass, the fingerprint (spmv_execute guards merge winners)
    // and the trial, so the launches are exactly spmv_plan's.
    choice_ = kMergeDefault;
    plan_.emplace(core::merge::spmv_plan(device, a, choice_.cfg));
    tune_ms_ = plan_->plan_ms();
    tune_span.end(choice_.name);
    return;
  }
  features_ = Features::extract(a);
  num_rows_ = a.num_rows;
  num_cols_ = a.num_cols;
  nnz_ = static_cast<index_t>(a.nnz());
  offsets_fingerprint_ = pattern_fingerprint(a);
  val_data_ = a.val.data();
  val_size_ = a.val.size();

  const auto candidates = candidate_space(features_, trials);
  const auto x = probe_vector(a.num_cols);
  std::vector<double> y_ref;  ///< candidate 0's probe output
  std::vector<double> y(static_cast<std::size_t>(a.num_rows));

  std::size_t best = 0;
  double best_rank_ms = 0.0;
  for (std::size_t i = 0; i < candidates.size(); ++i) {
    const Candidate& cand = candidates[i];
    telemetry::ScopedSpan trial_span("autotune.trial");
    tuner_metrics().trials.add();
    core::merge::SpmvStats st;
    std::optional<core::merge::SpmvPlan> plan;
    std::optional<sparse::EllMatrix<double>> ell;
    std::optional<sparse::CmrsD> cmrs;
    switch (cand.kernel) {
      case Kernel::kMergePath: {
        plan.emplace(core::merge::spmv_plan(device, a, cand.cfg));
        tune_ms_ += plan->plan_ms();  // build cost is tuning cost
        st = core::merge::spmv_execute(device, a, x, y, *plan);
        break;
      }
      case Kernel::kRowWise: {
        const auto s = baselines::rowwise::spmv(device, a, x, y);
        st = wrap_format_stats(device, a, y, s.modeled_ms, s.wall_ms);
        break;
      }
      case Kernel::kCuspLike: {
        const auto s = baselines::cusplike::spmv(device, a, x, y);
        st = wrap_format_stats(device, a, y, s.modeled_ms, s.wall_ms);
        break;
      }
      case Kernel::kFormatNative: {
        if (cand.format == Format::kEll) {
          ell.emplace(sparse::csr_to_ell(a));
        } else {
          cmrs.emplace(sparse::csr_to_cmrs(a));
        }
        const auto s = ell ? baselines::formats::spmv_ell(device, *ell, x, y)
                           : baselines::formats::spmv_cmrs(device, *cmrs, x, y);
        st = wrap_format_stats(device, a, y, s.modeled_ms, s.wall_ms);
        break;
      }
    }
    // trial_ms is what the served plan pays, guards included; rank_ms
    // leaves them out, so the winner does not depend on
    // MPS_INTEGRITY_CHECK.
    const double trial_ms = st.modeled_ms();
    const double rank_ms = st.kernel_ms();
    tune_ms_ += trial_ms;
    trials_.push_back({cand.name, trial_ms});
    if (i == 0) {
      y_ref = y;
    } else {
      // The whole candidate space shares the canonical accumulation
      // order — a probe divergence means a kernel broke the contract.
      MPS_CHECK_MSG(y.size() == y_ref.size() &&
                        std::memcmp(y.data(), y_ref.data(),
                                    y.size() * sizeof(double)) == 0,
                    "autotune: candidate diverged from canonical output");
    }
    if (i == 0 || rank_ms < best_rank_ms) {
      best = i;
      best_rank_ms = rank_ms;
      choice_ = cand;
      plan_ = std::move(plan);
      ell_ = std::move(ell);
      cmrs_ = std::move(cmrs);
    }
  }
  steady_ms_ = trials_[best].modeled_ms;
  if (best != 0) tuner_metrics().nondefault_wins.add();
  tune_span.end(choice_.name);
}

std::size_t TunedPlan::bytes() const {
  // A one-candidate plan is the bare merge default: charge exactly its
  // SpmvPlan, so an autotune-off cache holds what it always held.
  if (trials_.empty()) return plan_->bytes();
  std::size_t b = sizeof(TunedPlan) + trials_.capacity() * sizeof(Trial);
  if (plan_) b += plan_->bytes();
  if (ell_) b += ell_->device_bytes();
  if (cmrs_) b += cmrs_->device_bytes();
  return b;
}

void TunedPlan::check_match(const sparse::CsrD& a) const {
  if (a.num_rows != num_rows_ || a.num_cols != num_cols_ ||
      static_cast<index_t>(a.nnz()) != nnz_ ||
      pattern_fingerprint(a) != offsets_fingerprint_) {
    throw PlanMismatchError(
        "tuned plan executed against a matrix with a different sparsity "
        "pattern");
  }
  if (binds_values() &&
      (a.val.data() != val_data_ || a.val.size() != val_size_)) {
    // Format-converted storage snapshots the values; a moved value
    // buffer means they may be stale.  Re-tune (the serving engine
    // drops value-bound entries on re-registration).
    throw PlanMismatchError(
        "tuned plan's converted storage is bound to a value buffer that "
        "moved; re-tune after updating matrix values");
  }
}

core::merge::SpmvStats TunedPlan::execute(vgpu::Device& device,
                                          const sparse::CsrD& a,
                                          std::span<const double> x,
                                          std::span<double> y,
                                          index_t num_vectors) const {
  // spmv_execute rejects a different pattern with the same error, so a
  // merge winner hashes row_offsets once per execute, not twice.
  if (choice_.kernel != Kernel::kMergePath) {
    check_match(a);
    // The other kernels are single-vector: a block runs one-shot merge.
    if (num_vectors > 1) {
      return core::merge::spmv(device, a, x, y, {}, num_vectors);
    }
  }
  switch (choice_.kernel) {
    case Kernel::kMergePath:
      return core::merge::spmv_execute(device, a, x, y, *plan_, num_vectors);
    case Kernel::kRowWise: {
      const auto s = baselines::rowwise::spmv(device, a, x, y);
      return wrap_format_stats(device, a, y, s.modeled_ms, s.wall_ms);
    }
    case Kernel::kCuspLike: {
      const auto s = baselines::cusplike::spmv(device, a, x, y);
      return wrap_format_stats(device, a, y, s.modeled_ms, s.wall_ms);
    }
    case Kernel::kFormatNative: {
      const auto s = ell_ ? baselines::formats::spmv_ell(device, *ell_, x, y)
                          : baselines::formats::spmv_cmrs(device, *cmrs_, x, y);
      return wrap_format_stats(device, a, y, s.modeled_ms, s.wall_ms);
    }
  }
  throw Error("autotune: unreachable kernel kind");
}

TunedPlan tune(vgpu::Device& device, const sparse::CsrD& a) {
  return TunedPlan(device, a);
}

}  // namespace mps::autotune

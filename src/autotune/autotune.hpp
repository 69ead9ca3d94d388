#pragma once
// Adaptive SpMV format/kernel autotuner (docs/autotuning.md).
//
// The merge-path kernel is the repo's statically-tuned default: its
// nonzero-granularity decomposition is never pathological, which is the
// paper's whole argument.  But "never pathological" is not "always
// fastest" — on perfectly uniform matrices a format kernel (ELL, CMRS)
// streams the same bytes without merge's segmented-scan traffic, and an
// unusual aspect ratio can prefer a different tile.  The autotuner
// closes that gap the way Su/Keutzer's clSpMV and Li's SMAT do
// (PAPERS.md): extract cheap structural features, enumerate a small
// candidate space of (format, kernel, tile) triples, run each candidate
// once on the virtual GPU, and keep the winner.
//
// Everything is deterministic: features come from one compute_stats
// pass, candidates are enumerated in a fixed order, trials measure
// *modeled* time (bit-stable), and ties break toward the earlier
// candidate.  Candidate 0 is always the static merge-path default, so
// the tuned choice is never slower than the default in modeled time —
// by construction, not by luck.
//
// Every candidate produces bitwise-identical y: all kernels in the
// space accumulate each row's products in ascending-k order and write
// the row once (the canonical order tests/oracle.hpp pins down), so
// tuning can never change a result, only its cost.
//
// Env knob: MPS_AUTOTUNE=1 enables tuned dispatch in the serving engine
// and the iterative drivers (default off).

#include <array>
#include <cstdint>
#include <limits>
#include <memory>
#include <optional>
#include <span>
#include <string>
#include <vector>

#include "core/spmv.hpp"
#include "sparse/cmrs.hpp"
#include "sparse/csr.hpp"
#include "sparse/ell.hpp"
#include "sparse/stats.hpp"
#include "vgpu/device.hpp"

namespace mps::autotune {

enum class Format { kCsr, kEll, kCmrs };
enum class Kernel { kMergePath, kRowWise, kCuspLike, kFormatNative };

const char* format_name(Format f);
const char* kernel_name(Kernel k);

/// True when MPS_AUTOTUNE is set to a nonzero value (default off).
bool enabled();

/// Candidate cap that keeps the whole feature-gated list.
inline constexpr int kAllCandidates = std::numeric_limits<int>::max();

/// The structural feature vector — a cheap projection of
/// sparse::MatrixStats (one fused pass over the matrix; the nnz/row
/// histogram is read from the cached field, never recomputed).
struct Features {
  index_t rows = 0;
  index_t cols = 0;
  long long nnz = 0;
  double avg_row = 0.0;
  double cv_row = 0.0;          ///< row-length coefficient of variation
  double empty_frac = 0.0;      ///< fraction of empty rows
  double bandwidth_frac = 0.0;  ///< mean |col-row| / num_cols
  index_t max_row = 0;
  std::array<long long, sparse::kRowHistBuckets> row_hist{};

  static Features from_stats(const sparse::MatrixStats& s);
  /// One compute_stats call (exactly one row-offset scan).
  static Features extract(const sparse::CsrD& a);
};

/// One point of the candidate space.
struct Candidate {
  Format format = Format::kCsr;
  Kernel kernel = Kernel::kMergePath;
  core::merge::SpmvConfig cfg{};  ///< tile geometry (merge kernels)
  const char* name = "";          ///< stable display name
};

/// The feature-gated candidate list, in trial order.  Entry 0 is always
/// the static merge-path default; format candidates appear only inside
/// their applicability envelope (ELL: bounded padding; CMRS: short-row
/// regime).  `trials` caps the list length (clamped to >= 1).
std::vector<Candidate> candidate_space(const Features& f, int trials);

/// Outcome of one candidate trial (kept for reporting).
struct Trial {
  const char* name = "";
  double modeled_ms = 0.0;
};

/// A tuned execution plan: the winning candidate plus whatever storage
/// it needs resident (a merge SpmvPlan, or the converted ELL/CMRS
/// matrix).  Like SpmvPlan it is pattern-fingerprinted; unlike SpmvPlan
/// the format-converted storage also binds to the source matrix's value
/// buffer (ELL reorders values; CMRS aliases them), so execute()
/// additionally rejects a matrix whose value storage moved —
/// re-tune (or let the serving engine invalidate) after updating
/// values.  Executes are const and safe to run concurrently.
/// `trials` caps the candidate list; a cap of 1 builds the merge
/// default's SpmvPlan with no feature pass and no trial (it launches
/// exactly what spmv_plan launches — the serving engine's autotune-off
/// plans).
class TunedPlan {
 public:
  TunedPlan(vgpu::Device& device, const sparse::CsrD& a,
            int trials = kAllCandidates);

  const Candidate& choice() const { return choice_; }
  /// The extracted features (all zero under a cap of 1).
  const Features& features() const { return features_; }
  /// Every trial that ran, in candidate order (none under a cap of 1).
  const std::vector<Trial>& trials() const { return trials_; }
  /// One-time tuning cost: every trial's modeled kernel time plus the
  /// winner's plan-build cost.  Never included in execute()'s stats —
  /// the oracle suite asserts it cannot leak into steady state.
  double tune_ms() const { return tune_ms_; }
  /// The winner's modeled per-apply cost from its trial (0 if none ran).
  double steady_ms() const { return steady_ms_; }
  /// Resident footprint: winner's plan arrays or converted storage plus
  /// the decision record; exactly SpmvPlan::bytes() under a cap of 1.
  /// The serving engine's PlanCache charges entries by this.
  std::size_t bytes() const;
  /// True for ELL/CMRS winners, whose storage binds the source matrix's
  /// value buffer: a re-registration that replaces values must drop them.
  bool binds_values() const { return ell_.has_value() || cmrs_.has_value(); }

  /// y = A x through the tuned choice.  Throws PlanMismatchError when
  /// `a` does not match the tuned pattern fingerprint (or, for
  /// format-converted winners, when its value buffer moved); merge
  /// winners rely on spmv_execute's own pattern guard.  Output is
  /// bitwise-identical to every other kernel in the candidate space.
  core::merge::SpmvStats execute(vgpu::Device& device, const sparse::CsrD& a,
                                 std::span<const double> x,
                                 std::span<double> y) const;

 private:
  void check_match(const sparse::CsrD& a) const;

  Candidate choice_;
  Features features_;
  std::vector<Trial> trials_;
  double tune_ms_ = 0.0;
  double steady_ms_ = 0.0;

  // Pattern fingerprint (same guard contract as SpmvPlan).
  index_t num_rows_ = 0;
  index_t num_cols_ = 0;
  index_t nnz_ = 0;
  std::uint64_t offsets_fingerprint_ = 0;
  // Value-buffer binding, used only by format-converted winners.
  const double* val_data_ = nullptr;
  std::size_t val_size_ = 0;

  std::optional<core::merge::SpmvPlan> plan_;      ///< merge winners
  std::optional<sparse::EllMatrix<double>> ell_;   ///< ELL winner
  std::optional<sparse::CmrsD> cmrs_;              ///< CMRS winner
};

/// Run the trial protocol for `a` and return the winning plan.
/// Deterministic: the same matrix always tunes to the same choice.
TunedPlan tune(vgpu::Device& device, const sparse::CsrD& a);

}  // namespace mps::autotune

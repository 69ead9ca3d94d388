// Roofline attribution for SpMV over the paper (Figure 5) suite: for
// each matrix, run the merge-path kernel and the two baseline schemes
// with the profiler enabled and report two bandwidth fractions
// (telemetry::Profiler, docs/observability.md):
//
//   util   — charged bytes / peak-capacity bytes, the profiler's
//            achieved_frac(): how busy the memory system was.
//   useful — ALGORITHMIC bytes / peak-capacity bytes: the fraction of
//            peak bandwidth spent moving data the computation actually
//            needed (CSR arrays once, x gathers, y writes).
//
// The two split the schemes exactly the way the paper's Figure 5 does.
// Merge-path SpMV moves ~the algorithmic bytes and streams them at near
// peak, so BOTH fractions are high on every regime — that is the
// bandwidth-bound claim, machine-checked.  The row-wise vendor-style
// kernel keeps its memory system busy too (high util), but on skewed
// matrices most of that traffic is waste — transaction padding on short
// rows and the serialization of CTAs pinned behind their longest row —
// so its USEFUL fraction collapses below the roofline threshold.
//
// Validation (the bench exits non-zero on violation; enforced at scale
// >= 0.2 — below that the matrices are too small to fill the modeled
// device and every scheme's absolute fraction collapses, so the table
// is reported without enforcement):
//   * merge useful fraction >= 0.30 on EVERY matrix;
//   * the dominant merge.spmv_reduce kernel never enters the profiler's
//     below-roofline list;
//   * on every skewed matrix (row-length CV >= 1) the rowwise useful
//     fraction falls below 0.75x merge's — the waste criterion;
//   * every scheme's launches were attributed (phase axis).
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <string>
#include <vector>

#include "analysis/bench_json.hpp"
#include "analysis/experiment.hpp"
#include "baselines/cusplike.hpp"
#include "baselines/rowwise.hpp"
#include "baselines/seq.hpp"
#include "core/spmv.hpp"
#include "telemetry/profile.hpp"
#include "util/rng.hpp"
#include "util/table.hpp"
#include "workloads/suite.hpp"

namespace {

using namespace mps;

/// Coefficient of variation of the row lengths — the skew axis the
/// row-wise scheme is sensitive to (Table II's "std" column, recomputed
/// on the scaled matrix actually run).
double row_cv(const sparse::CsrD& a) {
  if (a.num_rows == 0) return 0.0;
  const double n = static_cast<double>(a.num_rows);
  const double mean = static_cast<double>(a.nnz()) / n;
  if (mean <= 0.0) return 0.0;
  double ss = 0.0;
  for (index_t r = 0; r < a.num_rows; ++r) {
    const double len =
        static_cast<double>(a.row_offsets[static_cast<std::size_t>(r) + 1] -
                            a.row_offsets[static_cast<std::size_t>(r)]);
    ss += (len - mean) * (len - mean);
  }
  return std::sqrt(ss / n) / mean;
}

/// The bytes a CSR fp64 SpMV must move regardless of schedule: val+col
/// once, the offsets array, one gathered x element per nonzero, one y
/// write per row.  The roofline numerator for the "useful" fraction.
double useful_spmv_bytes(const sparse::CsrD& a) {
  const double nnz = static_cast<double>(a.nnz());
  const double rows = static_cast<double>(a.num_rows);
  return nnz * static_cast<double>(sizeof(double) + sizeof(index_t)) +
         (rows + 1.0) * static_cast<double>(sizeof(index_t)) +
         nnz * static_cast<double>(sizeof(double)) +  // x gathers
         rows * static_cast<double>(sizeof(double));  // y writes
}

}  // namespace

int main() {
  const auto cfg = analysis::bench_config(/*default_scale=*/1.0);
  analysis::print_system_config(vgpu::gtx_titan(), cfg);
  auto& prof = telemetry::profiler();
  const double threshold = prof.roofline_frac();
  const double kSkewCv = 1.0;
  // Calibrated at scale 0.2 (merge useful minimum 0.34, on Dense) and
  // 1.0 (minimum 0.61); skewed rowwise/merge useful ratios are <= 0.65
  // at both scales while every non-skewed ratio stays >= 0.73.
  const double kMergeUsefulFloor = 0.30;
  const double kWasteRatio = 0.75;
  const bool enforce = cfg.scale >= 0.2;

  util::Table t("Roofline: SpMV bandwidth fractions, useful (util), "
                "threshold " + util::fmt(threshold, 2) + " on useful");
  t.set_header({"Matrix", "nnz", "row CV", "merge", "rowwise", "cusp",
                "merge f/B", "verdict"});
  analysis::BenchJson report("roofline_spmv");
  report.add_stat("scale", cfg.scale);
  report.add_stat("roofline_frac", threshold);

  std::vector<std::string> violations;
  const auto check = [&violations](bool ok, std::string what) {
    if (!ok) violations.push_back(std::move(what));
  };

  int skewed = 0, rowwise_flagged = 0;
  for (const auto& e : workloads::paper_suite(cfg.scale)) {
    const auto& a = e.matrix;
    vgpu::Device dev;
    util::Rng rng(17);
    std::vector<double> x(static_cast<std::size_t>(a.num_cols));
    for (auto& v : x) v = rng.uniform_double(-1, 1);
    std::vector<double> y_ref(static_cast<std::size_t>(a.num_rows));
    baselines::seq::spmv(a, x, y_ref);
    std::vector<double> y(y_ref.size());

    prof.clear();
    prof.enable();
    {
      telemetry::ProfAttr attr;
      attr.phase = "merge";
      telemetry::ProfAttrScope scope(attr);
      core::merge::spmv(dev, a, x, y);
    }
    double err = 0.0;
    for (std::size_t i = 0; i < y.size(); ++i)
      err = std::max(err, std::abs(y[i] - y_ref[i]));
    check(err < 1e-8, e.name + ": merge spmv mismatch");
    {
      telemetry::ProfAttr attr;
      attr.phase = "rowwise";
      telemetry::ProfAttrScope scope(attr);
      baselines::rowwise::spmv(dev, a, x, y);
    }
    {
      telemetry::ProfAttr attr;
      attr.phase = "cusp";
      telemetry::ProfAttrScope scope(attr);
      baselines::cusplike::spmv(dev, a, x, y);
    }
    prof.disable();

    const auto rep = prof.report();
    const auto merge_it = rep.by_phase.find("merge");
    const auto row_it = rep.by_phase.find("rowwise");
    const auto cusp_it = rep.by_phase.find("cusp");
    if (merge_it == rep.by_phase.end() || row_it == rep.by_phase.end() ||
        cusp_it == rep.by_phase.end()) {
      std::fprintf(stderr, "BENCH VALIDATION FAILED: %s: profiler missed a "
                   "scheme's launches\n", e.name.c_str());
      return 2;
    }
    const double useful = useful_spmv_bytes(a);
    const auto fracs = [useful](const telemetry::RooflineAgg& agg) {
      return std::pair<double, double>(
          agg.capacity_bytes > 0.0 ? useful / agg.capacity_bytes : 0.0,
          agg.achieved_frac());
    };
    const auto [merge_useful, merge_util] = fracs(merge_it->second);
    const auto [row_useful, row_util] = fracs(row_it->second);
    const auto [cusp_useful, cusp_util] = fracs(cusp_it->second);
    const double cv = row_cv(a);

    // The reduce kernel may never sit below the roofline in
    // charged-traffic terms either.  (One-shot merge is that one launch;
    // its per-CTA fence searches are binary-search bound but tiny, and
    // the phase-level useful fraction is what the paper's claim covers.)
    const bool is_skewed = cv >= kSkewCv;
    const bool row_wasteful = row_useful < kWasteRatio * merge_useful;
    if (enforce) {
      for (const auto& op : rep.below_roofline) {
        check(op != "merge.spmv_reduce",
              e.name + ": merge reduce kernel fell below the roofline");
      }
      check(merge_useful >= kMergeUsefulFloor,
            e.name + ": merge useful fraction " + util::fmt(merge_useful, 3) +
                " below floor " + util::fmt(kMergeUsefulFloor, 2));
      if (is_skewed) {
        // The paper's Figure 5 story, quantified: on skewed matrices the
        // row-wise kernel burns its bandwidth on transaction padding and
        // longest-row serialization, so the fraction it spends on USEFUL
        // bytes collapses well below merge's.
        check(row_wasteful,
              e.name + ": rowwise useful fraction " +
                  util::fmt(row_useful, 3) + " not below " +
                  util::fmt(kWasteRatio, 2) + "x merge's " +
                  util::fmt(merge_useful, 3) + " despite row CV " +
                  util::fmt(cv, 2));
      }
    }
    if (is_skewed) ++skewed;
    if (row_wasteful) ++rowwise_flagged;

    const auto cell = [](double u, double b) {
      return util::fmt(u, 3) + " (" + util::fmt(b, 2) + ")";
    };
    const char* verdict = row_wasteful
                              ? (is_skewed ? "rowwise wastes bw (skew)"
                                           : "rowwise wastes bw")
                              : "all bandwidth-bound";
    t.add_row({e.name, util::fmt_sep(static_cast<unsigned long long>(a.nnz())),
               util::fmt(cv, 2), cell(merge_useful, merge_util),
               cell(row_useful, row_util), cell(cusp_useful, cusp_util),
               util::fmt(merge_it->second.intensity(), 3), verdict});
    report.add_case(e.name,
                    {{"nnz", static_cast<double>(a.nnz())},
                     {"row_cv", cv},
                     {"merge_useful_frac", merge_useful},
                     {"merge_util_frac", merge_util},
                     {"rowwise_useful_frac", row_useful},
                     {"rowwise_util_frac", row_util},
                     {"cusp_useful_frac", cusp_useful},
                     {"merge_intensity", merge_it->second.intensity()}});
  }
  prof.clear();
  check(skewed > 0, "suite has no skewed matrices — skew leg never ran");
  report.add_stat("skewed_matrices", static_cast<double>(skewed));
  report.add_stat("rowwise_flagged", static_cast<double>(rowwise_flagged));
  report.add_stat("enforced", enforce ? 1.0 : 0.0);

  analysis::emit(t, "roofline_spmv");
  report.write();
  if (!enforce) {
    std::printf("\n(scale %.3g < 0.2: matrices too small to fill the device;"
                " roofline thresholds reported but not enforced)\n",
                cfg.scale);
  }
  std::printf("\nroofline: merge useful fraction >= %.2f on every matrix; "
              "rowwise flagged wasteful on %d (all %d skewed ones among "
              "them)\n", kMergeUsefulFloor, rowwise_flagged, skewed);
  std::puts("Expected shape (paper): merge-path SpMV is bandwidth-bound on "
            "every regime; the row-wise kernel degrades exactly on the "
            "high-variance (Webbase/LP-like) matrices.");
  if (!violations.empty()) {
    for (const auto& v : violations)
      std::fprintf(stderr, "BENCH VALIDATION FAILED: %s\n", v.c_str());
    return 2;
  }
  return 0;
}

#pragma once
// Shared runners that execute one kernel family (SpMV / SpAdd / SpGEMM)
// across the Table II suite with all three schemes, returning raw rows
// for the figure binaries to format.

#include <string>
#include <vector>

#include "core/spgemm.hpp"
#include "workloads/suite.hpp"

namespace mps::bench {

/// Bench self-validation: unless `ok`, print "BENCH VALIDATION FAILED:
/// <what>" to stderr and exit(2).
void require(bool ok, const std::string& what);

struct SpmvRow {
  std::string name;
  long long nnz = 0;
  double cusp_ms = 0.0;
  double rowwise_ms = 0.0;
  double merge_ms = 0.0;
  /// Plan-reuse split of merge_ms: one-time partition/compaction cost and
  /// the steady-state per-apply cost (merge_plan_ms + merge_exec_ms ==
  /// merge_ms up to rounding).
  double merge_plan_ms = 0.0;
  double merge_exec_ms = 0.0;
  /// Resilience accounting for the merge exec run: modeled guard time
  /// (exactly 0.0 unless MPS_INTEGRITY_CHECK is set) and the process-wide
  /// recovery-counter deltas observed while this row ran.
  double integrity_ms = 0.0;
  long long integrity_failures = 0;
  long long restores = 0;
  /// Autotuned steady-state apply (MPS_AUTOTUNE=1 only; -1 when the tuner
  /// is off).  The runner requires the tuned result bitwise-identical to
  /// the planned merge run and never slower than it (candidate 0 of the
  /// trial protocol IS the static merge default, so this holds by
  /// construction — the require guards against cost-model regressions).
  double auto_ms = -1.0;
  std::string auto_choice;
};

/// y = A x per matrix; results are verified against the sequential
/// reference before timing is reported.  The merge scheme additionally
/// runs through the SpmvPlan path, which must be bit-identical.
std::vector<SpmvRow> run_spmv_suite(const std::vector<workloads::SuiteEntry>& suite);

struct SpaddRow {
  std::string name;
  long long work = 0;  ///< |A| + |B| (the paper's Fig 8 x-axis)
  double cpu_ms = 0.0;
  double cusp_ms = 0.0;
  double rowwise_ms = 0.0;
  double merge_ms = 0.0;
};

/// C = A + A per matrix (the paper's Fig 7 workload).
std::vector<SpaddRow> run_spadd_suite(const std::vector<workloads::SuiteEntry>& suite);

struct SpgemmRow {
  std::string name;
  long long products = 0;  ///< Fig 10's x-axis
  double cpu_ms = 0.0;
  double cusp_ms = 0.0;     ///< < 0 when OOM
  double rowwise_ms = 0.0;
  double merge_ms = 0.0;    ///< < 0 when OOM
  bool cusp_oom = false;
  bool merge_oom = false;
  core::merge::SpgemmPhases merge_phases;
};

/// C = A x A per matrix (A x A^T for LP).  Schemes whose *native-scale*
/// intermediate would exceed the 6 GiB device are reported OOM, matching
/// the paper's missing Dense bars (see DESIGN.md).
std::vector<SpgemmRow> run_spgemm_suite(const std::vector<workloads::SuiteEntry>& suite);

}  // namespace mps::bench

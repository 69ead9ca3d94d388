#pragma once
// Shared pieces of the repository benchmark (see README.md): options,
// the report every workload fills, clocks, percentiles, result checks
// and seed-derived input vectors.

#include <cstdint>
#include <map>
#include <string>
#include <utility>
#include <vector>

#include "sparse/csr.hpp"

namespace perfbench {

/// The pinned suite scale: the ROADMAP's win conditions are stated at
/// the CI scale, so every workload runs there.
inline constexpr double kScale = 0.05;

/// Set-ups per run; setup_s is their median.
inline constexpr int kSetupReps = 7;

/// Thread layout.  `kernels` runs the client and a vgpu pool of
/// min(nproc, kKernelsPoolMax) threads; the serving workloads run the
/// client, the engine's dispatcher and kEngineWorkers workers on a
/// kServePool-thread vgpu pool.
inline constexpr unsigned kKernelsPoolMax = 4;
inline constexpr unsigned kEngineWorkers = 2;
inline constexpr unsigned kEngineDispatchers = 1;
inline constexpr unsigned kServePool = 1;

struct Options {
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = 10.0;
  bool trace = false;
  std::string work_dir = ".";
};

/// Everything one run reports.  `metrics` holds the end-to-end metrics
/// of a timed run or the per-layer metrics of a traced run; `info`
/// holds counts and settings printed beside them.
struct Report {
  long long attempted = 0;
  long long succeeded = 0;
  long long failed = 0;
  bool model_repeatable = true;  ///< repeated modeled work summed to the same bits
  std::uint64_t trace_digest = 0;
  std::vector<std::pair<std::string, double>> metrics;
  std::vector<std::pair<std::string, double>> info;
  /// Per-layer values a traced run measured; layers the workload
  /// bypasses stay absent and are reported as 0.
  std::map<std::string, double> layer;
  void metric(const std::string& name, double v) { metrics.emplace_back(name, v); }
  void note(const std::string& name, double v) { info.emplace_back(name, v); }
};

/// Counts, latencies and clocks of one timed phase.  A phase is a run of
/// blocks (a kernels cycle, a serving stream block); the wall-side
/// end-to-end metrics are medians over its blocks, so a stall of the
/// shared host during one block does not move them.
struct Phase {
  long long attempted = 0;
  long long succeeded = 0;
  long long failed = 0;
  std::vector<double> latency_ms;
  double wall_s = 0.0;
  double cpu_s = 0.0;
  /// Per-block throughput (ops/s), CPU ms per op, p50 and p99 (ms).
  std::vector<double> block_tput;
  std::vector<double> block_cpu;
  std::vector<double> block_p50;
  std::vector<double> block_p99;

  /// Close the block that started at sample `first_sample`, with its
  /// completed ops, wall and CPU seconds.
  void close_block(std::size_t first_sample, long long done, double wall, double cpu);
};

/// Seconds on the monotonic clock.
double now_s();
/// CPU seconds consumed by every thread of the process.
double process_cpu_s();
/// Start the timed phase's memory peak: hand freed heap back to the
/// system and reset the process's resident high-water mark to its
/// current resident set, so peak_rss_mb() covers only what follows
/// (the seq:: references built before stay resident and are included).
/// False when the kernel refused the reset.
bool reset_peak_rss();
/// Resident high-water mark of the process (VmHWM), MiB.
double peak_rss_mb();

/// Switch the program's span tracer and profiler on or off together.
void set_tracing(bool on);

/// Bitwise equality of two result vectors / matrices.
bool same_bits(const std::vector<double>& a, const std::vector<double>& b);
bool same_bits(const mps::sparse::CsrD& a, const mps::sparse::CsrD& b);

/// Reference for C = A x B.  Merge SpGEMM groups partial sums per CTA
/// tile, so its values differ from Gustavson's (seq::spgemm) in the last
/// bits; its contract is the repository oracle's (tests/oracle.hpp):
/// identical structure, values within 1e-9 relative + 1e-11 absolute.
/// This checks the flat merge result against seq::spgemm under that
/// contract and returns it in `merge`: every later SpGEMM (repeated,
/// sharded, served) must then match it bit for bit.  False when the
/// flat result breaks the contract.
bool spgemm_reference(const mps::sparse::CsrD& a, const mps::sparse::CsrD& b,
                      mps::sparse::CsrD& merge);

/// Seed-derived input vector for `a` (values in [-1, 1)).
std::vector<double> make_x(const mps::sparse::CsrD& a, std::uint64_t seed);

/// Independent stream seed for (run seed, salt).
std::uint64_t mix_seed(std::uint64_t seed, std::uint64_t salt);

/// FNV-1a step, for the trace digest.
std::uint64_t fnv(std::uint64_t h, std::uint64_t v);

/// The end-to-end metrics every workload reports, in BENCHMARK.json order.
void add_end_to_end(Report& r, const Phase& p, double setup_s,
                    double model_us_per_op);

/// Fold a phase's counts into the report's op totals.
void count_ops(Report& r, const Phase& p);

void run_kernels(const Options& opt, Report& r);
void run_serve(const Options& opt, Report& r, bool fleet);

}  // namespace perfbench

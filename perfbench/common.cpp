#include "common.hpp"

#include <malloc.h>

#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstring>
#include <ctime>
#include <fstream>
#include <stdexcept>
#include <string>

#include "baselines/seq.hpp"
#include "core/spgemm.hpp"
#include "sparse/compare.hpp"
#include "telemetry/profile.hpp"
#include "telemetry/span.hpp"
#include "util/rng.hpp"
#include "util/stats.hpp"
#include "vgpu/device.hpp"

namespace perfbench {

double now_s() {
  return std::chrono::duration<double>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

double process_cpu_s() {
  timespec ts{};
  clock_gettime(CLOCK_PROCESS_CPUTIME_ID, &ts);
  return static_cast<double>(ts.tv_sec) + static_cast<double>(ts.tv_nsec) * 1e-9;
}

bool reset_peak_rss() {
  malloc_trim(0);
  // "5" resets VmHWM to the current resident set (Linux >= 4.0).
  std::ofstream clear("/proc/self/clear_refs");
  clear << "5";
  clear.close();
  return !clear.fail();
}

double peak_rss_mb() {
  std::ifstream status("/proc/self/status");
  std::string line;
  while (std::getline(status, line)) {
    if (line.rfind("VmHWM:", 0) == 0) return std::stod(line.substr(6)) / 1024.0;  // kB
  }
  throw std::runtime_error("VmHWM missing from /proc/self/status");
}

void set_tracing(bool on) {
  if (on) {
    mps::telemetry::profiler().enable();
    mps::telemetry::tracer().enable();
  } else {
    mps::telemetry::tracer().disable();
    mps::telemetry::profiler().disable();
  }
}

bool same_bits(const std::vector<double>& a, const std::vector<double>& b) {
  return a.size() == b.size() &&
         (a.empty() || std::memcmp(a.data(), b.data(), a.size() * sizeof(double)) == 0);
}

bool same_bits(const mps::sparse::CsrD& a, const mps::sparse::CsrD& b) {
  return a.num_rows == b.num_rows && a.num_cols == b.num_cols &&
         a.row_offsets == b.row_offsets && a.col == b.col && same_bits(a.val, b.val);
}

bool spgemm_reference(const mps::sparse::CsrD& a, const mps::sparse::CsrD& b,
                      mps::sparse::CsrD& merge) {
  const mps::sparse::CsrD seq = mps::baselines::seq::spgemm(a, b);
  mps::vgpu::Device device;
  mps::core::merge::spgemm(device, a, b, merge);
  return merge.row_offsets == seq.row_offsets && merge.col == seq.col &&
         mps::sparse::compare_csr(merge, seq, 1e-9, 1e-11).equal;
}

std::vector<double> make_x(const mps::sparse::CsrD& a, std::uint64_t seed) {
  mps::util::Rng rng(seed);
  std::vector<double> x(static_cast<std::size_t>(a.num_cols));
  for (auto& v : x) v = rng.uniform_double(-1.0, 1.0);
  return x;
}

std::uint64_t mix_seed(std::uint64_t seed, std::uint64_t salt) {
  std::uint64_t state = seed * 0x9E3779B97F4A7C15ull + salt;
  return mps::util::splitmix64(state);
}

std::uint64_t fnv(std::uint64_t h, std::uint64_t v) {
  for (int b = 0; b < 64; b += 8) {
    h ^= (v >> b) & 0xff;
    h *= 1099511628211ull;
  }
  return h;
}

void Phase::close_block(std::size_t first_sample, long long done, double wall, double cpu) {
  const std::vector<double> lat(latency_ms.begin() + static_cast<std::ptrdiff_t>(first_sample),
                                latency_ms.end());
  block_tput.push_back(static_cast<double>(done) / wall);
  block_cpu.push_back(done > 0 ? cpu * 1e3 / static_cast<double>(done) : 0.0);
  block_p50.push_back(mps::util::percentile(lat, 50));
  block_p99.push_back(mps::util::percentile(lat, 99));
}

void add_end_to_end(Report& r, const Phase& p, double setup_s,
                    double model_us_per_op) {
  r.metric("setup_s", setup_s);
  r.metric("throughput_ops_s", mps::util::percentile(p.block_tput, 50));
  r.metric("p50_ms", mps::util::percentile(p.block_p50, 50));
  r.metric("p99_ms", mps::util::percentile(p.block_p99, 50));
  r.metric("cpu_ms_per_op", mps::util::percentile(p.block_cpu, 50));
  r.metric("model_us_per_op", model_us_per_op);
  r.metric("peak_rss_mb", peak_rss_mb());
  r.note("latency_samples", static_cast<double>(p.latency_ms.size()));
  r.note("timed_wall_s", p.wall_s);
  r.note("blocks", static_cast<double>(p.block_tput.size()));
  r.note("block_samples", static_cast<double>(p.latency_ms.size()) /
                              static_cast<double>(std::max<std::size_t>(1, p.block_tput.size())));
}

void count_ops(Report& r, const Phase& p) {
  r.attempted += p.attempted;
  r.succeeded += p.succeeded;
  r.failed += p.failed;
}

}  // namespace perfbench

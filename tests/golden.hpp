#pragma once
// Shared machinery of the golden-digest tests (spgemm_golden_test,
// spadd_golden_test): resilience::checksum_bytes digests of a kernel's
// output and of its device log, matched row by row against a recorded
// table.  A mismatching row prints its replacement, so a deliberate
// re-recording is a paste.
#include <gtest/gtest.h>

#include <cstdint>
#include <cstdio>
#include <span>
#include <string>
#include <vector>

#include "resilience/integrity.hpp"
#include "sparse/coo.hpp"
#include "sparse/csr.hpp"
#include "vgpu/device.hpp"

namespace mps::testing {

/// resilience::checksum_bytes chained over a sequence of fields.
class Digest {
 public:
  void bytes(const void* p, std::size_t n) {
    h_ = resilience::checksum_bytes(p, n, h_);
  }
  template <typename T>
  void pod(const T& v) {
    bytes(&v, sizeof(T));
  }
  template <typename T>
  void vec(const std::vector<T>& v) {
    pod(v.size());
    bytes(v.data(), v.size() * sizeof(T));
  }
  std::uint64_t value() const { return h_; }

 private:
  std::uint64_t h_ = resilience::kChecksumSeed;
};

template <typename V>
std::uint64_t csr_digest(const sparse::CsrMatrix<V>& c) {
  Digest d;
  d.pod(c.num_rows);
  d.pod(c.num_cols);
  d.vec(c.row_offsets);
  d.vec(c.col);
  d.vec(c.val);
  return d.value();
}

template <typename V>
std::uint64_t coo_digest(const sparse::CooMatrix<V>& c) {
  Digest d;
  d.pod(c.num_rows);
  d.pod(c.num_cols);
  d.vec(c.row);
  d.vec(c.col);
  d.vec(c.val);
  return d.value();
}

/// Every launch's name, grid, counters and modeled time bits.  Integrity
/// guard scans (MPS_INTEGRITY_CHECK) are left out unless asked for, so a
/// digest holds whether or not the environment enables them.
inline std::uint64_t log_digest(const vgpu::Device& dev,
                                bool with_integrity = false) {
  Digest d;
  for (const auto& k : dev.log()) {
    if (!with_integrity && k.name.rfind("integrity.", 0) == 0) continue;
    d.bytes(k.name.data(), k.name.size());
    d.pod(k.num_ctas);
    d.pod(k.device_cycles);
    d.pod(k.modeled_ms);
    d.pod(k.tail_cycles);
    d.pod(k.totals.global_bytes);
    d.pod(k.totals.gather_bytes);
    d.pod(k.totals.shared_ops);
    d.pod(k.totals.warp_iters);
    d.pod(k.totals.syncs);
    d.pod(k.totals.flops);
  }
  return d.value();
}

/// A device with fault injection off, whatever MPS_FAULT_* says.
inline vgpu::Device clean_golden_device() {
  vgpu::Device dev;
  dev.fault_injector().disarm();
  return dev;
}

struct Golden {
  const char* name;
  std::uint64_t out;  ///< digest of the output
  std::uint64_t log;  ///< digest of the device log
};

/// Compares each case's digests with `want` (matched by name, in order)
/// and prints the table row of every mismatch.
class GoldenTable {
 public:
  explicit GoldenTable(std::span<const Golden> want) : want_(want) {}

  void check(const std::string& name, std::uint64_t out, std::uint64_t log) {
    const Golden* g = next_ < want_.size() ? &want_[next_] : nullptr;
    ++next_;
    if (g == nullptr || name != g->name || out != g->out || log != g->log) {
      char row[160];
      std::snprintf(row, sizeof(row), "{\"%s\", 0x%016llxULL, 0x%016llxULL},",
                    name.c_str(), static_cast<unsigned long long>(out),
                    static_cast<unsigned long long>(log));
      ADD_FAILURE() << "golden mismatch: " << row;
    }
  }
  void check(const std::string& name, const sparse::CsrD& c,
             const vgpu::Device& dev) {
    check(name, csr_digest(c), log_digest(dev));
  }
  ~GoldenTable() { EXPECT_EQ(next_, want_.size()) << "golden row count"; }

 private:
  std::span<const Golden> want_;
  std::size_t next_ = 0;
};

}  // namespace mps::testing

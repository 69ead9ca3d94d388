#pragma once
// Integrity guards against silent data corruption (docs/robustness.md).
//
// The alloc-fault layer (vgpu/fault_injector.hpp) makes *loud* failures
// survivable; this module makes *silent* ones visible.  Three mechanisms,
// all raising mps::IntegrityError through integrity_failed():
//
//   * checksums — an FNV-1a-style hash over raw buffer bytes (see
//     kChecksumSeed).  BufferGuard records the checksums of a set of
//     buffers and re-verifies them later, detecting any bit flip in data
//     that should not have changed (kernel inputs across a call, solver
//     state across a scrub);
//   * scrub — registers a live buffer with the device memory model (a
//     zero-byte reservation carrying the host window), which is where
//     armed MPS_FAULT_BITFLIP_* faults land, and charges the cost model
//     for the read pass.  The scrub → verify pair is the deterministic
//     corruption surface the resilient solver and the corruption sweep
//     are built on;
//   * postcondition checks — device-charged scans asserting that kernel
//     outputs are structurally sane (monotone row offsets, in-range
//     column indices) and finite.  Kernels run them at exit only under
//     MPS_INTEGRITY_CHECK=1; with the knob off the guard is a single
//     predicted-untaken branch and the modeled time is bit-identical.
//
// SpmvPlan's pattern fingerprint and build-state checksum are instances
// of the same machinery (core/spmv_impl.hpp uses checksum_bytes).
//
// Counters (checksum failures detected, scrubs, checkpoint restores,
// plan rebuilds) accumulate process-wide so benchmark tables can report
// the recovery activity of a run (bench/suite_runners.cpp).

#include <cmath>
#include <cstdint>
#include <span>
#include <string>
#include <vector>

#include "sparse/coo.hpp"
#include "sparse/csr.hpp"
#include "util/error.hpp"
#include "vgpu/device.hpp"

namespace mps::resilience {

/// True when MPS_INTEGRITY_CHECK is set to a nonzero value, or — while
/// it is unset — when set_integrity_checks_default(true) was called.
/// Read per call (kernel launches dwarf a getenv), so tests can toggle it.
bool integrity_checks_enabled();

/// The value integrity_checks_enabled() takes while MPS_INTEGRITY_CHECK
/// is unset (initially false).  mps_serve's chaos harness turns it on:
/// bit-flip chaos relies on the guards to turn silent corruption into a
/// retryable IntegrityError, unless the caller chose otherwise.
void set_integrity_checks_default(bool on);

/// Process-wide recovery/detection counters.  Monotone; benches report
/// deltas across a run.
struct Counters {
  long long integrity_failures = 0;   ///< IntegrityError raised by guards
  long long scrubs = 0;               ///< buffers scrubbed through the device
  long long checkpoints = 0;          ///< solver checkpoints taken
  long long checkpoint_restores = 0;  ///< solver rollbacks to a checkpoint
  long long plan_rebuilds = 0;        ///< plans invalidated and rebuilt
};
Counters& counters();

/// Record the failure in counters() and throw IntegrityError.
[[noreturn]] void integrity_failed(const std::string& what);

// ---------------------------------------------------------------------------
// Checksums.

/// The checksum's start value.  It is one digit short of FNV-1a's offset
/// basis (14695981039346656037), so checksum_bytes is FNV-1a-style with
/// a non-standard seed and matches no standard FNV-1a implementation.
/// The value stays: WAL frames and snapshots persist these checksums,
/// and recorded golden digests depend on it.
inline constexpr std::uint64_t kChecksumSeed = 1469598103934665603ull;

/// FNV-1a-style hash over raw bytes (FNV-1a's prime and xor-multiply
/// step, kChecksumSeed as the start value); chain calls through `seed`
/// to cover multiple buffers with one value.
std::uint64_t checksum_bytes(const void* data, std::size_t bytes,
                             std::uint64_t seed = kChecksumSeed);

template <typename T>
std::uint64_t checksum_span(std::span<const T> s,
                            std::uint64_t seed = kChecksumSeed) {
  return checksum_bytes(s.data(), s.size() * sizeof(T), seed);
}

/// Records checksums of a set of named buffers at construction points and
/// re-verifies them later; any drift raises IntegrityError naming the
/// first mismatched buffer.  Spans are held by reference semantics — the
/// guarded storage must outlive the guard and must not reallocate.
class BufferGuard {
 public:
  template <typename T>
  void add(const std::string& name, std::span<const T> s) {
    entries_.push_back({name, s.data(), s.size() * sizeof(T),
                        checksum_bytes(s.data(), s.size() * sizeof(T))});
  }

  /// Re-checksum every guarded buffer; throws IntegrityError on drift.
  void verify() const {
    for (const auto& e : entries_) {
      if (checksum_bytes(e.data, e.bytes) != e.sum) {
        integrity_failed("checksum mismatch in buffer '" + e.name +
                         "' (" + std::to_string(e.bytes) + " B)");
      }
    }
  }

  std::size_t size() const { return entries_.size(); }

 private:
  struct Entry {
    std::string name;
    const void* data;
    std::size_t bytes;
    std::uint64_t sum;
  };
  std::vector<Entry> entries_;
};

// ---------------------------------------------------------------------------
// Scrub: expose a live buffer to the fault layer + charge the read pass.

/// Registers `window` with the device memory model (zero-byte
/// reservation, so accounting and OOM behavior are untouched) — the
/// point where armed bit-flip faults land — and charges the cost model
/// for one streaming read of the buffer.  Returns modeled ms.
double scrub_bytes(vgpu::Device& device, void* window, std::size_t bytes);

template <typename T>
double scrub(vgpu::Device& device, std::span<T> s) {
  return scrub_bytes(device, s.data(), s.size() * sizeof(T));
}

// ---------------------------------------------------------------------------
// Device-charged postcondition checks.  Each returns modeled ms.

/// Charge the cost model for a guard scan over `bytes` (no data touched).
double charge_guard_scan(vgpu::Device& device, std::size_t bytes);

/// All values finite (no NaN/Inf); reports the first offending index.
template <typename V>
double check_finite(vgpu::Device& device, std::span<const V> vals,
                    const char* what) {
  const double ms = charge_guard_scan(device, vals.size() * sizeof(V));
  for (std::size_t i = 0; i < vals.size(); ++i) {
    if (!std::isfinite(vals[i])) {
      integrity_failed(std::string(what) + ": non-finite value at index " +
                       std::to_string(i));
    }
  }
  return ms;
}

/// CSR output postconditions on the host, uncharged: offsets present,
/// starting at 0, monotone, consistent with col/val sizes; columns in
/// range; values finite.
template <typename V>
void verify_csr(const sparse::CsrMatrix<V>& c, const char* what) {
  const std::string w(what);
  if (c.row_offsets.size() != static_cast<std::size_t>(c.num_rows) + 1 ||
      (c.num_rows >= 0 && !c.row_offsets.empty() && c.row_offsets.front() != 0)) {
    integrity_failed(w + ": row offsets malformed");
  }
  for (std::size_t i = 1; i < c.row_offsets.size(); ++i) {
    if (c.row_offsets[i] < c.row_offsets[i - 1]) {
      integrity_failed(w + ": row_offsets[" + std::to_string(i) +
                       "] decreases (" + std::to_string(c.row_offsets[i]) +
                       " after " + std::to_string(c.row_offsets[i - 1]) + ")");
    }
  }
  if (c.col.size() != static_cast<std::size_t>(c.nnz()) ||
      c.val.size() != c.col.size()) {
    integrity_failed(w + ": col/val sizes disagree with nnz");
  }
  for (std::size_t k = 0; k < c.col.size(); ++k) {
    if (c.col[k] < 0 || c.col[k] >= c.num_cols) {
      integrity_failed(w + ": col[" + std::to_string(k) + "] = " +
                       std::to_string(c.col[k]) + " out of range [0, " +
                       std::to_string(c.num_cols) + ")");
    }
    if (!std::isfinite(c.val[k])) {
      integrity_failed(w + ": non-finite value at nonzero " + std::to_string(k));
    }
  }
}

/// verify_csr, charged as a guard scan of the CSR arrays.
template <typename V>
double check_csr(vgpu::Device& device, const sparse::CsrMatrix<V>& c,
                 const char* what) {
  const double ms = charge_guard_scan(device, c.device_bytes());
  verify_csr(c, what);
  return ms;
}

/// COO output postconditions: indices in range, values finite.
template <typename V>
double check_coo(vgpu::Device& device, const sparse::CooMatrix<V>& c,
                 const char* what) {
  const double ms = charge_guard_scan(device, c.device_bytes());
  const std::string w(what);
  for (index_t i = 0; i < c.nnz(); ++i) {
    const auto k = static_cast<std::size_t>(i);
    if (c.row[k] < 0 || c.row[k] >= c.num_rows || c.col[k] < 0 ||
        c.col[k] >= c.num_cols) {
      integrity_failed(w + ": tuple " + std::to_string(i) + " = (" +
                       std::to_string(c.row[k]) + ", " +
                       std::to_string(c.col[k]) + ") out of range for " +
                       std::to_string(c.num_rows) + " x " +
                       std::to_string(c.num_cols));
    }
    if (!std::isfinite(c.val[k])) {
      integrity_failed(w + ": non-finite value at tuple " + std::to_string(i));
    }
  }
  return ms;
}

}  // namespace mps::resilience

#include "resilience/integrity.hpp"

#include <algorithm>
#include <atomic>

#include "telemetry/metrics.hpp"
#include "util/common.hpp"
#include "util/env.hpp"

namespace mps::resilience {

namespace {
std::atomic<bool> integrity_default{false};
}  // namespace

bool integrity_checks_enabled() {
  return util::env_int("MPS_INTEGRITY_CHECK",
                       integrity_default.load(std::memory_order_relaxed)) != 0;
}

void set_integrity_checks_default(bool on) {
  integrity_default.store(on, std::memory_order_relaxed);
}

Counters& counters() {
  static Counters c;
  return c;
}

void integrity_failed(const std::string& what) {
  ++counters().integrity_failures;
  telemetry::metrics().counter("resilience.integrity_failures").add();
  throw IntegrityError("integrity check failed: " + what);
}

std::uint64_t checksum_bytes(const void* data, std::size_t bytes,
                             std::uint64_t seed) {
  const auto* p = static_cast<const std::uint8_t*>(data);
  std::uint64_t h = seed;
  for (std::size_t i = 0; i < bytes; ++i) {
    h ^= p[i];
    h *= 1099511628211ull;
  }
  return h;
}

double charge_guard_scan(vgpu::Device& device, std::size_t bytes) {
  // One streaming pass at full occupancy: each CTA reads a contiguous
  // tile and folds it with a handful of ALU ops per word.
  constexpr std::size_t kTile = 128 * 1024;
  const int num_ctas = static_cast<int>(ceil_div(std::max<std::size_t>(bytes, 1), kTile));
  const std::size_t per_cta = ceil_div(bytes, static_cast<std::size_t>(num_ctas));
  return device
      .launch("integrity.guard_scan", num_ctas, 128,
              [&](vgpu::Cta& cta) {
                const std::size_t lo =
                    std::min(bytes, static_cast<std::size_t>(cta.cta_id()) * per_cta);
                const std::size_t hi = std::min(bytes, lo + per_cta);
                cta.charge_global(hi - lo);
                cta.charge_alu_uniform((hi - lo) / sizeof(std::uint64_t) + 1);
              })
      .modeled_ms;
}

double scrub_bytes(vgpu::Device& device, void* window, std::size_t bytes) {
  ++counters().scrubs;
  telemetry::metrics().counter("resilience.scrubs").add();
  // Zero-byte reservation: accounting and OOM behavior are untouched, but
  // the attached FaultInjector observes the ordinal and the live window —
  // this is where armed MPS_FAULT_BITFLIP_* faults land.
  vgpu::ScopedDeviceAlloc touch(device.memory(), 0, window, bytes);
  return charge_guard_scan(device, bytes);
}

}  // namespace mps::resilience

#pragma once
// Shared pieces of the independent cost formulas (tests/spgemm_cost.hpp,
// tests/spadd_cost.hpp, tests/merge_cost.hpp): per-CTA charges on bare
// counters, the device's kernel launches, and the check that pins every
// launch's name, grid, counters and cycles to a formula.
#include <gtest/gtest.h>

#include <cstdint>
#include <string>
#include <vector>

#include "vgpu/device.hpp"
#include "vgpu/timing.hpp"

namespace mps::testing {

/// One launch of a formula: its name and per-CTA counters.
struct CostLaunch {
  std::string name;
  std::vector<vgpu::CtaCounters> ctas;
};

/// Cta-style charges on bare counters: element and lane counts round up
/// to whole warps per charge.
class Charges {
 public:
  Charges(const vgpu::DeviceProperties& p, vgpu::CtaCounters& c)
      : p_(p), c_(c) {}
  void global(std::uint64_t bytes) { c_.global_bytes += bytes; }
  void gather(std::uint64_t n) { c_.gather_bytes += n * p_.gather_sector_bytes; }
  void shared(std::uint64_t elems) { c_.shared_ops += warps(elems); }
  void alu(std::uint64_t lanes) { c_.warp_iters += warps(lanes); }
  void sync() { c_.syncs += 1; }
  void search(std::uint64_t n) {
    const auto steps = static_cast<std::uint64_t>(log2_ceil(n ? n : 1)) + 1;
    gather(steps);
    c_.warp_iters += steps;
  }

 private:
  std::uint64_t warps(std::uint64_t n) const {
    const auto w = static_cast<std::uint64_t>(p_.warp_size);
    return (n + w - 1) / w;
  }
  const vgpu::DeviceProperties& p_;
  vgpu::CtaCounters& c_;
};

/// The device's launches minus integrity-guard scans, which run only
/// under MPS_INTEGRITY_CHECK.
inline std::vector<vgpu::KernelStats> kernel_launches(const vgpu::Device& dev) {
  std::vector<vgpu::KernelStats> out;
  for (const auto& k : dev.log()) {
    if (k.name.rfind("integrity.", 0) != 0) out.push_back(k);
  }
  return out;
}

/// Every launch on `dev` (integrity scans aside) has the formula's name,
/// grid, counter totals and scheduled cycles, in order.
inline void expect_launches_match(const vgpu::Device& dev,
                                  const std::vector<CostLaunch>& want) {
  const vgpu::DeviceProperties& p = dev.props();
  const auto got = kernel_launches(dev);
  ASSERT_EQ(got.size(), want.size());
  for (std::size_t i = 0; i < got.size(); ++i) {
    SCOPED_TRACE(want[i].name);
    EXPECT_EQ(got[i].name, want[i].name);
    ASSERT_EQ(got[i].num_ctas, static_cast<int>(want[i].ctas.size()));
    vgpu::CtaCounters total;
    std::vector<double> cycles;
    for (const auto& cta : want[i].ctas) {
      total += cta;
      cycles.push_back(cta.cycles(p));
    }
    EXPECT_EQ(got[i].totals.global_bytes, total.global_bytes);
    EXPECT_EQ(got[i].totals.gather_bytes, total.gather_bytes);
    EXPECT_EQ(got[i].totals.shared_ops, total.shared_ops);
    EXPECT_EQ(got[i].totals.warp_iters, total.warp_iters);
    EXPECT_EQ(got[i].totals.syncs, total.syncs);
    EXPECT_EQ(got[i].device_cycles, vgpu::schedule_cycles(p, cycles));
  }
}

}  // namespace mps::testing

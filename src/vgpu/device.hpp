#pragma once
// The virtual GPU device: properties + memory accounting + kernel launch.
//
// Fault injection: the constructor honors the MPS_FAULT_* environment
// knobs (fault_injector.hpp) — MPS_FAULT_CAPACITY caps device capacity,
// MPS_FAULT_ALLOC_N / MPS_FAULT_BYTE_LIMIT arm the attached injector —
// so a whole test run can be swept for exception safety without code
// changes.  Explicitly constructed DeviceProperties with a smaller
// capacity keep their capacity (the cap is a min, not an override).

#include <functional>
#include <memory>
#include <string>
#include <type_traits>
#include <vector>

#include "telemetry/profile.hpp"
#include "telemetry/span.hpp"
#include "util/timer.hpp"
#include "vgpu/counters.hpp"
#include "vgpu/cta.hpp"
#include "vgpu/device_properties.hpp"
#include "vgpu/fault_injector.hpp"
#include "vgpu/memory_model.hpp"
#include "vgpu/thread_pool.hpp"
#include "vgpu/timing.hpp"

namespace mps::vgpu {

class Device {
 public:
  explicit Device(DeviceProperties props = gtx_titan());

  const DeviceProperties& props() const { return props_; }
  MemoryModel& memory() { return memory_; }

  /// The device's fault injector (always present; disarmed by default
  /// unless MPS_FAULT_* armed it at construction).
  FaultInjector& fault_injector() { return *fault_; }

  /// Execute `kernel(Cta&)` for every CTA of a grid.  CTAs run in parallel
  /// on the host pool; modeled time comes from the per-CTA cost counters.
  /// A CTA's counters are local to it until it ends, then stored to its
  /// own slot, so no counter depends on which host thread ran the CTA.
  ///
  /// `kernel` must write disjoint outputs per CTA (as real CUDA kernels in
  /// this codebase do); results and stats are then deterministic.
  ///
  /// Optional `tail(Cta&)`: a serialized fix-up that runs once, on its own
  /// CTA, after every grid CTA has finished — the last-block-done pattern
  /// (each CTA fences its writes and bumps a global done counter; the CTA
  /// that arrives last runs the fix-up).  Each grid CTA is charged its
  /// arrival (one 4-byte global RMW), and the tail's cycles are added
  /// after the makespan, so the launch pays one kernel_launch_cycles
  /// floor, not two.  The tail always runs on the launching thread after
  /// the grid joins, so its charge never depends on which host thread
  /// finished last.  KernelStats::tail_ms reports its share.
  template <typename F, typename T = std::nullptr_t>
  KernelStats launch(const std::string& name, int num_ctas, int block_threads,
                     F&& kernel, T&& tail = nullptr) {
    constexpr bool kHasTail = !std::is_null_pointer_v<std::decay_t<T>>;
    MPS_CHECK(num_ctas >= 0);
    MPS_CHECK(block_threads > 0 && block_threads <= props_.max_cta_threads);
    // Chaos hook: one predictable branch when no schedule is armed (the
    // zero-overhead-when-off contract asserted by bench/serve_throughput).
    // A lost device refuses every launch; a straggler multiplies this
    // launch's modeled latency (tail included) after the cost model runs.
    double chaos_factor = 1.0;
    if (fault_->chaos_armed()) {
      const FaultInjector::LaunchFault f = fault_->on_launch(modeled_total_ms_);
      if (f.lost) {
        throw DeviceLostError("device lost (chaos): refusing launch of \"" +
                              name + "\"");
      }
      chaos_factor = f.factor;
    }
    // Telemetry stamp: the active span context and wall start, read before
    // the CTAs run.  One relaxed atomic load when the tracer is disabled;
    // never charges the cost model either way.
    const bool traced = telemetry::tracer().enabled();
    const telemetry::SpanContext span_ctx =
        traced ? telemetry::current_context() : telemetry::SpanContext{};
    const double start_us = traced ? telemetry::tracer().now_us() : -1.0;
    util::WallTimer wall;
    std::vector<CtaCounters> counters(static_cast<std::size_t>(num_ctas));
    auto run_cta = [&](auto&& fn, int cta_id, int grid, CtaCounters& c) {
      thread_local SharedMemory shm(props_.shared_mem_per_cta);
      if (shm.capacity() != props_.shared_mem_per_cta) {
        shm = SharedMemory(props_.shared_mem_per_cta);
      }
      shm.reset();
      Cta cta(cta_id, grid, block_threads, props_, shm, c);
      fn(cta);
    };
    // Stack-local until the CTA ends: adjacent slots charged by different
    // pool threads on every charge would share cache lines.
    global_pool().parallel_for(
        static_cast<std::size_t>(num_ctas), [&](std::size_t i) {
          CtaCounters c;
          run_cta(kernel, static_cast<int>(i), num_ctas, c);
          if constexpr (kHasTail) {
            c.global_bytes += sizeof(std::uint32_t);  // arrival
          }
          counters[i] = c;
        });

    KernelStats stats;
    stats.name = name;
    stats.num_ctas = num_ctas;
    std::vector<double> cycles(counters.size());
    for (std::size_t i = 0; i < counters.size(); ++i) {
      cycles[i] = counters[i].cycles(props_);
      stats.totals += counters[i];
    }
    const double grid_cycles = schedule_cycles(props_, cycles);
    if constexpr (kHasTail) {
      CtaCounters tail_counters;
      run_cta(tail, 0, 1, tail_counters);
      stats.tail_cycles = tail_counters.cycles(props_);
      stats.totals += tail_counters;
    }
    stats.device_cycles = grid_cycles + stats.tail_cycles;
    stats.tail_ms = props_.cycles_to_ms(stats.tail_cycles);
    stats.modeled_ms = props_.cycles_to_ms(grid_cycles) + stats.tail_ms;
    if (chaos_factor != 1.0) {
      stats.device_cycles *= chaos_factor;
      stats.modeled_ms *= chaos_factor;
      stats.tail_cycles *= chaos_factor;
      stats.tail_ms *= chaos_factor;
    }
    modeled_total_ms_ += stats.modeled_ms;
    stats.wall_ms = wall.milliseconds();
    stats.trace_id = span_ctx.trace_id;
    stats.span_id = span_ctx.span_id;
    stats.start_us = start_us;
    // Roofline attribution: bytes moved, flops, and this device's peak
    // bandwidth, attributed along the thread's ProfAttr axes.  One
    // relaxed atomic load when the profiler is disabled; reads stats
    // after the cost model is final, so modeled time is bit-identical
    // either way (asserted by bench/plan_reuse_spmv).
    if (telemetry::profiler().enabled()) {
      telemetry::profiler().record_kernel(
          name,
          static_cast<double>(stats.totals.global_bytes +
                              stats.totals.gather_bytes),
          static_cast<double>(stats.totals.flops), stats.modeled_ms,
          props_.global_bytes_per_ns());
    }
    log_.push_back(stats);
    return stats;
  }

  /// Chronological log of every kernel launched on this device.
  const std::vector<KernelStats>& log() const { return log_; }
  void clear_log() { log_.clear(); }

  /// Cumulative modeled milliseconds across every launch (straggler
  /// inflation included) — the clock chaos time-triggers compare against.
  double modeled_total_ms() const { return modeled_total_ms_; }

 private:
  DeviceProperties props_;
  MemoryModel memory_;
  std::unique_ptr<FaultInjector> fault_;  ///< stable address for memory_
  std::vector<KernelStats> log_;
  double modeled_total_ms_ = 0.0;
};

}  // namespace mps::vgpu

#include "vgpu/fault_injector.hpp"

#include "util/env.hpp"

namespace mps::vgpu {

FaultInjectorConfig FaultInjector::config_from_env() {
  // Strict parsing throughout: a typo'd fault knob must fail loudly, not
  // silently run the suite fault-free (InvalidInputError names the var).
  FaultInjectorConfig cfg;
  const long long n = util::env_int_checked("MPS_FAULT_ALLOC_N", 0);
  if (n > 0) cfg.fail_alloc_n = n;
  const long long bytes = util::env_int_checked("MPS_FAULT_BYTE_LIMIT", 0);
  if (bytes > 0) cfg.byte_limit = static_cast<std::size_t>(bytes);
  // The bitflip satellites are validated even when no flip is armed: a
  // typo'd MPS_FAULT_BITFLIP_MASK should fail loudly now, not the day
  // someone finally sets MPS_FAULT_BITFLIP_ALLOC next to it.
  const long long flip = util::env_int_checked("MPS_FAULT_BITFLIP_ALLOC", 0);
  const long long offset = util::env_int_checked("MPS_FAULT_BITFLIP_OFFSET", 0);
  // The mask is a byte pattern — accept hex ("0x80") as well as decimal.
  const long long mask =
      util::env_int_auto_checked("MPS_FAULT_BITFLIP_MASK", 0x01, 0, 0xFF);
  if (flip > 0) {
    cfg.bitflip_alloc = flip;
    cfg.bitflip_offset = static_cast<std::size_t>(offset);
    cfg.bitflip_mask = static_cast<std::uint8_t>(mask);
  }
  return cfg;
}

void FaultInjector::arm_chaos(const ChaosSchedule& schedule,
                              int device_ordinal) {
  for (const ChaosEvent& ev : schedule.events) {
    if (ev.device >= 0 && ev.device != device_ordinal) continue;
    switch (ev.kind) {
      case ChaosEvent::Kind::kDeviceLoss:
        losses_.push_back(ev);
        break;
      case ChaosEvent::Kind::kStraggler:
        stragglers_.push_back(ev);
        break;
      case ChaosEvent::Kind::kAllocFail:
        fail_at_allocation(allocations_ + ev.at_alloc);
        break;
      case ChaosEvent::Kind::kBitFlip:
        flip_bit_at_allocation(allocations_ + ev.at_alloc, ev.offset, ev.mask,
                               ev.every);
        break;
    }
  }
}

FaultInjector::LaunchFault FaultInjector::on_launch(double modeled_ms_total) {
  LaunchFault out;
  if (lost_) {
    out.lost = true;
    return out;
  }
  ++launches_;
  for (const ChaosEvent& ev : losses_) {
    const bool hit_launch = ev.at_launch > 0 && launches_ >= ev.at_launch;
    const bool hit_time =
        ev.at_modeled_ms >= 0.0 && modeled_ms_total >= ev.at_modeled_ms;
    if (hit_launch || hit_time) {
      lost_ = true;
      ++losses_injected_;
      out.lost = true;
      return out;
    }
  }
  for (const ChaosEvent& ev : stragglers_) {
    bool due = false;
    if (launches_ == ev.at_launch) {
      due = true;
    } else if (ev.every > 0 && launches_ > ev.at_launch) {
      due = (launches_ - ev.at_launch) % ev.every == 0;
    }
    if (due) {
      out.factor *= ev.factor;
      ++straggles_injected_;
    }
  }
  return out;
}

}  // namespace mps::vgpu

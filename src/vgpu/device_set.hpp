#pragma once
// vgpu::DeviceSet — a modeled multi-GPU fleet (docs/sharding.md).
//
// One Device models one GPU; a DeviceSet models a host with several,
// possibly heterogeneous, GPUs: each slot owns its Device (memory model,
// fault injector, chaos state, kernel log) plus the immutable metadata a
// scheduler needs — the slot's DeviceProperties, its profile name, and a
// modeled throughput weight (global-memory bytes/ns, the right proxy for
// the memory-bound sparse kernels this repository serves).
//
// Slots are stable: replace(i) provisions a fresh Device with the SAME
// properties in slot i and hands back the old one, which is how the
// serving engine quarantines a chaos-lost device without disturbing the
// shard placement keyed on slot ordinals (serve::Engine failover).
//
// Fleet shape comes from a spec string (serve::EngineConfig::device_spec):
//
//   spec     := entry (',' entry)*
//   entry    := profile [ '*' count ]
//   profile  := "titan" | "fast" | "slow"
//
// e.g. "fast*2,slow*2" (the heterogeneous bench fleet), "titan*4", or a
// single bare profile which broadcasts to the requested fleet size.
// Parsing is strict — an unknown profile, malformed count, or a spec
// whose expanded length disagrees with the requested device count raises
// InvalidInputError naming the source (the config field or flag the
// spec came from).

#include <cstddef>
#include <memory>
#include <string>
#include <vector>

#include "util/error.hpp"
#include "vgpu/device.hpp"
#include "vgpu/device_properties.hpp"

namespace mps::vgpu {

/// One parsed spec entry: the profile name and its properties.
struct DeviceSpecEntry {
  std::string profile;
  DeviceProperties props;
};

/// Named profile lookup ("titan" | "fast" | "slow"); throws
/// InvalidInputError naming `source` for anything else.
DeviceProperties device_profile(const std::string& name,
                                const std::string& source = "device profile");

/// Relative placement weight of a device: modeled global-memory
/// bandwidth in bytes/ns.  titan ~282, fast ~662, slow ~110.
double throughput_weight(const DeviceProperties& p);

/// Parse a fleet spec into exactly `num_devices` entries (see the
/// grammar above).  An empty spec yields all-titan; a single bare
/// profile broadcasts; otherwise the expanded entry count must equal
/// `num_devices`.  Strict: malformed input throws InvalidInputError
/// naming `source`.
std::vector<DeviceSpecEntry> parse_device_spec(
    const std::string& spec, int num_devices,
    const std::string& source = "device spec");

class DeviceSet {
 public:
  /// Build the fleet: one fresh Device per spec entry.
  explicit DeviceSet(std::vector<DeviceSpecEntry> spec);

  DeviceSet(const DeviceSet&) = delete;
  DeviceSet& operator=(const DeviceSet&) = delete;

  std::size_t size() const { return slots_.size(); }
  Device& device(std::size_t i) { return *slots_[i].device; }
  const Device& device(std::size_t i) const { return *slots_[i].device; }
  const DeviceProperties& props(std::size_t i) const {
    return slots_[i].props;
  }
  const std::string& profile(std::size_t i) const {
    return slots_[i].profile;
  }
  /// Modeled throughput weight of slot i (throughput_weight(props(i))).
  double weight(std::size_t i) const { return slots_[i].weight; }
  /// Sum of every slot's weight.
  double total_weight() const;

  /// Provision a fresh Device with slot i's properties (the replacement
  /// for a chaos-lost device; MPS_FAULT_* env knobs apply to it like any
  /// construction) and return the old Device.  The caller typically
  /// keeps the old one alive until plans accounted against it die.
  std::unique_ptr<Device> replace(std::size_t i);

 private:
  struct Slot {
    std::string profile;
    DeviceProperties props;
    double weight = 0.0;
    std::unique_ptr<Device> device;
  };
  std::vector<Slot> slots_;
};

}  // namespace mps::vgpu

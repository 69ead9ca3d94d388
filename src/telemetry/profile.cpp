#include "telemetry/profile.hpp"

#include <algorithm>
#include <cmath>
#include <ostream>
#include <sstream>

#include "util/env.hpp"

namespace mps::telemetry {

ProfAttr& current_prof_attr() {
  thread_local ProfAttr attr;
  return attr;
}

Profiler& profiler() {
  static Profiler p;
  return p;
}

void Profiler::clear() {
  std::lock_guard<std::mutex> lock(mutex_);
  by_op_.clear();
  by_phase_.clear();
  by_device_.clear();
  by_tenant_.clear();
  by_shard_.clear();
  shard_batches_ = 0;
  imbalance_total_ = 0;
  imbalance_flags_.clear();
  flag_next_ = 0;
}

bool Profiler::configure_from_env() {
  const long long on = util::env_int_checked("MPS_PROFILE", 0, 0, 1);
  const double pct =
      util::env_double_checked("MPS_PROFILE_IMBALANCE_PCT", 50.0, 0.0);
  const double frac =
      util::env_double_checked("MPS_PROFILE_ROOFLINE_FRAC", 0.35, 0.0);
  {
    std::lock_guard<std::mutex> lock(mutex_);
    imbalance_threshold_pct_ = pct;
    roofline_frac_ = frac;
  }
  if (on) enable();
  return enabled();
}

void Profiler::set_imbalance_threshold_pct(double pct) {
  std::lock_guard<std::mutex> lock(mutex_);
  imbalance_threshold_pct_ = pct;
}

void Profiler::set_roofline_frac(double frac) {
  std::lock_guard<std::mutex> lock(mutex_);
  roofline_frac_ = frac;
}

double Profiler::imbalance_threshold_pct() const {
  std::lock_guard<std::mutex> lock(mutex_);
  return imbalance_threshold_pct_;
}

double Profiler::roofline_frac() const {
  std::lock_guard<std::mutex> lock(mutex_);
  return roofline_frac_;
}

void Profiler::record_kernel(const std::string& name, double bytes,
                             double flops, double modeled_ms,
                             double peak_bytes_per_ns) {
  const ProfAttr attr = current_prof_attr();
  RooflineAgg sample;
  sample.launches = 1;
  sample.bytes = bytes;
  sample.flops = flops;
  sample.modeled_ms = modeled_ms;
  // Whole bytes: sums of integer-valued doubles are exact, so aggregates
  // do not depend on the order in which concurrent launches record.
  sample.capacity_bytes = std::round(modeled_ms * 1e6 * peak_bytes_per_ns);
  std::lock_guard<std::mutex> lock(mutex_);
  by_op_[name] += sample;
  by_phase_[attr.phase[0] ? attr.phase : "(none)"] += sample;
  by_device_[attr.device] += sample;
  if (attr.tenant != 0) {
    by_tenant_[attr.tenant] += sample;
    if (attr.shard >= 0) by_shard_[{attr.tenant, attr.shard}] += sample;
  }
}

bool Profiler::note_shard_batch(std::uint64_t tenant,
                                std::span<const ShardSample> samples) {
  if (samples.empty()) return false;
  // Critical path is per DEVICE: a device hosting two shards is busy for
  // their sum, and the dispatch completes when the busiest device does.
  std::map<int, double> busy;
  for (const ShardSample& s : samples) busy[s.device] += s.busy_ms;
  double total = 0.0;
  double max_busy = 0.0;
  int straggler_device = -1;
  for (const auto& [dev, ms] : busy) {
    total += ms;
    if (ms > max_busy) {
      max_busy = ms;
      straggler_device = dev;
    }
  }
  const double mean = total / static_cast<double>(busy.size());
  std::lock_guard<std::mutex> lock(mutex_);
  ++shard_batches_;
  if (busy.size() < 2 || mean <= 0.0) return false;
  if (max_busy <= mean * (1.0 + imbalance_threshold_pct_ / 100.0)) {
    return false;
  }
  ImbalanceFlag flag;
  flag.tenant = tenant;
  flag.straggler_device = straggler_device;
  flag.straggler_ms = max_busy;
  flag.mean_ms = mean;
  flag.ratio = max_busy / mean;
  // Name the heaviest shard on the straggler device.
  double best = -1.0;
  for (const ShardSample& s : samples) {
    if (s.device == straggler_device && s.busy_ms > best) {
      best = s.busy_ms;
      flag.straggler_shard = s.shard;
    }
  }
  ++imbalance_total_;
  if (imbalance_flags_.size() < kMaxFlags) {
    imbalance_flags_.push_back(flag);
  } else {
    imbalance_flags_[flag_next_] = flag;
    flag_next_ = (flag_next_ + 1) % kMaxFlags;
  }
  return true;
}

ProfileReport Profiler::report() const {
  std::lock_guard<std::mutex> lock(mutex_);
  ProfileReport r;
  r.by_op = by_op_;
  r.by_phase = by_phase_;
  r.by_device = by_device_;
  r.by_tenant = by_tenant_;
  r.by_shard = by_shard_;
  r.shard_batches = shard_batches_;
  r.imbalance_flags = imbalance_flags_;
  r.imbalance_total = imbalance_total_;
  r.imbalance_threshold_pct = imbalance_threshold_pct_;
  r.roofline_frac = roofline_frac_;
  for (const auto& [name, agg] : by_op_) {
    if (agg.achieved_frac() < roofline_frac_) r.below_roofline.push_back(name);
  }
  return r;
}

namespace {

std::string num(double v) {
  if (!std::isfinite(v)) return "null";
  std::ostringstream os;
  os << v;
  return os.str();
}

void write_agg(std::ostream& out, const RooflineAgg& a) {
  out << "{\"launches\":" << a.launches << ",\"bytes\":" << num(a.bytes)
      << ",\"flops\":" << num(a.flops)
      << ",\"modeled_ms\":" << num(a.modeled_ms)
      << ",\"achieved_frac\":" << num(a.achieved_frac())
      << ",\"intensity\":" << num(a.intensity()) << '}';
}

}  // namespace

void Profiler::write_json(std::ostream& out) const {
  const ProfileReport r = report();
  out << "{\"enabled\":" << (enabled() ? "true" : "false")
      << ",\"roofline_frac\":" << num(r.roofline_frac)
      << ",\"imbalance_threshold_pct\":" << num(r.imbalance_threshold_pct);
  const auto emit_str_map = [&](const char* key, const auto& m) {
    out << ",\"" << key << "\":{";
    bool first = true;
    for (const auto& [k, agg] : m) {
      if (!first) out << ',';
      first = false;
      out << '"' << k << "\":";
      write_agg(out, agg);
    }
    out << '}';
  };
  emit_str_map("by_op", r.by_op);
  emit_str_map("by_phase", r.by_phase);
  out << ",\"by_device\":{";
  bool first = true;
  for (const auto& [dev, agg] : r.by_device) {
    if (!first) out << ',';
    first = false;
    out << '"' << dev << "\":";
    write_agg(out, agg);
  }
  out << "},\"by_tenant\":{";
  first = true;
  for (const auto& [tenant, agg] : r.by_tenant) {
    if (!first) out << ',';
    first = false;
    out << '"' << tenant << "\":";
    write_agg(out, agg);
  }
  out << "},\"by_shard\":{";
  first = true;
  for (const auto& [key, agg] : r.by_shard) {
    if (!first) out << ',';
    first = false;
    out << '"' << key.first << '/' << key.second << "\":";
    write_agg(out, agg);
  }
  out << "},\"below_roofline\":[";
  first = true;
  for (const auto& name : r.below_roofline) {
    if (!first) out << ',';
    first = false;
    out << '"' << name << '"';
  }
  out << "],\"shard_batches\":" << r.shard_batches
      << ",\"imbalance_total\":" << r.imbalance_total
      << ",\"imbalance_flags\":[";
  first = true;
  for (const auto& f : r.imbalance_flags) {
    if (!first) out << ',';
    first = false;
    out << "{\"tenant\":" << f.tenant
        << ",\"straggler_shard\":" << f.straggler_shard
        << ",\"straggler_device\":" << f.straggler_device
        << ",\"straggler_ms\":" << num(f.straggler_ms)
        << ",\"mean_ms\":" << num(f.mean_ms) << ",\"ratio\":" << num(f.ratio)
        << '}';
  }
  out << "]}";
}

}  // namespace mps::telemetry

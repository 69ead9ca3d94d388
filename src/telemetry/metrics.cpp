#include "telemetry/metrics.hpp"

#include <algorithm>
#include <cmath>
#include <fstream>
#include <iostream>
#include <ostream>
#include <sstream>

#include "util/env.hpp"

namespace mps::telemetry {

// ---------------------------------------------------------------------------
// Histogram

Histogram::Histogram(std::vector<double> upper_bounds)
    : bounds_(std::move(upper_bounds)), buckets_(bounds_.size() + 1) {}

void Histogram::observe(double v) {
  const auto it = std::lower_bound(bounds_.begin(), bounds_.end(), v);
  buckets_[static_cast<std::size_t>(it - bounds_.begin())].fetch_add(
      1, std::memory_order_relaxed);
  count_.fetch_add(1, std::memory_order_relaxed);
  double cur = sum_.load(std::memory_order_relaxed);
  while (!sum_.compare_exchange_weak(cur, cur + v, std::memory_order_relaxed)) {
  }
}

std::vector<long long> Histogram::bucket_counts() const {
  std::vector<long long> out(buckets_.size());
  for (std::size_t i = 0; i < buckets_.size(); ++i) {
    out[i] = buckets_[i].load(std::memory_order_relaxed);
  }
  return out;
}

void Histogram::reset() {
  for (auto& b : buckets_) b.store(0, std::memory_order_relaxed);
  count_.store(0, std::memory_order_relaxed);
  sum_.store(0.0, std::memory_order_relaxed);
}

// ---------------------------------------------------------------------------
// Registry

MetricsRegistry& metrics() {
  static MetricsRegistry r;
  return r;
}

const std::vector<double>& default_latency_bounds_ms() {
  static const std::vector<double> bounds{0.05, 0.1,  0.25, 0.5,  1.0,  2.5,
                                          5.0,  10.0, 25.0, 50.0, 100.0, 250.0,
                                          500.0, 1000.0};
  return bounds;
}

Counter& MetricsRegistry::counter(const std::string& name) {
  std::lock_guard<std::mutex> lock(mutex_);
  auto& slot = counters_[name];
  if (!slot) slot = std::make_unique<Counter>();
  return *slot;
}

Gauge& MetricsRegistry::gauge(const std::string& name) {
  std::lock_guard<std::mutex> lock(mutex_);
  auto& slot = gauges_[name];
  if (!slot) slot = std::make_unique<Gauge>();
  return *slot;
}

Histogram& MetricsRegistry::histogram(const std::string& name,
                                      std::vector<double> upper_bounds) {
  std::lock_guard<std::mutex> lock(mutex_);
  auto& slot = histograms_[name];
  if (!slot) slot = std::make_unique<Histogram>(std::move(upper_bounds));
  return *slot;
}

void MetricsRegistry::reset() {
  std::lock_guard<std::mutex> lock(mutex_);
  for (auto& [name, c] : counters_) c->reset();
  for (auto& [name, g] : gauges_) g->reset();
  for (auto& [name, h] : histograms_) h->reset();
}

namespace {

/// Finite-safe JSON number (NaN/Inf are not valid JSON).
std::string json_num(double v) {
  if (!std::isfinite(v)) return "null";
  std::ostringstream os;
  os << v;
  return os.str();
}

std::string prom_name(const std::string& name) {
  std::string out = "mps_";
  for (char c : name) {
    const bool ok = (c >= 'a' && c <= 'z') || (c >= 'A' && c <= 'Z') ||
                    (c >= '0' && c <= '9') || c == '_';
    out += ok ? c : '_';
  }
  return out;
}

std::string prom_num(double v) {
  if (std::isnan(v)) return "NaN";
  if (std::isinf(v)) return v > 0 ? "+Inf" : "-Inf";
  std::ostringstream os;
  os << v;
  return os.str();
}

}  // namespace

void MetricsRegistry::write_json(std::ostream& out) const {
  std::lock_guard<std::mutex> lock(mutex_);
  out << "{\"counters\":{";
  bool first = true;
  for (const auto& [name, c] : counters_) {
    if (!first) out << ',';
    first = false;
    out << '"' << name << "\":" << c->value();
  }
  out << "},\"gauges\":{";
  first = true;
  for (const auto& [name, g] : gauges_) {
    if (!first) out << ',';
    first = false;
    out << '"' << name << "\":" << json_num(g->value());
  }
  out << "},\"histograms\":{";
  first = true;
  for (const auto& [name, h] : histograms_) {
    if (!first) out << ',';
    first = false;
    out << '"' << name << "\":{\"count\":" << h->count()
        << ",\"sum\":" << json_num(h->sum()) << ",\"buckets\":[";
    const auto counts = h->bucket_counts();
    const auto& bounds = h->upper_bounds();
    for (std::size_t i = 0; i < counts.size(); ++i) {
      if (i) out << ',';
      out << "{\"le\":"
          << (i < bounds.size() ? json_num(bounds[i]) : std::string("null"))
          << ",\"count\":" << counts[i] << '}';
    }
    out << "]}";
  }
  out << "}}";
}

void MetricsRegistry::write_prometheus(std::ostream& out) const {
  std::lock_guard<std::mutex> lock(mutex_);
  for (const auto& [name, c] : counters_) {
    const std::string p = prom_name(name);
    out << "# TYPE " << p << " counter\n" << p << ' ' << c->value() << '\n';
  }
  for (const auto& [name, g] : gauges_) {
    const std::string p = prom_name(name);
    out << "# TYPE " << p << " gauge\n"
        << p << ' ' << prom_num(g->value()) << '\n';
  }
  for (const auto& [name, h] : histograms_) {
    const std::string p = prom_name(name);
    out << "# TYPE " << p << " histogram\n";
    const auto counts = h->bucket_counts();
    const auto& bounds = h->upper_bounds();
    long long cumulative = 0;
    for (std::size_t i = 0; i < counts.size(); ++i) {
      cumulative += counts[i];
      out << p << "_bucket{le=\""
          << (i < bounds.size() ? prom_num(bounds[i]) : std::string("+Inf"))
          << "\"} " << cumulative << '\n';
    }
    out << p << "_sum " << prom_num(h->sum()) << '\n'
        << p << "_count " << h->count() << '\n';
  }
}

// ---------------------------------------------------------------------------
// Periodic dumper

PeriodicDumper::PeriodicDumper() {
  // Strict parse: a typo'd dump interval must fail loudly, not silently
  // run without periodic dumps (the MPS_FAULT_* rule).
  const long long interval_ms =
      util::env_int_checked("MPS_METRICS_DUMP_MS", 0);
  if (interval_ms <= 0) return;
  const std::string path = util::env_string("MPS_METRICS_DUMP_PATH", "");
  thread_ = std::thread([this, interval_ms, path] {
    std::unique_lock<std::mutex> lock(mutex_);
    for (;;) {
      if (cv_.wait_for(lock, std::chrono::milliseconds(interval_ms),
                       [&] { return stop_; })) {
        return;
      }
      std::ostringstream snapshot;
      metrics().write_json(snapshot);
      snapshot << '\n';
      if (path.empty()) {
        std::cerr << snapshot.str() << std::flush;
      } else {
        std::ofstream out(path, std::ios::app);
        if (out) out << snapshot.str();
      }
    }
  });
}

PeriodicDumper::~PeriodicDumper() {
  if (!thread_.joinable()) return;
  {
    std::lock_guard<std::mutex> lock(mutex_);
    stop_ = true;
  }
  cv_.notify_all();
  thread_.join();
}

}  // namespace mps::telemetry

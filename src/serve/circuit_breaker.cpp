#include "serve/circuit_breaker.hpp"

namespace mps::serve {

void CircuitBreaker::admit(std::uint64_t key, double now_ms) {
  if (!enabled()) return;
  std::lock_guard<std::mutex> lock(mutex_);
  auto it = entries_.find(key);
  if (it == entries_.end()) return;  // never failed → closed
  Entry& e = it->second;
  switch (e.state) {
    case State::kClosed:
      return;
    case State::kOpen:
      if (now_ms - e.opened_at_ms >= cfg_.cooldown_ms) {
        e.state = State::kHalfOpen;
        ++stats_.probes;
        return;  // this caller is the probe
      }
      ++stats_.fail_fast;
      throw CircuitOpenError(
          "circuit open for matrix handle " + std::to_string(key) + " (" +
          std::to_string(e.consecutive_failures) +
          " consecutive failures); retry after cooldown");
    case State::kHalfOpen:
      // One probe is already in flight; everyone else still fails fast.
      ++stats_.fail_fast;
      throw CircuitOpenError("circuit half-open for matrix handle " +
                             std::to_string(key) +
                             ": probe in flight, retry shortly");
  }
}

bool CircuitBreaker::on_success(std::uint64_t key) {
  if (!enabled()) return false;
  std::lock_guard<std::mutex> lock(mutex_);
  auto it = entries_.find(key);
  if (it == entries_.end()) return false;
  const bool reclosed = it->second.state != State::kClosed;
  if (reclosed) ++stats_.reclosed;
  entries_.erase(it);  // healthy again — back to the implicit closed state
  return reclosed;
}

bool CircuitBreaker::on_failure(std::uint64_t key, double now_ms) {
  if (!enabled()) return false;
  std::lock_guard<std::mutex> lock(mutex_);
  Entry& e = entries_[key];
  ++e.consecutive_failures;
  if (e.state == State::kHalfOpen ||
      (e.state == State::kClosed &&
       e.consecutive_failures >= cfg_.failure_threshold)) {
    e.state = State::kOpen;
    e.opened_at_ms = now_ms;
    ++stats_.opened;
    return true;
  }
  return false;
}

CircuitBreaker::State CircuitBreaker::state(std::uint64_t key) const {
  std::lock_guard<std::mutex> lock(mutex_);
  auto it = entries_.find(key);
  return it == entries_.end() ? State::kClosed : it->second.state;
}

}  // namespace mps::serve

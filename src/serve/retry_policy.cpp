#include "serve/retry_policy.hpp"

#include <algorithm>

#include "util/rng.hpp"

namespace mps::serve {

double RetryPolicy::backoff_ms(int retry_index, std::uint64_t salt) const {
  if (retry_index < 1 || backoff_base_ms <= 0.0) return 0.0;
  double b = backoff_base_ms;
  for (int i = 1; i < retry_index; ++i) {
    b *= backoff_multiplier;
    if (backoff_max_ms > 0.0 && b >= backoff_max_ms) break;
  }
  if (backoff_max_ms > 0.0) b = std::min(b, backoff_max_ms);
  if (jitter_frac > 0.0) {
    // splitmix64 of (salt, retry) → uniform in [0,1); platform-stable.
    std::uint64_t state =
        salt ^ (0x9E3779B97F4A7C15ull * static_cast<std::uint64_t>(retry_index));
    const std::uint64_t r = util::splitmix64(state);
    const double u =
        static_cast<double>(r >> 11) * (1.0 / 9007199254740992.0);  // 2^53
    b *= 1.0 + jitter_frac * (2.0 * u - 1.0);
  }
  return b;
}

}  // namespace mps::serve

#pragma once
// The one scoped environment guard of the tests: sets a variable (or,
// given nullptr, clears it) for the guard's lifetime, and on scope exit
// restores the previous value or absence, also when the scope unwinds
// through an exception or a failed ASSERT.
#include <cstdlib>
#include <memory>
#include <optional>
#include <span>
#include <string>
#include <vector>

namespace mps::testing {

class EnvVarGuard {
 public:
  EnvVarGuard(const char* name, const char* value) : name_(name) {
    if (const char* old = std::getenv(name)) old_ = old;
    set(value);
  }
  ~EnvVarGuard() { set(old_ ? old_->c_str() : nullptr); }
  EnvVarGuard(const EnvVarGuard&) = delete;
  EnvVarGuard& operator=(const EnvVarGuard&) = delete;

 private:
  void set(const char* value) const {
    if (value != nullptr) {
      ::setenv(name_.c_str(), value, 1);
    } else {
      ::unsetenv(name_.c_str());
    }
  }

  std::string name_;
  std::optional<std::string> old_;
};

/// One EnvVarGuard per name, all setting the same `value`; restored in
/// reverse order on scope exit.
class EnvVarGuards {
 public:
  EnvVarGuards(std::span<const char* const> names, const char* value) {
    for (const char* n : names) {
      guards_.push_back(std::make_unique<EnvVarGuard>(n, value));
    }
  }
  ~EnvVarGuards() {
    while (!guards_.empty()) guards_.pop_back();
  }
  EnvVarGuards(const EnvVarGuards&) = delete;
  EnvVarGuards& operator=(const EnvVarGuards&) = delete;

 private:
  std::vector<std::unique_ptr<EnvVarGuard>> guards_;
};

}  // namespace mps::testing

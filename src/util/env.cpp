#include "util/env.hpp"

#include <cerrno>
#include <cstdlib>
#include <string>

#include "util/error.hpp"

namespace mps::util {

double env_double(const char* name, double fallback) {
  const char* v = std::getenv(name);
  if (!v || !*v) return fallback;
  char* end = nullptr;
  const double parsed = std::strtod(v, &end);
  return (end && *end == '\0') ? parsed : fallback;
}

long long env_int(const char* name, long long fallback) {
  const char* v = std::getenv(name);
  if (!v || !*v) return fallback;
  char* end = nullptr;
  const long long parsed = std::strtoll(v, &end, 10);
  return (end && *end == '\0') ? parsed : fallback;
}

std::string env_string(const char* name, const std::string& fallback) {
  const char* v = std::getenv(name);
  return (v && *v) ? std::string(v) : fallback;
}

namespace {

[[noreturn]] void throw_env(const char* name, const char* raw,
                            const std::string& why) {
  throw mps::InvalidInputError(std::string(name) + "=\"" + raw + "\": " + why);
}

long long parse_int_strict(const char* name, const char* raw, int base,
                           long long min, long long max) {
  char* end = nullptr;
  errno = 0;
  const long long parsed = std::strtoll(raw, &end, base);
  if (end == raw || !end || *end != '\0')
    throw_env(name, raw, "not an integer");
  if (errno == ERANGE) throw_env(name, raw, "integer overflow");
  if (parsed < min || parsed > max)
    throw_env(name, raw,
              "out of range [" + std::to_string(min) + ", " +
                  std::to_string(max) + "]");
  return parsed;
}

}  // namespace

long long env_int_checked(const char* name, long long fallback, long long min,
                          long long max) {
  const char* v = std::getenv(name);
  if (!v || !*v) return fallback;
  return parse_int_strict(name, v, 10, min, max);
}

long long env_int_auto_checked(const char* name, long long fallback,
                               long long min, long long max) {
  const char* v = std::getenv(name);
  if (!v || !*v) return fallback;
  return parse_int_strict(name, v, 0, min, max);
}

double env_double_checked(const char* name, double fallback, double min) {
  const char* v = std::getenv(name);
  if (!v || !*v) return fallback;
  char* end = nullptr;
  errno = 0;
  const double parsed = std::strtod(v, &end);
  if (end == v || !end || *end != '\0') throw_env(name, v, "not a number");
  if (errno == ERANGE) throw_env(name, v, "out of representable range");
  if (!(parsed >= min))
    throw_env(name, v, "must be >= " + std::to_string(min));
  return parsed;
}

std::string env_path_checked(const char* name) {
  const char* v = std::getenv(name);
  if (!v) return "";
  if (!*v) throw_env(name, v, "set but empty (unset it to disable)");
  return std::string(v);
}

}  // namespace mps::util

// Shared environment-variable knobs for the simulator, benches and the
// campaign runner.
//
// Every reader used to carry its own parsing; the helpers live here once so
// the knob set (ICC_RUNS, ICC_SIM_TIME, ICC_THREADS, ICC_TRACE,
// ICC_FLIGHT, ...) is parsed uniformly. The header uses only the
// standard library, so tools/layers.toml files it under sim_base and sim/
// includes it.
//
// Parsing is strict: a malformed value (ICC_THREADS=1O, ICC_SIM_TIME=3OO.0)
// aborts with a message naming the variable instead of silently truncating
// to a numeric prefix the way atoi/atof would — a typo'd knob must never
// launch a multi-hour campaign with the wrong parameters.
#pragma once

#include <cerrno>
#include <climits>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <string>
#include <vector>

namespace icc::exp {

[[noreturn]] inline void env_fail(const char* name, const char* value, const char* want) {
  std::fprintf(stderr, "env: %s='%s' is not a valid %s\n", name, value, want);
  std::abort();
}

namespace detail {

/// Parses one base-10 int at the start of `s` (strtol syntax) into `out`.
/// Returns the first character after it, or nullptr when `s` starts with
/// no number or the number does not fit an int.
inline const char* parse_int_prefix(const char* s, int& out) {
  errno = 0;
  char* end = nullptr;
  const long parsed = std::strtol(s, &end, 10);
  if (end == s || errno == ERANGE || parsed < INT_MIN || parsed > INT_MAX) return nullptr;
  out = static_cast<int>(parsed);
  return end;
}

}  // namespace detail

inline int env_int(const char* name, int fallback) {
  const char* v = std::getenv(name);  // NOLINT(concurrency-mt-unsafe): nothing modifies the environment once runs start
  if (v == nullptr || *v == '\0') return fallback;
  int parsed = 0;
  const char* end = detail::parse_int_prefix(v, parsed);
  if (end == nullptr || *end != '\0') env_fail(name, v, "integer");
  return parsed;
}

/// A comma-separated list of ints ("100,1000"), each item parsed as env_int
/// parses one: "1,,2", "1,2x" and a trailing comma abort.
inline std::vector<int> env_int_list(const char* name, std::vector<int> fallback) {
  const char* v = std::getenv(name);  // NOLINT(concurrency-mt-unsafe): nothing modifies the environment once runs start
  if (v == nullptr || *v == '\0') return fallback;
  std::vector<int> out;
  for (const char* item = v;;) {
    int parsed = 0;
    const char* end = detail::parse_int_prefix(item, parsed);
    if (end == nullptr || (*end != ',' && *end != '\0')) env_fail(name, v, "integer list");
    out.push_back(parsed);
    if (*end == '\0') return out;
    item = end + 1;
  }
}

/// A full 64-bit unsigned value, such as a seed printed with %llu. Digits
/// only: strtoull would accept "-1" and wrap it to 2^64-1.
inline std::uint64_t env_u64(const char* name, std::uint64_t fallback) {
  const char* v = std::getenv(name);  // NOLINT(concurrency-mt-unsafe): nothing modifies the environment once runs start
  if (v == nullptr || *v == '\0') return fallback;
  errno = 0;
  char* end = nullptr;
  const unsigned long long parsed = std::strtoull(v, &end, 10);
  if (*v < '0' || *v > '9' || *end != '\0' || errno == ERANGE) {
    env_fail(name, v, "unsigned 64-bit integer");
  }
  return static_cast<std::uint64_t>(parsed);
}

inline double env_double(const char* name, double fallback) {
  const char* v = std::getenv(name);  // NOLINT(concurrency-mt-unsafe): nothing modifies the environment once runs start
  if (v == nullptr || *v == '\0') return fallback;
  errno = 0;
  char* end = nullptr;
  const double parsed = std::strtod(v, &end);
  if (end == v || *end != '\0' || errno == ERANGE) env_fail(name, v, "number");
  return parsed;
}

/// Returns the variable's value, or `fallback` when unset or empty.
inline std::string env_string(const char* name, const char* fallback = "") {
  const char* v = std::getenv(name);  // NOLINT(concurrency-mt-unsafe): nothing modifies the environment once runs start
  return v != nullptr && *v != '\0' ? std::string{v} : std::string{fallback};
}

}  // namespace icc::exp

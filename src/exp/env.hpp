// Shared environment-variable knobs for the simulator, benches and the
// campaign runner.
//
// Every reader used to carry its own parsing; the helpers live here once so
// the knob set (ICC_RUNS, ICC_SIM_TIME, ICC_THREADS, ICC_SIM_THREADS,
// ICC_TRACE, ICC_FLIGHT, ...) is parsed uniformly. The header uses only the
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
#include <cstdio>
#include <cstdlib>
#include <string>

namespace icc::exp {

[[noreturn]] inline void env_fail(const char* name, const char* value, const char* want) {
  std::fprintf(stderr, "env: %s='%s' is not a valid %s\n", name, value, want);
  std::abort();
}

inline int env_int(const char* name, int fallback) {
  const char* v = std::getenv(name);  // NOLINT(concurrency-mt-unsafe): nothing modifies the environment once runs start
  if (v == nullptr || *v == '\0') return fallback;
  errno = 0;
  char* end = nullptr;
  const long parsed = std::strtol(v, &end, 10);
  if (end == v || *end != '\0' || errno == ERANGE || parsed < INT_MIN || parsed > INT_MAX) {
    env_fail(name, v, "integer");
  }
  return static_cast<int>(parsed);
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

/// Across-run parallelism: worker processes/threads the exp Runner uses to
/// execute independent campaign runs concurrently. Distinct from
/// ICC_SIM_THREADS, which parallelizes *one* run via the cell executive
/// (sim/exec.hpp). Warns when both are set aggressively: N runner workers x
/// M executive workers oversubscribes the host N*M-fold, which slows both —
/// pick one axis (across runs for campaigns, within a run for single large
/// worlds).
inline int env_runner_threads(int fallback = 1) {
  const int runner = env_int("ICC_THREADS", fallback);
  const int sim = env_int("ICC_SIM_THREADS", 0);
  if (runner > 1 && sim > 1) {
    std::fprintf(stderr,
                 "env: warning: ICC_THREADS=%d and ICC_SIM_THREADS=%d are both > 1; "
                 "the host will run %d simulator threads at once. Use ICC_THREADS "
                 "for campaigns, ICC_SIM_THREADS for single large runs.\n",
                 runner, sim, runner * sim);
  }
  return runner;
}

}  // namespace icc::exp

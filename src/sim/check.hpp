// Checked-build invariant layer.
//
// ICC_ASSERT / ICC_CHECK state invariants the simulator relies on but never
// pays for in Release: both compile to nothing unless the build defines
// ICC_CHECKED (cmake -DICC_CHECKED=ON). A failed invariant prints the
// condition and its message to stderr and aborts, so CI's checked-Debug job
// and death tests catch corruption at the point of introduction instead of
// three subsystems later.
//
// Convention:
//   ICC_ASSERT(cond, msg)  O(1) local invariants on hot paths (argument
//                          preconditions, state-machine legality).
//   ICC_CHECK(cond, msg)   structural sweeps that may cost more than the
//                          code they guard (container consistency scans,
//                          uniqueness sets). Same semantics, different
//                          budget expectations.
// Multi-line setup that exists only to feed a check belongs inside an
// `#if ICC_CHECKED_ENABLED` block so Release builds don't carry it.
#pragma once

#include <cstdio>
#include <cstdlib>

#if defined(ICC_CHECKED)
#define ICC_CHECKED_ENABLED 1
#else
#define ICC_CHECKED_ENABLED 0
#endif

namespace icc::sim::detail {

/// Pre-abort hook: the flight recorder (sim/flight.cpp) installs a dumper
/// here when enabled, so a failed invariant leaves a post-mortem on disk. A
/// plain function pointer keeps this header free of link-time dependencies —
/// TUs that use ICC_ASSERT need not link the tracing code.
using InvariantHook = void (*)(const char* kind);
inline InvariantHook& invariant_hook() noexcept {
  static InvariantHook hook = nullptr;
  return hook;
}

[[noreturn]] inline void invariant_failed(const char* kind, const char* cond, const char* file,
                                          int line, const char* msg) {
  std::fprintf(stderr, "%s failed: %s\n  at %s:%d\n  %s\n", kind, cond, file, line, msg);
  std::fflush(stderr);
  if (invariant_hook() != nullptr) invariant_hook()(kind);
  std::abort();
}

}  // namespace icc::sim::detail

#if ICC_CHECKED_ENABLED

#define ICC_ASSERT(cond, msg)                                                       \
  do {                                                                              \
    if (!(cond)) {                                                                  \
      ::icc::sim::detail::invariant_failed("ICC_ASSERT", #cond, __FILE__, __LINE__, \
                                           (msg));                                  \
    }                                                                               \
  } while (false)

#define ICC_CHECK(cond, msg)                                                       \
  do {                                                                             \
    if (!(cond)) {                                                                 \
      ::icc::sim::detail::invariant_failed("ICC_CHECK", #cond, __FILE__, __LINE__, \
                                           (msg));                                 \
    }                                                                              \
  } while (false)

#else

// Compiled out entirely: the condition is not evaluated, so checked-only
// bookkeeping must sit behind ICC_CHECKED_ENABLED rather than inside a call.
#define ICC_ASSERT(cond, msg) ((void)0)
#define ICC_CHECK(cond, msg) ((void)0)

#endif

// Fixture: every idiom below is waived with a reason, so the scenario must
// run clean — and both waivers must register as used.
#include <chrono>
#include <cstdlib>

// icc:allow(wall-clock): fixture exercises the line-above waiver form
static const auto fixture_start = std::chrono::steady_clock::now();

const char* fixture_home() {
  return std::getenv("HOME");  // icc:allow(raw-getenv): fixture exercises the same-line waiver form
}

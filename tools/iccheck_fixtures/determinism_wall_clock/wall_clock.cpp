// Fixture: must trip exactly the wall-clock rule.
#include <chrono>

double host_elapsed_s() {
  static const auto start = std::chrono::steady_clock::now();
  const auto now = std::chrono::steady_clock::now();
  return std::chrono::duration<double>(now - start).count();
}

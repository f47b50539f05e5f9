// Fixture: must trip exactly the raw-rand rule.
#include <cstdlib>
#include <random>

int ambient_random() {
  std::random_device rd;
  return static_cast<int>(rd()) + rand();
}

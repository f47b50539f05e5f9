// Fixture: a waiver with no reason must itself be an error, and must not
// suppress the finding it sits on.
#include <cstdlib>

const char* fixture_path() {
  return std::getenv("PATH");  // icc:allow(raw-getenv)
}

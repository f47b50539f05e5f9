#include "exp/report.hpp"

#include <cstdio>
#include <cstdlib>
#include <string>

#include "exp/env.hpp"
#include "sim/report.hpp"

namespace icc::exp {

void write_report_from_env(const sim::RunReport& report) {
  const std::string path = env_string("ICC_JSON");
  if (path.empty()) return;
  if (!report.write_file(path)) {
    std::fprintf(stderr, "failed to write report to %s\n", path.c_str());
    std::exit(EXIT_FAILURE);
  }
  std::printf("\nreport written to %s\n", path.c_str());
}

}  // namespace icc::exp

// One traced run of a benchmark workload (see traced_world.hpp), in a
// process of its own.
//
//   perfbench_layers --workload <name> --seed <n> --run <i>
//
// Prints one JSON object: the run's simulation signature, the result of its
// output checks, its run time between the start and end markers, and the
// per-layer metrics. run.py compares the signature with an untraced
// perfbench_e2e run of the same seed and derives events/s and the tracing
// overhead from the pair. Exits 2 on bad arguments.
#include <cstdio>
#include <cstdlib>
#include <exception>
#include <string>

#include "traced_world.hpp"

namespace {

int usage() {
  std::fprintf(stderr, "usage: perfbench_layers --workload <name> --seed <n> --run <i>\n");
  return 2;
}

}  // namespace

int main(int argc, char** argv) {
  std::string workload_name;
  std::uint64_t seed = 0;
  std::uint64_t run = 0;
  bool have_seed = false;
  for (int i = 1; i + 1 < argc; i += 2) {
    const std::string arg = argv[i];
    if (arg == "--workload") {
      workload_name = argv[i + 1];
    } else if (arg == "--seed") {
      seed = std::strtoull(argv[i + 1], nullptr, 10);
      have_seed = true;
    } else if (arg == "--run") {
      run = std::strtoull(argv[i + 1], nullptr, 10);
    } else {
      return usage();
    }
  }
  const auto workload = perfbench::find_workload(workload_name);
  if (!workload || !have_seed || argc % 2 == 0) return usage();

  icc::aodv::BlackholeExperimentConfig config = workload->config;
  config.seed = perfbench::run_seed(seed, run);
  perfbench::Markers markers;
  config.world_hook = perfbench::marker_hook(markers, config.sim_time);

  perfbench::TracedRun traced;
  std::string check;
  try {
    traced = perfbench::run_traced(config, markers);
    check = perfbench::check_outputs(config, traced.outputs);
  } catch (const std::exception& e) {
    check = std::string{"exception: "} + e.what();
  }
  if (check.empty() && !(markers.end_s >= markers.start_s && markers.start_s > 0.0)) {
    check = "a marker event did not run";
  }

  std::printf("{\"workload\": \"%s\", \"run\": %llu, \"seed\": %llu, \"run_s\": %.9f, "
              "\"signature\": \"%s\", \"check\": %s, \"metrics\": {",
              workload->name.c_str(), static_cast<unsigned long long>(run),
              static_cast<unsigned long long>(config.seed), markers.end_s - markers.start_s,
              traced.outputs.signature.str().c_str(),
              perfbench::json_string(check.empty() ? "ok" : check).c_str());
  const char* sep = "";
  for (const auto& [name, value] : traced.metrics) {
    std::printf("%s\"%s\": %.17g", sep, name.c_str(), value);
    sep = ", ";
  }
  std::printf("}}\n");
  return 0;
}

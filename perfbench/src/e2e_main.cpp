// One end-to-end run of a benchmark workload through the public entry point
// aodv::run_blackhole_experiment, in a process of its own (campaign jobs pay
// construction, run and teardown per process, and peak RSS is per process).
//
//   perfbench_e2e --workload <name> --seed <n> --run <i>
//
// Prints one JSON object: the host times, peak RSS, the run's simulation
// signature and the result of its output checks. Exits 0 whether or not
// the checks pass (run.py counts failures); 2 on bad arguments.
#include <cstdio>
#include <cstdlib>
#include <exception>
#include <string>

#include "workloads.hpp"

namespace {

int usage() {
  std::fprintf(stderr, "usage: perfbench_e2e --workload <name> --seed <n> --run <i>\n");
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

  std::string check;
  perfbench::RunOutputs outputs;
  const double t0 = perfbench::host_seconds();
  try {
    const icc::aodv::BlackholeExperimentResult result = icc::aodv::run_blackhole_experiment(config);
    outputs.signature = perfbench::signature_of(result, markers.count);
    outputs.coverage_consistent = result.coverage_consistent;
    outputs.node_energy_count = result.node_energy_j.size();
    check = perfbench::check_outputs(config, outputs);
  } catch (const std::exception& e) {
    check = std::string{"exception: "} + e.what();
  }
  const double t1 = perfbench::host_seconds();
  if (check.empty() && (markers.start_s < t0 || markers.end_s < markers.start_s)) {
    check = "a marker event did not run";
  }

  std::printf(
      "{\"workload\": \"%s\", \"run\": %llu, \"seed\": %llu, \"sim_time_s\": %g, "
      "\"wall_s\": %.9f, \"setup_s\": %.9f, \"run_s\": %.9f, \"peak_rss_mb\": %.3f, "
      "\"signature\": \"%s\", \"check\": %s, \"build\": %s}\n",
      workload->name.c_str(), static_cast<unsigned long long>(run),
      static_cast<unsigned long long>(config.seed), config.sim_time, t1 - t0,
      markers.start_s - t0, markers.end_s - markers.start_s,
      perfbench::peak_rss_mb(), outputs.signature.str().c_str(),
      perfbench::json_string(check.empty() ? "ok" : check).c_str(),
      perfbench::json_string(perfbench::build_description()).c_str());
  return 0;
}

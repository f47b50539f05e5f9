// Simulator-throughput scale sweep: how fast does the core run as the world
// grows? For each node count N the same seeded scenario (density-preserving
// area, N/5 CBR connections, no attackers, no defense) is simulated, and the
// bench reports wall-clock seconds, scheduler events/s and frames/s.
//
// Output check: a cell whose mean frames_sent is 0 simulated no traffic (for
// example a simulated time that ends before the CBR flows start), so its
// throughput numbers measure nothing. The bench names such a cell and exits
// nonzero. CI's perf-smoke job runs the sweep at N=100 under that check (it
// is output-checked, not time-gated: shared runners make wall-clock
// thresholds flaky), and at N=1000,4000 to report each cell's frames/s
// relative to the first cell's, the ratio the ROADMAP's per-frame cost
// target tracks.
//
// Environment knobs: ICC_SCALE_NODES (comma list, default 100,1000,10000),
// ICC_SCALE_TIME (default 20 s), ICC_SCALE_RUNS (default 1), ICC_THREADS
// (keep the default 1 when the wall-clock numbers matter), ICC_JSON.
// The committed bench/BENCH_scale.json is this bench's ICC_JSON report; the
// command that regenerates it is in README.md.
#include <cmath>
#include <cstdio>
#include <string>
#include <vector>

#include <chrono>
#include <thread>

#include "aodv/blackhole_experiment.hpp"
#include "exp/env.hpp"
#include "exp/report.hpp"
#include "exp/runner.hpp"
#include "sim/report.hpp"

int main() {
  const std::string nodes_spec = icc::exp::env_string("ICC_SCALE_NODES", "100,1000,10000");
  const std::vector<int> node_counts =
      icc::exp::env_int_list("ICC_SCALE_NODES", {100, 1000, 10000});
  const double sim_time = icc::exp::env_double("ICC_SCALE_TIME", 20.0);
  const int runs = icc::exp::env_int("ICC_SCALE_RUNS", 1);

  // Printed (and written to the JSON meta) so an artifact is never read
  // without its hardware context.
  const unsigned host_cpus = std::thread::hardware_concurrency();
  std::printf("Simulator scale sweep — N in {%s}, %.0f s simulated, %d run(s) per cell\n"
              "(density-preserving area, N/5 CBR connections, no attackers;\n"
              " host has %u CPU(s))\n\n",
              nodes_spec.c_str(), sim_time, runs, host_cpus);

  icc::exp::Campaign campaign;
  campaign.name = "scale_sweep";
  campaign.base_seed = 9100;
  campaign.runs = runs;
  campaign.common_random_numbers = true;  // run r simulates the same seed at every N
  {
    std::vector<std::string> node_labels;
    for (const int n : node_counts) node_labels.push_back(std::to_string(n));
    campaign.grid.axis("nodes", node_labels);
  }
  campaign.job = [&](const icc::exp::JobContext& ctx) {
    const int n = node_counts[campaign.grid.level(ctx.cell, 0)];
    icc::aodv::BlackholeExperimentConfig config;
    config.num_nodes = n;
    // Density-preserving scaling: the area grows with N so the mean radio
    // degree is constant and N scales the world, not the load per node. The
    // density is half the paper's 50-node/1000x1000 m^2 figure (mean degree
    // ~5 instead of ~10) — a sparser, longer-hop topology keeps the
    // per-frame delivery fan-out from drowning the neighbor-query machinery
    // this sweep measures, while staying above the continuum percolation
    // threshold so multihop routes exist.
    config.area = 1000.0 * std::sqrt(static_cast<double>(n) / 25.0);
    config.num_connections = n / 5;
    config.num_malicious = 0;
    config.sim_time = sim_time;
    config.seed = ctx.seed;
    // icc:allow(wall-clock): perf bench measures host wall time only; results never feed simulated state
    const auto start = std::chrono::steady_clock::now();
    const auto r = icc::aodv::run_blackhole_experiment(config);
    // icc:allow(wall-clock): perf bench measures host wall time only; results never feed simulated state
    const auto stop = std::chrono::steady_clock::now();
    const double wall_s = std::chrono::duration<double>(stop - start).count();
    icc::exp::JobOutputs out;
    out["wall_s"] = {wall_s};
    out["events_per_s"] = {wall_s > 0.0 ? static_cast<double>(r.events_executed) / wall_s
                                        : 0.0};
    out["frames_per_s"] = {wall_s > 0.0 ? static_cast<double>(r.frames_sent) / wall_s : 0.0};
    out["events_executed"] = {static_cast<double>(r.events_executed)};
    out["frames_sent"] = {static_cast<double>(r.frames_sent)};
    out["packets_received"] = {static_cast<double>(r.packets_received)};
    out["mac_collisions"] = {static_cast<double>(r.mac_collisions)};
    out["throughput"] = {r.throughput};
    return out;
  };
  const icc::exp::CampaignResult result = icc::exp::run_campaign(campaign);

  std::printf("%8s %10s %10s | %10s %12s %12s\n", "nodes", "events", "frames", "wall s",
              "events/s", "frames/s");
  for (std::size_t cell = 0; cell < node_counts.size(); ++cell) {
    std::printf("%8d %10.0f %10.0f | %10.2f %12.0f %12.0f\n", node_counts[cell],
                result.mean(cell, "events_executed"), result.mean(cell, "frames_sent"),
                result.mean(cell, "wall_s"), result.mean(cell, "events_per_s"),
                result.mean(cell, "frames_per_s"));
  }
  // The ROADMAP's per-frame cost target reads these ratios (N=4000 against
  // N=1000: at least 0.8). Reported, never gated.
  const double base_fps = result.mean(0, "frames_per_s");
  for (std::size_t cell = 1; cell < node_counts.size() && base_fps > 0.0; ++cell) {
    std::printf("frames/s at N=%d / N=%d: %.2f\n", node_counts[cell], node_counts[0],
                result.mean(cell, "frames_per_s") / base_fps);
  }
  std::fflush(stdout);
  bool traffic = true;
  for (std::size_t cell = 0; cell < node_counts.size(); ++cell) {
    if (result.mean(cell, "frames_sent") > 0.0) continue;
    std::fprintf(stderr,
                 "EMPTY CELL at N=%d: no frame was sent in %.0f s simulated, so its "
                 "throughput measures nothing\n",
                 node_counts[cell], sim_time);
    traffic = false;
  }

  icc::sim::RunReport report;
  report.set_meta("experiment", "scale_sweep");
  report.set_meta("runs", static_cast<std::uint64_t>(runs));
  report.set_meta("sim_time_s", sim_time);
  report.set_meta("seed", campaign.base_seed);
  report.set_meta("host_cpus", static_cast<std::uint64_t>(host_cpus));
  result.add_to_report(report);
  icc::exp::write_report_from_env(report);
  return traffic ? 0 : 1;
}

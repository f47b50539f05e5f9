// Simulator-throughput scale sweep: how fast does the core run as the world
// grows? For each node count N the same seeded scenario (density-preserving
// area, N/5 CBR connections, no attackers, no defense) is simulated once per
// engine:
//
//   grid    serial event loop, neighbor queries from the uniform-grid
//           spatial index (sim/grid.hpp) — the serial baseline
//   execK   parallel cell executive (sim/exec.hpp) with K worker threads,
//           K from ICC_SCALE_THREADS (default 1,2,4,8)
//
// and the bench reports wall-clock seconds, scheduler events/s, frames/s,
// and the speedup of each engine over the serial grid baseline.
//
// All engines promise the same simulation, so the bench doubles as a
// correctness gate: any mismatch in events executed, frames sent, packets
// delivered, or MAC collisions between engines of the same (N, run) exits
// nonzero. CI's perf-smoke job runs exactly that gate at N=100 (it is
// correctness-gated, not time-gated: shared runners make wall-clock
// thresholds flaky).
//
// Environment knobs: ICC_SCALE_NODES (comma list, default 100,1000,10000),
// ICC_SCALE_TIME (default 20 s), ICC_SCALE_RUNS (default 1),
// ICC_SCALE_THREADS (comma list of executive worker counts, default
// 1,2,4,8, also when set empty; a lone "," = serial engine only),
// ICC_THREADS (keep the default 1 when the wall-clock numbers matter),
// ICC_JSON.
// The committed bench/BENCH_scale.json is this bench's ICC_JSON report at
// the defaults — the perf trajectory baseline for future PRs.
#include <cmath>
#include <cstdio>
#include <string>
#include <vector>

#include <chrono>
#include <thread>

#include "aodv/blackhole_experiment.hpp"
#include "exp/env.hpp"
#include "exp/runner.hpp"
#include "sim/report.hpp"

namespace {

/// One point on the engine axis: which event loop.
struct Engine {
  std::string label;  ///< axis label, e.g. "grid", "exec4"
  int sim_threads;    ///< 0 = serial loop, K >= 1 = cell executive
};

}  // namespace

int main() {
  const std::string nodes_spec = icc::exp::env_string("ICC_SCALE_NODES", "100,1000,10000");
  const std::vector<int> node_counts =
      icc::exp::env_int_list("ICC_SCALE_NODES", {100, 1000, 10000});
  const double sim_time = icc::exp::env_double("ICC_SCALE_TIME", 20.0);
  const int runs = icc::exp::env_int("ICC_SCALE_RUNS", 1);
  // A lone "," asks for the serial engine only: no execK rows.
  const std::vector<int> thread_counts =
      icc::exp::env_string("ICC_SCALE_THREADS") == ","
          ? std::vector<int>{}
          : icc::exp::env_int_list("ICC_SCALE_THREADS", {1, 2, 4, 8});

  std::vector<Engine> engines;
  engines.push_back({"grid", 0});
  for (const int k : thread_counts) engines.push_back({"exec" + std::to_string(k), k});

  // The execK wall-clock numbers only mean something relative to the host's
  // core count: on a single-vCPU runner the executive's speedup is bounded
  // above by 1.0 whatever the simulation looks like, and the exec rows then
  // measure pure windowing/merge overhead. Printed (and written to the JSON
  // meta) so an artifact is never read without its hardware context.
  const unsigned host_cpus = std::thread::hardware_concurrency();
  std::printf("Simulator scale sweep — N in {%s}, %.0f s simulated, %d run(s) per cell\n"
              "(density-preserving area, N/5 CBR connections, no attackers;\n"
              " host has %u CPU(s))\n\n",
              nodes_spec.c_str(), sim_time, runs, host_cpus);

  icc::exp::Campaign campaign;
  campaign.name = "scale_sweep";
  campaign.base_seed = 9100;
  campaign.runs = runs;
  campaign.common_random_numbers = true;  // every engine must see the same world
  {
    std::vector<std::string> node_labels;
    for (const int n : node_counts) node_labels.push_back(std::to_string(n));
    std::vector<std::string> engine_labels;
    for (const Engine& e : engines) engine_labels.push_back(e.label);
    campaign.grid.axis("nodes", node_labels);
    campaign.grid.axis("engine", engine_labels);
  }
  campaign.job = [&](const icc::exp::JobContext& ctx) {
    const int n = node_counts[campaign.grid.level(ctx.cell, 0)];
    const Engine& engine = engines[campaign.grid.level(ctx.cell, 1)];
    icc::aodv::BlackholeExperimentConfig config;
    config.num_nodes = n;
    // Density-preserving scaling: the area grows with N so the mean radio
    // degree is constant and N scales the world, not the load per node. The
    // density is half the paper's 50-node/1000x1000 m^2 figure (mean degree
    // ~5 instead of ~10) — a sparser, longer-hop topology keeps the
    // per-frame delivery fan-out from drowning the neighbor-query machinery
    // this sweep exists to compare, while staying above the continuum
    // percolation threshold so multihop routes exist. It also means the
    // executive's component count grows with N (the conflict radius is
    // fixed), so within-run parallelism has something to bite on at large N.
    config.area = 1000.0 * std::sqrt(static_cast<double>(n) / 25.0);
    config.num_connections = n / 5;
    config.num_malicious = 0;
    config.sim_time = sim_time;
    config.seed = ctx.seed;
    config.sim_threads = engine.sim_threads;
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
    // Correctness signature of the run: must match exactly across engines.
    out["events_executed"] = {static_cast<double>(r.events_executed)};
    out["frames_sent"] = {static_cast<double>(r.frames_sent)};
    out["packets_received"] = {static_cast<double>(r.packets_received)};
    out["mac_collisions"] = {static_cast<double>(r.mac_collisions)};
    out["throughput"] = {r.throughput};
    return out;
  };
  const icc::exp::CampaignResult result = icc::exp::run_campaign(campaign);

  // Correctness gate: every engine of the same N simulated the same seeds,
  // so their simulation outputs (not their wall-clock) must agree to the
  // last bit — the parallel executive at every thread count against the
  // serial loop.
  bool consistent = true;
  const char* signature[] = {"events_executed", "frames_sent", "packets_received",
                             "mac_collisions"};
  for (std::size_t ni = 0; ni < node_counts.size(); ++ni) {
    const std::size_t base_cell = campaign.grid.cell_index({ni, 0});  // grid engine
    for (std::size_t ei = 1; ei < engines.size(); ++ei) {
      const std::size_t cell = campaign.grid.cell_index({ni, ei});
      for (const char* metric : signature) {
        const auto& a = result.series(base_cell, metric);
        const auto& b = result.series(cell, metric);
        if (a.count != b.count || a.sum != b.sum) {
          std::fprintf(stderr,
                       "MISMATCH at N=%d: %s grid=%.0f %s=%.0f — engine diverged "
                       "from the serial grid baseline\n",
                       node_counts[ni], metric, a.sum, engines[ei].label.c_str(), b.sum);
          consistent = false;
        }
      }
    }
  }

  std::printf("%8s %8s %10s | %10s %12s %12s | %8s\n", "nodes", "engine", "events",
              "wall s", "events/s", "frames/s", "speedup");
  for (std::size_t ni = 0; ni < node_counts.size(); ++ni) {
    const double base = result.mean(campaign.grid.cell_index({ni, 0}), "events_per_s");
    for (std::size_t ei = 0; ei < engines.size(); ++ei) {
      const std::size_t cell = campaign.grid.cell_index({ni, ei});
      const double eps = result.mean(cell, "events_per_s");
      std::printf("%8d %8s %10.0f | %10.2f %12.0f %12.0f | %7.2fx\n", node_counts[ni],
                  engines[ei].label.c_str(), result.mean(cell, "events_executed"),
                  result.mean(cell, "wall_s"), eps, result.mean(cell, "frames_per_s"),
                  base > 0.0 ? eps / base : 0.0);
    }
  }
  std::printf("\n%s\n", consistent
                            ? "engine correctness gate: OK (identical simulations)"
                            : "engine correctness gate: FAILED");

  if (const std::string json_path = icc::exp::env_string("ICC_JSON"); !json_path.empty()) {
    icc::sim::RunReport report;
    report.set_meta("experiment", "scale_sweep");
    report.set_meta("runs", static_cast<std::uint64_t>(runs));
    report.set_meta("sim_time_s", sim_time);
    report.set_meta("seed", campaign.base_seed);
    report.set_meta("host_cpus", static_cast<std::uint64_t>(host_cpus));
    result.add_to_report(report);
    // Speedup-over-serial columns (events/s of each engine over the serial
    // grid baseline at the same N), precomputed so the artifact reads
    // without cross-series arithmetic.
    for (std::size_t ni = 0; ni < node_counts.size(); ++ni) {
      const double base = result.mean(campaign.grid.cell_index({ni, 0}), "events_per_s");
      for (std::size_t ei = 0; ei < engines.size(); ++ei) {
        const std::size_t cell = campaign.grid.cell_index({ni, ei});
        if (base <= 0.0) continue;
        report.set_meta("speedup." + campaign.grid.key(cell),
                        result.mean(cell, "events_per_s") / base);
      }
    }
    if (!report.write_file(json_path)) {
      std::fprintf(stderr, "failed to write report to %s\n", json_path.c_str());
    }
  }
  return consistent ? 0 : 1;
}

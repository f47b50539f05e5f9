// Trace-overhead microbench: what does observability cost on the simulator
// hot path? The same seeded blackhole scenario runs in three modes —
//
//   off     no sinks, mask 0, no flight recorder (the default fast path)
//   flight  always-on flight-recorder ring, no text sinks (ICC_FLIGHT=1)
//   full    mask "all" with the JSONL sink writing to /dev/null
//
// — for kRounds rounds, rotating which mode goes first, so host drift
// spreads over every mode instead of landing on one pair of runs. The bench
// reports each mode's median wall-clock seconds with its interquartile
// range, and each traced mode's overhead relative to "off", computed from
// the medians. The flight mode's budget is < 5% events/s at N=1000
// (DESIGN.md §12); a median over it prints a note, never a failure. The
// committed bench/BENCH_trace.json is this bench's ICC_JSON report at the
// defaults.
//
// Like scale_sweep, the bench doubles as a correctness gate: tracing
// promises to observe the simulation without perturbing it, so every run of
// every mode must produce the same simulation signature (events executed,
// frames sent, packets received, MAC collisions). Any mismatch exits
// nonzero; the wall-clock numbers are reported but never gated in CI
// (shared runners make time thresholds flaky).
//
// Environment knobs: ICC_TRACE_BENCH_NODES (default 1000),
// ICC_TRACE_BENCH_TIME (simulated seconds, default 10), ICC_JSON.
#include <algorithm>
#include <array>
#include <chrono>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <string>
#include <vector>

#include "aodv/blackhole_experiment.hpp"
#include "exp/env.hpp"
#include "exp/report.hpp"
#include "sim/report.hpp"

namespace {

constexpr int kRounds = 5;
constexpr std::array<const char*, 3> kModes{"off", "flight", "full"};

struct ModeResult {
  double wall_s{0.0};
  icc::aodv::BlackholeExperimentResult sim;
};

ModeResult run_mode(const std::string& mode, const icc::aodv::BlackholeExperimentConfig& config) {
  // The experiment constructs its own World, which configures tracing from
  // the environment — so the bench selects modes the same way a user would.
  // The runs are strictly serial; nothing reads these variables
  // concurrently.
  unsetenv("ICC_TRACE");
  unsetenv("ICC_TRACE_FILE");
  unsetenv("ICC_FLIGHT");
  if (mode == "flight") {
    setenv("ICC_FLIGHT", "1", 1);
  } else if (mode == "full") {
    setenv("ICC_TRACE", "all", 1);
    setenv("ICC_TRACE_FILE", "/dev/null", 1);
  }
  ModeResult result;
  // icc:allow(wall-clock): perf bench measures host wall time only; results never feed simulated state
  const auto start = std::chrono::steady_clock::now();
  result.sim = icc::aodv::run_blackhole_experiment(config);
  // icc:allow(wall-clock): perf bench measures host wall time only; results never feed simulated state
  const auto stop = std::chrono::steady_clock::now();
  result.wall_s = std::chrono::duration<double>(stop - start).count();
  return result;
}

bool same_signature(const ModeResult& a, const ModeResult& b) {
  return a.sim.events_executed == b.sim.events_executed &&
         a.sim.frames_sent == b.sim.frames_sent &&
         a.sim.packets_received == b.sim.packets_received &&
         a.sim.mac_collisions == b.sim.mac_collisions;
}

/// Quantile `q` of `sorted` (ascending, nonempty), linearly interpolated.
double quantile(const std::vector<double>& sorted, double q) {
  const double pos = q * static_cast<double>(sorted.size() - 1);
  const auto lo = static_cast<std::size_t>(pos);
  const std::size_t hi = std::min(lo + 1, sorted.size() - 1);
  return sorted[lo] + (sorted[hi] - sorted[lo]) * (pos - static_cast<double>(lo));
}

/// One mode's rounds: wall-time quartiles, and events/s at the median.
struct ModeSummary {
  double q1_s{0.0};
  double median_s{0.0};
  double q3_s{0.0};
  double events_per_s{0.0};
  std::uint64_t events{0};
};

ModeSummary summarize(const std::vector<ModeResult>& runs) {
  std::vector<double> walls;
  for (const ModeResult& r : runs) walls.push_back(r.wall_s);
  std::sort(walls.begin(), walls.end());
  ModeSummary s;
  s.q1_s = quantile(walls, 0.25);
  s.median_s = quantile(walls, 0.5);
  s.q3_s = quantile(walls, 0.75);
  s.events = runs.front().sim.events_executed;
  s.events_per_s = s.median_s > 0.0 ? static_cast<double>(s.events) / s.median_s : 0.0;
  return s;
}

}  // namespace

int main() {
  const int n = icc::exp::env_int("ICC_TRACE_BENCH_NODES", 1000);
  const double sim_time = icc::exp::env_double("ICC_TRACE_BENCH_TIME", 10.0);

  icc::aodv::BlackholeExperimentConfig config;
  config.num_nodes = n;
  // Density-preserving area (same rationale as scale_sweep): N scales the
  // world, not the load per node.
  config.area = 1000.0 * std::sqrt(static_cast<double>(n) / 25.0);
  config.num_connections = n / 5;
  config.num_malicious = 0;
  config.sim_time = sim_time;
  config.traffic_start = 1.0;  // most of the simulated window carries load
  config.seed = 9300;

  std::printf("Trace-overhead bench — N=%d, %.0f s simulated, seed %llu, %d rounds\n\n", n,
              sim_time, static_cast<unsigned long long>(config.seed), kRounds);

  // Round r starts from mode r mod 3, so each mode runs first, second and
  // third in turn.
  std::array<std::vector<ModeResult>, kModes.size()> runs;
  for (int round = 0; round < kRounds; ++round) {
    for (std::size_t i = 0; i < kModes.size(); ++i) {
      const std::size_t m = (static_cast<std::size_t>(round) + i) % kModes.size();
      runs[m].push_back(run_mode(kModes[m], config));
    }
  }
  unsetenv("ICC_TRACE");
  unsetenv("ICC_TRACE_FILE");
  unsetenv("ICC_FLIGHT");

  std::array<ModeSummary, kModes.size()> summary;
  for (std::size_t m = 0; m < kModes.size(); ++m) summary[m] = summarize(runs[m]);
  const ModeSummary& off = summary[0];
  const auto overhead_pct = [&off](const ModeSummary& s) {
    return off.events_per_s > 0.0
               ? 100.0 * (off.events_per_s - s.events_per_s) / off.events_per_s
               : 0.0;
  };

  std::printf("%8s %10s %21s %14s %10s\n", "mode", "median s", "IQR s", "events/s",
              "overhead");
  for (std::size_t m = 0; m < kModes.size(); ++m) {
    const ModeSummary& s = summary[m];
    std::printf("%8s %10.3f %10.3f - %8.3f %14.0f %9.2f%%\n", kModes[m], s.median_s, s.q1_s,
                s.q3_s, s.events_per_s, m == 0 ? 0.0 : overhead_pct(s));
  }

  // Correctness gate: observation must not perturb the simulation.
  bool consistent = true;
  for (const std::vector<ModeResult>& mode_runs : runs) {
    for (const ModeResult& r : mode_runs) {
      consistent = consistent && same_signature(runs[0].front(), r);
    }
  }
  std::printf("\n%s\n", consistent
                            ? "trace-perturbation gate: OK (identical simulation signatures)"
                            : "trace-perturbation gate: FAILED");
  if (!consistent) {
    std::fprintf(stderr,
                 "signature mismatch across modes or rounds (off: %llu events) — "
                 "tracing changed the simulation\n",
                 static_cast<unsigned long long>(runs[0].front().sim.events_executed));
  }
  const double flight_overhead = overhead_pct(summary[1]);
  if (flight_overhead >= 5.0) {
    std::printf("note: median flight overhead %.2f%% exceeds the 5%% budget on this host\n",
                flight_overhead);
  }

  icc::sim::RunReport report;
  report.set_meta("experiment", "trace_overhead");
  report.set_meta("nodes", n);
  report.set_meta("sim_time_s", sim_time);
  report.set_meta("seed", config.seed);
  report.set_meta("rounds", kRounds);
  report.set_meta("flight_overhead_budget_pct", 5.0);
  for (std::size_t m = 0; m < kModes.size(); ++m) {
    const ModeSummary& s = summary[m];
    const std::string mode = kModes[m];
    report.add_gauge(mode + ".wall_s", s.median_s);
    report.add_gauge(mode + ".wall_s_q1", s.q1_s);
    report.add_gauge(mode + ".wall_s_q3", s.q3_s);
    report.add_gauge(mode + ".events_per_s", s.events_per_s);
    report.add_gauge(mode + ".events_executed", static_cast<double>(s.events));
    if (m != 0) report.add_gauge(mode + ".overhead_pct", overhead_pct(s));
  }
  report.add_gauge("signature_consistent", consistent ? 1.0 : 0.0);
  icc::exp::write_report_from_env(report);
  return consistent ? 0 : 1;
}

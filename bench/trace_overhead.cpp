// Trace-overhead microbench: what does observability cost on the simulator
// hot path? The same seeded blackhole scenario is run three times —
//
//   off     no sinks, mask 0, no flight recorder (the default fast path)
//   flight  always-on flight-recorder ring, no text sinks (ICC_FLIGHT=1)
//   full    mask "all" with the JSONL sink writing to /dev/null
//
// — and the bench reports wall-clock seconds, scheduler events/s, and the
// overhead of each traced mode relative to "off". The flight mode's budget
// is < 5% events/s at N=1000 (DESIGN.md §12); the committed
// bench/BENCH_trace.json is this bench's ICC_JSON report at the defaults.
//
// Like scale_sweep, the bench doubles as a correctness gate: tracing
// promises to observe the simulation without perturbing it, so the three
// runs must produce bit-identical simulation signatures (events executed,
// frames sent, packets received, MAC collisions). Any mismatch exits
// nonzero; the wall-clock numbers are reported but never gated in CI
// (shared runners make time thresholds flaky).
//
// Environment knobs: ICC_TRACE_BENCH_NODES (default 1000),
// ICC_TRACE_BENCH_TIME (simulated seconds, default 10), ICC_JSON.
#include <chrono>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <string>

#include "aodv/blackhole_experiment.hpp"
#include "exp/env.hpp"
#include "sim/report.hpp"

namespace {

struct ModeResult {
  std::string mode;
  double wall_s{0.0};
  double events_per_s{0.0};
  icc::aodv::BlackholeExperimentResult sim;
};

ModeResult run_mode(const char* mode, const icc::aodv::BlackholeExperimentConfig& config) {
  // The experiment constructs its own World, which configures tracing from
  // the environment — so the bench selects modes the same way a user would.
  // The runs are strictly serial; nothing reads these variables
  // concurrently.
  unsetenv("ICC_TRACE");
  unsetenv("ICC_TRACE_FILE");
  unsetenv("ICC_FLIGHT");
  if (std::string{mode} == "flight") {
    setenv("ICC_FLIGHT", "1", 1);
  } else if (std::string{mode} == "full") {
    setenv("ICC_TRACE", "all", 1);
    setenv("ICC_TRACE_FILE", "/dev/null", 1);
  }
  ModeResult result;
  result.mode = mode;
  // icc:allow(wall-clock): perf bench measures host wall time only; results never feed simulated state
  const auto start = std::chrono::steady_clock::now();
  result.sim = icc::aodv::run_blackhole_experiment(config);
  // icc:allow(wall-clock): perf bench measures host wall time only; results never feed simulated state
  const auto stop = std::chrono::steady_clock::now();
  result.wall_s = std::chrono::duration<double>(stop - start).count();
  result.events_per_s = result.wall_s > 0.0
                            ? static_cast<double>(result.sim.events_executed) / result.wall_s
                            : 0.0;
  return result;
}

bool same_signature(const ModeResult& a, const ModeResult& b) {
  return a.sim.events_executed == b.sim.events_executed &&
         a.sim.frames_sent == b.sim.frames_sent &&
         a.sim.packets_received == b.sim.packets_received &&
         a.sim.mac_collisions == b.sim.mac_collisions;
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

  std::printf("Trace-overhead bench — N=%d, %.0f s simulated, seed %llu\n\n", n, sim_time,
              static_cast<unsigned long long>(config.seed));

  const ModeResult off = run_mode("off", config);
  const ModeResult flight = run_mode("flight", config);
  const ModeResult full = run_mode("full", config);
  unsetenv("ICC_TRACE");
  unsetenv("ICC_TRACE_FILE");
  unsetenv("ICC_FLIGHT");

  const auto overhead_pct = [&](const ModeResult& m) {
    return off.events_per_s > 0.0
               ? 100.0 * (off.events_per_s - m.events_per_s) / off.events_per_s
               : 0.0;
  };

  std::printf("%8s %10s %14s %12s\n", "mode", "wall s", "events/s", "overhead");
  for (const ModeResult* m : {&off, &flight, &full}) {
    std::printf("%8s %10.3f %14.0f %11.2f%%\n", m->mode.c_str(), m->wall_s, m->events_per_s,
                m == &off ? 0.0 : overhead_pct(*m));
  }

  // Correctness gate: observation must not perturb the simulation.
  const bool consistent = same_signature(off, flight) && same_signature(off, full);
  std::printf("\n%s\n", consistent
                            ? "trace-perturbation gate: OK (identical simulation signatures)"
                            : "trace-perturbation gate: FAILED");
  if (!consistent) {
    std::fprintf(stderr,
                 "signature mismatch: off(%llu ev) flight(%llu ev) full(%llu ev) — "
                 "tracing changed the simulation\n",
                 static_cast<unsigned long long>(off.sim.events_executed),
                 static_cast<unsigned long long>(flight.sim.events_executed),
                 static_cast<unsigned long long>(full.sim.events_executed));
  }
  const double flight_overhead = overhead_pct(flight);
  if (flight_overhead >= 5.0) {
    std::printf("note: flight overhead %.2f%% exceeds the 5%% budget on this host\n",
                flight_overhead);
  }

  if (const std::string json_path = icc::exp::env_string("ICC_JSON"); !json_path.empty()) {
    icc::sim::RunReport report;
    report.set_meta("experiment", "trace_overhead");
    report.set_meta("nodes", n);
    report.set_meta("sim_time_s", sim_time);
    report.set_meta("seed", config.seed);
    report.set_meta("flight_overhead_budget_pct", 5.0);
    for (const ModeResult* m : {&off, &flight, &full}) {
      report.add_gauge(m->mode + ".wall_s", m->wall_s);
      report.add_gauge(m->mode + ".events_per_s", m->events_per_s);
      report.add_gauge(m->mode + ".events_executed",
                       static_cast<double>(m->sim.events_executed));
      if (m != &off) report.add_gauge(m->mode + ".overhead_pct", overhead_pct(*m));
    }
    report.add_gauge("signature_consistent", consistent ? 1.0 : 0.0);
    if (!report.write_file(json_path)) {
      std::fprintf(stderr, "failed to write report to %s\n", json_path.c_str());
    }
  }
  return consistent ? 0 : 1;
}

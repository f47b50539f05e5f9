#include "workloads.hpp"

#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstdio>
#include <fstream>

#include "exp/seed.hpp"
#include "fault/plan.hpp"

namespace perfbench {

namespace {

// Simulated durations. Short enough that one measurement window
// (run_seconds in BENCHMARK.json) holds about ten storm runs and forty
// fig-7 runs: host wall time is noisy, and only the median over many runs
// keeps the spread between invocations under the metrics' bounds.
constexpr icc::sim::Time kFig7SimTime = 120.0;
constexpr icc::sim::Time kStormSimTime = 2.0;
constexpr int kStormNodes = 4000;

/// The paper's Fig-7 world: 50 random-waypoint nodes in 1000x1000 m^2, 10
/// CBR flows, nodes 0-1 black holes, inner circle on at L=1. The only
/// workload where STS, IVS, the guard and crypto run.
icc::aodv::BlackholeExperimentConfig fig7_ic() {
  icc::aodv::BlackholeExperimentConfig c;
  c.num_malicious = 2;
  c.plan = icc::fault::black_hole_plan(2);
  c.inner_circle = true;
  c.level = 1;
  c.sim_time = kFig7SimTime;
  return c;
}

/// The density-preserving scale world at N=4000 (mean degree ~5), N/5 CBR
/// pairs from t=1 s, no attackers and no defense. RreqMsg has no TTL, so
/// every discovery floods the whole network: AODV's flood path and the
/// broadcast fan-out of medium, MAC and grid dominate.
icc::aodv::BlackholeExperimentConfig storm4k() {
  icc::aodv::BlackholeExperimentConfig c;
  c.num_nodes = kStormNodes;
  c.area = 1000.0 * std::sqrt(static_cast<double>(kStormNodes) / 25.0);
  c.num_connections = kStormNodes / 5;
  c.num_malicious = 0;
  c.traffic_start = 1.0;
  c.sim_time = kStormSimTime;
  return c;
}

}  // namespace

std::optional<Workload> find_workload(std::string_view name) {
  if (name == "fig7_ic") return Workload{std::string{name}, fig7_ic()};
  // storm4k_exec differs only in the ICC_SIM_THREADS its process runs with.
  if (name == "storm4k" || name == "storm4k_exec") return Workload{std::string{name}, storm4k()};
  return std::nullopt;
}

std::uint64_t run_seed(std::uint64_t seed, std::uint64_t run) {
  return icc::exp::derive_seed(seed, 0, run);
}

double host_seconds() {
  // detlint:allow(wall-clock): the benchmark reports host time only; it never reaches simulated state
  const auto now = std::chrono::steady_clock::now();
  return std::chrono::duration<double>(now.time_since_epoch()).count();
}

std::function<void(icc::sim::World&)> marker_hook(Markers& markers, icc::sim::Time end) {
  return [&markers, end](icc::sim::World& world) {
    world.sched().schedule_at(0.0, [&markers] { markers.start_s = host_seconds(); });
    world.sched().schedule_at(end, [&markers] { markers.end_s = host_seconds(); });
    markers.count = 2;
  };
}

std::string Signature::str() const {
  char buf[320];
  std::snprintf(buf, sizeof buf,
                "events=%llu frames=%llu cbr_sent=%llu cbr_received=%llu collisions=%llu "
                "voting_rounds=%llu mean_energy_j=%.17g",
                static_cast<unsigned long long>(events), static_cast<unsigned long long>(frames),
                static_cast<unsigned long long>(cbr_sent),
                static_cast<unsigned long long>(cbr_received),
                static_cast<unsigned long long>(collisions),
                static_cast<unsigned long long>(voting_rounds), mean_energy_j);
  return buf;
}

Signature signature_of(const icc::aodv::BlackholeExperimentResult& result, int markers) {
  Signature s;
  s.events = result.events_executed - static_cast<std::uint64_t>(markers);
  s.frames = result.frames_sent;
  s.cbr_sent = result.packets_sent;
  s.cbr_received = result.packets_received;
  s.collisions = result.mac_collisions;
  s.voting_rounds = result.voting_rounds;
  s.mean_energy_j = result.mean_energy_j;
  return s;
}

std::string check_outputs(const icc::aodv::BlackholeExperimentConfig& config,
                          const RunOutputs& outputs) {
  const Signature& s = outputs.signature;
  if (!outputs.coverage_consistent) return "coverage ledger inconsistent";
  if (s.events == 0 || s.frames == 0) return "nothing was simulated";
  // Each flow starts in [traffic_start, traffic_start + 1) and sends every
  // 1/rate seconds until sim_time; one packet of slack per flow and end
  // absorbs floating-point accumulation of the send times. A flow that
  // starts before sim_time sends at least its first packet.
  const double flows = static_cast<double>(config.num_connections);
  const double span = config.sim_time - config.traffic_start;
  const double lo =
      span >= 1.0 ? flows * std::max(1.0, (span - 1.0) * config.rate_pps - 1.0) : 0.0;
  const double hi = flows * (span * config.rate_pps + 1.0);
  const auto sent = static_cast<double>(s.cbr_sent);
  if (sent < lo || sent > hi) return "CBR send count outside the rate x duration window";
  if (!(s.mean_energy_j > 0.0) || !std::isfinite(s.mean_energy_j)) {
    return "mean energy not positive and finite";
  }
  if (outputs.node_energy_count != static_cast<std::size_t>(config.num_nodes)) {
    return "per-node energy totals missing";
  }
  if (config.inner_circle && s.voting_rounds == 0) return "inner circle ran no voting round";
  return {};
}

double peak_rss_mb() {
  // VmHWM, not getrusage's ru_maxrss: the latter keeps the peak of the
  // image the process had before exec (the spawning interpreter's).
  std::ifstream status{"/proc/self/status"};
  std::string line;
  while (std::getline(status, line)) {
    if (line.rfind("VmHWM:", 0) == 0) return std::stod(line.substr(6)) / 1024.0;  // kB
  }
  return 0.0;
}

std::string build_description() { return PERFBENCH_BUILD_TYPE; }

std::string json_string(std::string_view s) {
  std::string out = "\"";
  for (const char c : s) {
    if (c == '"' || c == '\\') out += '\\';
    out += c == '\n' ? ' ' : c;
  }
  return out + "\"";
}

}  // namespace perfbench

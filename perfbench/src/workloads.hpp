// The benchmark's workloads, the per-run signature, and the output checks
// every run must pass. Shared by the end-to-end binary, the layer-trace
// binary and the parity tests, so all three build the same worlds.
#pragma once

#include <cstdint>
#include <functional>
#include <optional>
#include <string>
#include <string_view>

#include "aodv/blackhole_experiment.hpp"
#include "sim/world.hpp"

namespace perfbench {

/// A named world. `config` is complete except for `seed` and `world_hook`,
/// which each run supplies. The executive thread count is not part of the
/// world: run.py sets ICC_SIM_THREADS in the run's environment, the
/// documented knob, so storm4k and storm4k_exec share one config.
struct Workload {
  std::string name;
  icc::aodv::BlackholeExperimentConfig config;
};

/// The workload called `name`, or nullopt for an unknown name.
[[nodiscard]] std::optional<Workload> find_workload(std::string_view name);

/// The world seed of run `run` of an invocation given `seed`. Every workload
/// uses the same derivation, so storm4k and storm4k_exec simulate the same
/// worlds for the same seed.
[[nodiscard]] std::uint64_t run_seed(std::uint64_t seed, std::uint64_t run);

/// Host wall time in seconds on a monotonic clock. Never reaches simulated
/// state: the benchmark only reports it.
[[nodiscard]] double host_seconds();

/// Host times of the marker events the benchmark schedules into a run.
/// `start_s` is the first simulated event (t = 0); `end_s` is the last
/// instant of the run (t = sim_time).
struct Markers {
  double start_s{-1.0};
  double end_s{-1.0};
  int count{0};  ///< marker events scheduled (subtracted from event counts)
};

/// A world hook that schedules the start marker at t = 0 and the end marker
/// at t = `end`. Markers only read the host clock, so the simulation is
/// unchanged apart from their own events.
[[nodiscard]] std::function<void(icc::sim::World&)> marker_hook(Markers& markers,
                                                                 icc::sim::Time end);

/// What a run simulated. Two runs of the same world must agree on every
/// field, whatever engine, thread count or tracing ran them.
struct Signature {
  std::uint64_t events{0};  ///< scheduler events, markers excluded
  std::uint64_t frames{0};
  std::uint64_t cbr_sent{0};
  std::uint64_t cbr_received{0};
  std::uint64_t collisions{0};
  std::uint64_t voting_rounds{0};
  double mean_energy_j{0.0};

  bool operator==(const Signature&) const = default;
  /// One line, every field exact (energy printed round-trippable).
  [[nodiscard]] std::string str() const;
};

[[nodiscard]] Signature signature_of(const icc::aodv::BlackholeExperimentResult& result,
                                     int markers);

/// Everything a run's outputs are checked on, whoever produced them.
struct RunOutputs {
  Signature signature;
  bool coverage_consistent{false};
  std::size_t node_energy_count{0};
};

/// Empty when the run's outputs are plausible for `config`, else the first
/// failed check. Checks: coverage-ledger consistency, the CBR send count
/// implied by rate and duration, activity on the air, a positive finite
/// mean energy, one energy total per node, and voting rounds whenever the
/// inner circle is on. Received may exceed sent (the sink counts duplicate
/// deliveries), so the two are not compared.
[[nodiscard]] std::string check_outputs(const icc::aodv::BlackholeExperimentConfig& config,
                                        const RunOutputs& outputs);

/// Peak resident set of this process so far, in MB.
[[nodiscard]] double peak_rss_mb();

/// Build type and compiler this binary was built with, for result context.
[[nodiscard]] std::string build_description();

/// `s` as a quoted JSON string.
[[nodiscard]] std::string json_string(std::string_view s);

}  // namespace perfbench

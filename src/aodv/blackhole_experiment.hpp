// End-to-end black hole experiment (Fig 7): builds the paper's scenario —
// 50 random-waypoint nodes in 1000x1000 m^2, 10 CBR connections, a
// configurable number of black hole attackers, with or without the
// inner-circle framework — runs it, and reports throughput and energy.
#pragma once

#include <array>
#include <cstdint>
#include <functional>
#include <memory>
#include <vector>

#include "core/callbacks.hpp"
#include "fault/ledger.hpp"
#include "fault/plan.hpp"
#include "sim/metrics.hpp"
#include "sim/scheduler.hpp"
#include "sim/types.hpp"

namespace icc::sim {
class World;
}  // namespace icc::sim

namespace icc::aodv {

struct BlackholeExperimentConfig {
  // Fig 7 simulation parameters.
  int num_nodes{50};
  double area{1000.0};
  double tx_range{250.0};
  double max_speed{10.0};      ///< random waypoint, pause 0
  int num_connections{10};
  double rate_pps{4.0};
  std::uint32_t packet_bytes{512};
  sim::Time sim_time{300.0};
  /// Shorthand for the paper's scenario: nodes 0..num_malicious-1 become
  /// black/gray holes (per gray_on/off_period below) when `plan.protocol`
  /// is empty, and CBR endpoints always avoid these low ids so the flows
  /// measure the network, not a dead attacker endpoint.
  int num_malicious{0};

  /// The declarative adversary. Protocol specs name the misbehaving AODV
  /// nodes (overriding the num_malicious shorthand when non-empty); channel
  /// and node specs are applied by a fault::InjectionEngine over the world.
  fault::FaultPlan plan;

  // Defense configuration. `inner_circle` and `watchdog` are mutually
  // exclusive defenses; neither set = undefended baseline.
  bool inner_circle{false};
  bool watchdog{false};    ///< Marti et al. [28] detection-based baseline
  /// AODVSEC-style RREP plausibility verification in the guards plus strike
  /// escalation in the suspicions managers (counters the forgery family and
  /// colluding pairs). Only meaningful with inner_circle.
  bool aodvsec{false};
  /// Geographic packet leash in the injection engine (wormhole counter).
  bool geo_leash{false};
  int level{1};                ///< dependability level L
  int circle_hops{1};          ///< 1 = paper default; 2 = §3 extension
  sim::Time delta_sts{2.0};
  int key_bits{1024};
  core::CryptoCostModel cost{};

  // Gray hole variant (0 => plain black hole).
  sim::Time gray_on_period{0.0};
  sim::Time gray_off_period{0.0};

  sim::Time traffic_start{5.0};  ///< let STS authenticate links first
  std::uint64_t seed{1};

  /// Serve radio neighbor queries from the spatial index (sim/grid.hpp).
  /// Results are byte-identical either way (WorldConfig::spatial_grid).
  bool spatial_grid{true};

  int sim_threads{0};  ///< unread; exists for perfbench, goes with the next benchmark change

  /// Invoked on the freshly constructed (still empty) World. Deployment
  /// parity hook: entry points install net::attach_sim_codec here when
  /// ICC_NET_CODEC is set, forcing every delivered frame through the wire
  /// codec round trip. (A hook rather than a direct call because icc_aodv
  /// sits below icc_net in the link order.)
  std::function<void(sim::World&)> world_hook;
};

struct BlackholeExperimentResult {
  std::uint64_t packets_sent{0};
  std::uint64_t packets_received{0};
  double throughput{0.0};          ///< received / sent (Fig 7a)
  double mean_energy_j{0.0};       ///< per-node average (Fig 7b)
  double mean_latency_s{0.0};
  std::uint64_t blackhole_dropped{0};
  std::uint64_t raw_rreps_suppressed{0};
  std::uint64_t watchdog_blacklisted{0};
  std::uint64_t voting_rounds{0};
  std::uint64_t mac_collisions{0};
  /// Routing-control traffic (RREQs + RREPs sent), the overhead axis of the
  /// defense matrix: an attack that floods discovery or a defense that
  /// forces rediscovery both show up here.
  std::uint64_t control_packets{0};
  /// Injected-action count per attack kind ("fault.kind.<name>" counters;
  /// index = fault::AttackKind). Only the zoo kinds book these.
  std::array<std::uint64_t, fault::kNumAttackKinds> attack_kind_injected{};
  /// Simulator-throughput counters (for perf benches): scheduler events
  /// executed and frames put on the air during the (last) run.
  std::uint64_t events_executed{0};
  std::uint64_t frames_sent{0};

  /// Neutralization-coverage ledger rows (index = fault::FaultClass) and
  /// the ledger's accounting-invariant verdict, from the (last) run.
  std::array<fault::CoverageRow, fault::kNumFaultClasses> coverage{};
  bool coverage_consistent{true};

  /// Per-node energy totals, in joules, from the (last) run.
  std::vector<double> node_energy_j;
  /// Wall-clock profile of the (last) run's scheduler (empty unless
  /// ICC_PROFILE was set).
  sim::SchedulerProfile profile{};
};

/// Run one seeded instance of the experiment.
BlackholeExperimentResult run_blackhole_experiment(const BlackholeExperimentConfig& config);

}  // namespace icc::aodv

#include "aodv/blackhole_experiment.hpp"

#include <algorithm>
#include <cstdio>
#include <cstdlib>
#include <map>
#include <optional>

#include "aodv/guard.hpp"
#include "aodv/misbehavior.hpp"
#include "fault/injector.hpp"
#include "aodv/watchdog.hpp"
#include "core/framework.hpp"
#include "crypto/model_scheme.hpp"
#include "crypto/pki.hpp"
#include "sim/flight.hpp"
#include "sim/world.hpp"
#include "traffic/cbr.hpp"

namespace icc::aodv {

BlackholeExperimentResult run_blackhole_experiment(const BlackholeExperimentConfig& config) {
  sim::WorldConfig world_config;
  world_config.width = config.area;
  world_config.height = config.area;
  world_config.tx_range = config.tx_range;
  world_config.seed = config.seed;
  world_config.spatial_grid = config.spatial_grid;
  sim::World world{world_config};
  if (config.world_hook) config.world_hook(world);

  sim::Rng layout_rng = world.fork_rng(0xB1ACull);

  // Shared cryptographic substrate (trusted dealer at init time, §2).
  crypto::ModelThresholdScheme scheme{config.seed, std::max(config.level, 1),
                                      config.key_bits};
  crypto::ModelPki pki{config.seed ^ 0x5A5Aull, config.key_bits};
  crypto::ModelCipher cipher;

  // The adversary is a FaultPlan. The num_malicious shorthand synthesizes
  // the paper's attackers — nodes 0..m-1 as black/gray holes — unless the
  // caller supplied explicit protocol specs (ids are structural, so which
  // ids attack does not bias the uniform geometry).
  fault::FaultPlan plan = config.plan;
  if (plan.protocol.empty() && config.num_malicious > 0) {
    plan.protocol = fault::gray_hole_plan(config.num_malicious, config.gray_on_period,
                                          config.gray_off_period)
                        .protocol;
  }
  // A protocol-only plan never reaches the InjectionEngine's validation, so
  // check here: every malformed plan dies at setup whatever its shape.
  if (const std::string err = plan.validate(); !err.empty()) {
    std::fprintf(stderr, "blackhole_experiment: invalid fault plan: %s\n", err.c_str());
    std::abort();
  }
  std::map<sim::NodeId, const fault::ProtocolFault*> attackers;
  for (const fault::ProtocolFault& spec : plan.protocol) attackers.emplace(spec.node, &spec);

  const int n = config.num_nodes;
  std::vector<std::unique_ptr<Aodv>> agents;
  std::vector<std::unique_ptr<core::InnerCircleNode>> circles;
  std::vector<std::unique_ptr<AodvGuard>> guards;
  std::vector<std::unique_ptr<Watchdog>> watchdogs;
  agents.reserve(static_cast<std::size_t>(n));

  for (int i = 0; i < n; ++i) {
    sim::RandomWaypoint::Params mob;
    mob.width = config.area;
    mob.height = config.area;
    mob.min_speed = 1.0;
    mob.max_speed = config.max_speed;
    mob.pause = 0.0;
    const sim::Vec2 start = layout_rng.point_in(config.area, config.area);
    sim::Node& node = world.add_node(std::make_unique<sim::RandomWaypoint>(
        mob, start, world.fork_rng(0x6D6F62ull + static_cast<std::uint64_t>(i))));

    const auto attacker = attackers.find(static_cast<sim::NodeId>(i));
    const bool malicious = attacker != attackers.end();
    if (malicious) {
      agents.push_back(
          std::make_unique<MisbehaviorAodv>(node, Aodv::Params{}, *attacker->second));
    } else {
      agents.push_back(std::make_unique<Aodv>(node, Aodv::Params{}));
    }

    if (config.inner_circle && !malicious) {
      core::InnerCircleConfig icc_config;
      icc_config.level = config.level;
      icc_config.circle_hops = config.circle_hops;
      icc_config.mode = core::VotingMode::kDeterministic;
      icc_config.sts.delta_sts = config.delta_sts;
      icc_config.ivs.cost = config.cost;
      circles.push_back(std::make_unique<core::InnerCircleNode>(node, icc_config, scheme,
                                                                pki, cipher));
      SecParams sec;
      sec.verify = config.aodvsec;
      sec.suspect_on_reject = config.aodvsec;
      guards.push_back(std::make_unique<AodvGuard>(*agents.back(), *circles.back(), sec));
      if (config.aodvsec) {
        // Three implausible RREPs inside a minute convict; once one forger
        // falls, its colluders fall at half the threshold.
        circles.back()->suspicions().set_escalation({3, 60.0, true});
      }
      circles.back()->start();
    }
    if (config.watchdog && !malicious) {
      watchdogs.push_back(std::make_unique<Watchdog>(*agents.back(), Watchdog::Params{}));
    }
    traffic::CbrConnection::attach_sink(*agents.back());
  }

  // CBR connections between distinct correct nodes (an attacker endpoint
  // would make the flow trivially dead and measure nothing).
  std::vector<std::unique_ptr<traffic::CbrConnection>> connections;
  sim::Rng traffic_rng = world.fork_rng(0xCB12ull);
  const auto pick_correct = [&] {
    return static_cast<sim::NodeId>(
        traffic_rng.uniform_int(static_cast<std::uint32_t>(config.num_malicious),
                                static_cast<std::uint32_t>(n - 1)));
  };
  for (int c = 0; c < config.num_connections; ++c) {
    const sim::NodeId src = pick_correct();
    sim::NodeId dst = pick_correct();
    while (dst == src) dst = pick_correct();
    traffic::CbrConnection::Params params;
    params.rate_pps = config.rate_pps;
    params.packet_bytes = config.packet_bytes;
    params.start = config.traffic_start + traffic_rng.uniform(0.0, 1.0);
    params.stop = config.sim_time;
    connections.push_back(
        std::make_unique<traffic::CbrConnection>(*agents[src], dst, params));
  }

  // Channel, node, and wormhole faults go live last: with none in the plan
  // the engine forks no RNG and installs no hooks, so legacy configurations
  // reproduce their pre-plan numbers bit for bit.
  std::optional<fault::InjectionEngine> engine;
  if (!plan.channel.empty() || !plan.node.empty() || !plan.wormhole.empty()) {
    engine.emplace(world, plan, fault::InjectionOptions{config.geo_leash});
  }

  world.run_until(config.sim_time);

  BlackholeExperimentResult result;
  const sim::MetricsRegistry& metrics = world.metrics();
  result.packets_sent = static_cast<std::uint64_t>(metrics.counter_value("cbr.sent"));
  result.packets_received = static_cast<std::uint64_t>(metrics.counter_value("cbr.received"));
  result.throughput = result.packets_sent
                          ? static_cast<double>(result.packets_received) /
                                static_cast<double>(result.packets_sent)
                          : 0.0;
  result.mean_energy_j = world.mean_energy_joules();
  result.mean_latency_s = metrics.series_by_name("cbr.latency").mean();
  result.blackhole_dropped =
      static_cast<std::uint64_t>(metrics.counter_value("blackhole.data_dropped"));
  result.raw_rreps_suppressed =
      static_cast<std::uint64_t>(metrics.counter_value("icc.suppressed_raw"));
  result.voting_rounds = static_cast<std::uint64_t>(metrics.counter_value("ivs.rounds_started"));
  result.watchdog_blacklisted =
      static_cast<std::uint64_t>(metrics.counter_value("watchdog.blacklisted"));
  result.mac_collisions = world.medium().collisions();
  result.control_packets = static_cast<std::uint64_t>(metrics.counter_value("aodv.rreq_sent") +
                                                      metrics.counter_value("aodv.rrep_sent"));
  for (std::size_t k = 0; k < fault::kNumAttackKinds; ++k) {
    const auto kind = static_cast<fault::AttackKind>(k);
    if (!fault::attack_kind_booked(kind)) continue;
    result.attack_kind_injected[k] = static_cast<std::uint64_t>(
        metrics.counter_value(std::string("fault.kind.") + fault::attack_kind_name(kind)));
  }
  result.events_executed = world.sched().executed();
  result.frames_sent = world.medium().frames_sent();
  const fault::CoverageLedger ledger{world};
  result.coverage = ledger.rows();
  result.coverage_consistent = ledger.consistent();
  // A ledger violation is a post-mortem situation: dump the flight recorder
  // while the world (and its recent history) is still alive.
  if (!result.coverage_consistent) {
    sim::dump_all_flight_recorders("coverage-ledger inconsistency");
  }
  result.node_energy_j.reserve(static_cast<std::size_t>(n));
  for (int i = 0; i < n; ++i) {
    result.node_energy_j.push_back(world.node(static_cast<sim::NodeId>(i))
                                       .energy()
                                       .total_joules(world.config().energy, world.now()));
  }
  result.profile = world.sched().profile();
  return result;
}

}  // namespace icc::aodv

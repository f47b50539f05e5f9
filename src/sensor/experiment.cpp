#include "sensor/experiment.hpp"

#include <algorithm>
#include <map>
#include <memory>
#include <optional>
#include <set>
#include <vector>

#include "core/framework.hpp"
#include "fault/injector.hpp"
#include "crypto/model_scheme.hpp"
#include "crypto/pki.hpp"
#include "sensor/app.hpp"
#include "sensor/base_station.hpp"
#include "sensor/diffusion.hpp"
#include "sim/flight.hpp"
#include "sim/world.hpp"

namespace icc::sensor {

SensorExperimentResult run_sensor_experiment(const SensorExperimentConfig& config) {
  sim::WorldConfig world_config;
  world_config.width = config.area;
  world_config.height = config.area;
  world_config.tx_range = config.tx_range;
  world_config.seed = config.seed;
  sim::World world{world_config};

  sim::Rng layout_rng = world.fork_rng(0x5E01ull);
  sim::Rng fault_rng = world.fork_rng(0x5E02ull);
  sim::Rng field_rng = world.fork_rng(0x5E03ull);

  const TargetField field =
      config.with_target
          ? TargetField::periodic(config.signal, config.sim_time, config.target_period,
                                  config.target_duration, config.area, field_rng)
          : TargetField{config.signal, {}};

  crypto::ModelThresholdScheme scheme{config.seed, std::max(config.level, 1),
                                      config.key_bits};
  crypto::ModelPki pki{config.seed ^ 0xA5A5ull, config.key_bits};
  crypto::ModelCipher cipher;

  // Node 0 is the base station at the field corner; sensors are uniform.
  sim::Node& bs_node = world.add_node(std::make_unique<sim::StaticMobility>(sim::Vec2{0, 0}));
  Diffusion::Params diff_params;
  auto bs_diffusion = std::make_unique<Diffusion>(bs_node, bs_node.id(), diff_params);
  BaseStation::CentralizedRule rule;
  rule.lambda = config.signal.lambda;
  rule.sample_period = config.sample_period;
  rule.debounce = config.debounce;
  BaseStation station{bs_node, *bs_diffusion, config.inner_circle ? &scheme : nullptr, rule};

  // Which sensors are faulty. Explicit plan specs override the uniform
  // num_faulty draw (fault_rng is forked either way, so the downstream fork
  // order — and every legacy number — is unchanged when the plan is empty).
  std::map<sim::NodeId, const fault::SensorFault*> sensor_faults;
  std::set<int> faulty;
  if (!config.plan.sensor.empty()) {
    for (const fault::SensorFault& spec : config.plan.sensor) {
      sensor_faults.emplace(spec.node, &spec);
    }
  } else {
    while (static_cast<int>(faulty.size()) < std::min(config.num_faulty, config.num_sensors)) {
      faulty.insert(static_cast<int>(
          fault_rng.uniform_int(1, static_cast<std::uint32_t>(config.num_sensors))));
    }
  }

  std::vector<std::unique_ptr<Diffusion>> diffusions;
  std::vector<std::unique_ptr<core::InnerCircleNode>> circles;
  std::vector<std::unique_ptr<SensorApp>> apps;

  for (int i = 1; i <= config.num_sensors; ++i) {
    sim::Node& node = world.add_node(std::make_unique<sim::StaticMobility>(
        layout_rng.point_in(config.area, config.area)));
    diffusions.push_back(std::make_unique<Diffusion>(node, bs_node.id(), diff_params));

    core::InnerCircleNode* icc = nullptr;
    if (config.inner_circle) {
      core::InnerCircleConfig icc_config;
      icc_config.level = config.level;
      icc_config.mode = core::VotingMode::kStatistical;
      icc_config.sts.delta_sts = config.delta_sts;
      icc_config.sts.initial_beacon_delay = 2.0;  // fast cold start
      icc_config.ivs.cost = config.cost;
      circles.push_back(std::make_unique<core::InnerCircleNode>(node, icc_config, scheme,
                                                                pki, cipher));
      icc = circles.back().get();
    }

    SensorApp::Params app_params;
    app_params.sample_period = config.sample_period;
    app_params.debounce = config.inner_circle ? 1 : config.debounce;
    const auto spec_it = sensor_faults.find(static_cast<sim::NodeId>(i));
    if (spec_it != sensor_faults.end()) {
      app_params.fault = spec_it->second->type;
      app_params.fault_params = spec_it->second->params;
      app_params.fault_when = spec_it->second->when;
    } else {
      app_params.fault = faulty.count(i) != 0 ? config.fault : FaultType::kNone;
      app_params.fault_params = config.fault_params;
    }
    app_params.fusion = config.fusion;
    apps.push_back(std::make_unique<SensorApp>(node, *diffusions.back(), field, app_params,
                                               icc));
    if (icc != nullptr) icc->start();
  }

  // Channel and node faults go live last: with neither in the plan the
  // engine forks no RNG and installs no hooks, preserving legacy numbers.
  std::optional<fault::InjectionEngine> engine;
  if (!config.plan.channel.empty() || !config.plan.node.empty()) {
    engine.emplace(world, config.plan);
  }

  world.run_until(config.sim_time);

  // ----------------------------------------------------------- metrics
  SensorExperimentResult result;
  const fault::CoverageLedger ledger{world};
  result.coverage = ledger.rows();
  result.coverage_consistent = ledger.consistent();
  // A ledger violation is a post-mortem situation: dump the flight recorder
  // while the world (and its recent history) is still alive.
  if (!result.coverage_consistent) {
    sim::dump_all_flight_recorders("coverage-ledger inconsistency");
  }
  result.notifications =
      static_cast<std::uint64_t>(world.metrics().counter_value("sensor.notifications"));
  result.bs_detections = station.detections().size();
  result.bs_rejected = station.rejected();

  // Per-target: detected iff some notification whose claimed detection time
  // falls inside the target window arrived during (or shortly after) it.
  const sim::Time grace = 2.0 * config.sample_period;
  result.targets = field.events().size();
  double latency_sum = 0.0;
  double error_sum = 0.0;
  for (const TargetEvent& event : field.events()) {
    const BaseStation::Detection* first = nullptr;
    for (const BaseStation::Detection& d : station.detections()) {
      if (d.claimed_t >= event.start && d.claimed_t < event.start + event.duration &&
          d.arrival < event.start + event.duration + grace) {
        if (first == nullptr || d.arrival < first->arrival) first = &d;
      }
    }
    if (first != nullptr) {
      ++result.targets_detected;
      latency_sum += first->arrival - event.start;
      error_sum += sim::distance(first->pos, event.location);
    }
  }
  if (result.targets > 0) {
    result.miss_prob = 1.0 - static_cast<double>(result.targets_detected) /
                                 static_cast<double>(result.targets);
  }
  if (result.targets_detected > 0) {
    result.detection_latency_s = latency_sum / static_cast<double>(result.targets_detected);
    result.localization_error_m = error_sum / static_cast<double>(result.targets_detected);
  }

  // False alarms: sampling epochs (5 s buckets) with no target in which the
  // station accepted a notification claiming a detection.
  const auto in_target_window = [&](sim::Time t) {
    for (const TargetEvent& event : field.events()) {
      if (t >= event.start - config.sample_period &&
          t < event.start + event.duration + config.sample_period) {
        return true;
      }
    }
    return false;
  };
  std::set<std::int64_t> spurious_epochs;
  for (const BaseStation::Detection& d : station.detections()) {
    if (!in_target_window(d.claimed_t)) {
      spurious_epochs.insert(static_cast<std::int64_t>(d.claimed_t / config.sample_period));
    }
  }
  std::int64_t quiet_epochs = 0;
  for (sim::Time t = 0.0; t < config.sim_time; t += config.sample_period) {
    if (!in_target_window(t)) ++quiet_epochs;
  }
  result.false_alarm_prob = quiet_epochs > 0 ? static_cast<double>(spurious_epochs.size()) /
                                                   static_cast<double>(quiet_epochs)
                                             : 0.0;

  // Energy: per-sensor (the mains-powered base station is excluded).
  // "Active" energy counts radio tx/rx plus crypto and models duty-cycled
  // sensors whose idle radio is off (DESIGN.md §3); total includes idle.
  const auto& energy_params = world.config().energy;
  double active_sum = 0.0;
  double total_sum = 0.0;
  for (sim::NodeId i = 1; i < world.num_nodes(); ++i) {
    const sim::EnergyMeter& meter = world.node(i).energy();
    active_sum += energy_params.tx_w * meter.tx_time() + energy_params.rx_w * meter.rx_time() +
                  meter.extra_joules();
    total_sum += meter.total_joules(energy_params, world.now());
  }
  const double n = static_cast<double>(config.num_sensors);
  result.active_energy_mj = 1000.0 * active_sum / n;
  result.total_energy_j = total_sum / n;
  return result;
}

}  // namespace icc::sensor

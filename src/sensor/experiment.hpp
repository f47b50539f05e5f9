// End-to-end faulty-sensor experiment (Fig 8): 100 static sensors in
// 200x200 m^2 plus a base station, a periodic target, 10 faulty sensors
// under one of the paper's fault models, run either centralized ("No IC")
// or with inner-circle statistical voting at dependability level L.
#pragma once

#include <array>
#include <cstdint>

#include "core/callbacks.hpp"
#include "fault/ledger.hpp"
#include "fault/plan.hpp"
#include "sensor/field.hpp"
#include "sensor/fusion_rules.hpp"
#include "sim/metrics.hpp"

namespace icc::sensor {

struct SensorExperimentConfig {
  // Fig 8 simulation parameters.
  int num_sensors{100};
  double area{200.0};
  double tx_range{40.0};
  SignalModel signal{};             ///< K*T = 20000, k = 2, lambda = 6.635
  sim::Time sample_period{5.0};
  sim::Time sim_time{200.0};
  sim::Time target_period{100.0};
  sim::Time target_duration{25.0};
  bool with_target{true};           ///< false reproduces Fig 8(d)

  int num_faulty{10};
  FaultType fault{FaultType::kNone};
  FaultParams fault_params{};

  /// The declarative adversary. Sensor specs name the faulty sensors
  /// explicitly (overriding the uniform num_faulty draw when non-empty;
  /// note node 0 is the base station, sensors are 1..num_sensors); channel
  /// and node specs are applied by a fault::InjectionEngine over the world.
  fault::FaultPlan plan;

  // Inner-circle configuration.
  bool inner_circle{false};
  int level{2};                     ///< L in 2..7 (Fig 8)
  sim::Time delta_sts{100.0};
  int key_bits{512};
  FusionParams fusion{};            ///< eta = 5 (paper)
  core::CryptoCostModel cost{};

  int debounce{2};                  ///< centralized per-sensor debounce
  std::uint64_t seed{1};
};

struct SensorExperimentResult {
  double miss_prob{0.0};            ///< Fig 8(a): fraction of targets never reported
  double false_alarm_prob{0.0};     ///< Fig 8(b): P(spurious report) per quiet epoch
  double active_energy_mj{0.0};     ///< Fig 8(c)/(d): mean per-sensor radio+crypto mJ
  double total_energy_j{0.0};       ///< including idle draw
  double detection_latency_s{0.0};  ///< Fig 8(e): target start -> first report
  double localization_error_m{0.0}; ///< Fig 8(f): |true - first reported position|
  std::uint64_t notifications{0};
  std::uint64_t bs_detections{0};
  std::uint64_t bs_rejected{0};
  std::uint64_t targets{0};
  std::uint64_t targets_detected{0};

  /// Neutralization-coverage ledger rows (index = fault::FaultClass) and
  /// the ledger's accounting-invariant verdict.
  std::array<fault::CoverageRow, fault::kNumFaultClasses> coverage{};
  bool coverage_consistent{true};
};

SensorExperimentResult run_sensor_experiment(const SensorExperimentConfig& config);

}  // namespace icc::sensor

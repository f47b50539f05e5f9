// Shared table driver for the Fig 8 sensor-study benches (nominal and
// weak-signal variants), built on the exp campaign runner: the (config,
// fault) grid runs in parallel over (cell, run) jobs, checkpointing to
// ICC_CAMPAIGN_JOURNAL and honoring ICC_THREADS.
#pragma once

#include <cstdio>
#include <cstdlib>
#include <string>
#include <vector>

#include "exp/env.hpp"
#include "exp/report.hpp"
#include "exp/runner.hpp"
#include "sensor/experiment.hpp"
#include "sim/report.hpp"

namespace icc::bench {

/// Run the full Fig 8 grid (No IC + IC L in [2,7], five fault models) and
/// print the six sub-figures as tables: miss alarm (a), false alarm (b),
/// energy with target (c), energy without target (d), detection latency (e),
/// localization error (f).
inline void run_fig8(const char* experiment, double kt, int runs, double sim_time) {
  using sensor::FaultType;
  const FaultType faults[] = {FaultType::kNone, FaultType::kInterference,
                              FaultType::kCalibration, FaultType::kStuckAtZero,
                              FaultType::kPositionError};
  const int levels_lo = 2;
  const int levels_hi = exp::env_int("ICC_MAX_LEVEL", 7);

  std::printf("100 sensors, 200x200 m^2, K*T=%.0f, 10 faulty nodes, lambda=6.635\n", kt);
  std::printf("(%d runs per cell, %.0f s simulated; paper uses 50 runs)\n\n", runs, sim_time);

  std::vector<std::string> configs;
  configs.reserve(static_cast<std::size_t>(levels_hi - levels_lo + 2));
  configs.emplace_back("No IC");
  for (int level = levels_lo; level <= levels_hi; ++level) {
    configs.push_back("IC, L=" + std::to_string(level));
  }
  std::vector<std::string> fault_labels;
  fault_labels.reserve(std::size(faults));
  for (const FaultType fault : faults) fault_labels.emplace_back(sensor::fault_name(fault));

  // Each (config, fault) cell job simulates one seeded world twice — with
  // and without a target (Fig 8(d)) — from the same seed. Common random
  // numbers: every config row simulates the same seeded worlds, so
  // differences between rows are pure treatment effects.
  exp::Campaign campaign;
  campaign.name = experiment;
  campaign.base_seed = 100;
  campaign.runs = runs;
  campaign.common_random_numbers = true;
  campaign.grid.axis("config", configs).axis("fault", fault_labels);
  campaign.job = [&](const exp::JobContext& ctx) {
    const std::size_t c = campaign.grid.level(ctx.cell, 0);
    sensor::SensorExperimentConfig config;
    config.signal.kt = kt;
    config.fault = faults[campaign.grid.level(ctx.cell, 1)];
    config.inner_circle = c > 0;
    config.level = c > 0 ? levels_lo + static_cast<int>(c) - 1 : 2;
    config.sim_time = sim_time;
    config.seed = ctx.seed;
    const sensor::SensorExperimentResult with_target = sensor::run_sensor_experiment(config);
    config.with_target = false;
    const sensor::SensorExperimentResult no_target = sensor::run_sensor_experiment(config);
    exp::JobOutputs out;
    out["miss_prob"] = {with_target.miss_prob};
    out["false_alarm"] = {with_target.false_alarm_prob};
    out["active_energy_mj"] = {with_target.active_energy_mj};
    out["active_energy_mj_quiet"] = {no_target.active_energy_mj};
    out["latency_s"] = {with_target.detection_latency_s};
    out["loc_error_m"] = {with_target.localization_error_m};
    return out;
  };
  const exp::CampaignResult result = exp::run_campaign(campaign);
  const auto cell = [&](std::size_t c, std::size_t f) {
    return campaign.grid.cell_index({c, f});
  };

  const auto print_table = [&](const char* title, const char* unit, const char* metric,
                               double scale) {
    std::printf("%s\n", title);
    std::printf("%-10s", "config");
    for (const FaultType fault : faults) std::printf(" %14s", sensor::fault_name(fault));
    std::printf("   [%s]\n", unit);
    for (std::size_t c = 0; c < configs.size(); ++c) {
      std::printf("%-10s", configs[c].c_str());
      for (std::size_t f = 0; f < std::size(faults); ++f) {
        std::printf(" %14.2f", scale * result.mean(cell(c, f), metric));
      }
      std::printf("\n");
    }
    std::printf("\n");
  };

  print_table("Fig 8(a): miss alarm probability", "%", "miss_prob", 100.0);
  print_table("Fig 8(b): false alarm probability (per quiet epoch)", "%", "false_alarm",
              100.0);
  print_table("Fig 8(c): active energy with target", "mJ/node", "active_energy_mj", 1.0);
  print_table("Fig 8(d): active energy with no target", "mJ/node", "active_energy_mj_quiet",
              1.0);
  print_table("Fig 8(e): target detection latency", "s", "latency_s", 1.0);
  print_table("Fig 8(f): target localization error", "m", "loc_error_m", 1.0);

  // Structured export: per (config, fault) cell, the cross-run series for
  // the headline metrics, as JSON at the path ICC_JSON names.
  sim::RunReport report;
  report.set_meta("experiment", experiment);
  report.set_meta("kt", kt);
  report.set_meta("runs", static_cast<std::uint64_t>(runs));
  report.set_meta("sim_time_s", sim_time);
  report.set_meta("seed", campaign.base_seed);
  result.add_to_report(report);
  exp::write_report_from_env(report);
}

}  // namespace icc::bench

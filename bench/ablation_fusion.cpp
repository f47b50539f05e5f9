// Fusion-algorithm ablation: re-runs the Fig 8 sensor scenario (inner
// circle, L = 4) with the voting fusion swapped between the paper's
// FT-cluster algorithm, the FT-mean baseline [18, 19], and a plain mean —
// quantifying §4.3's design argument on the end-to-end metrics
// (localization error, false alarms, misses) under each fault model.
//
// Environment knobs: ICC_RUNS (default 5), ICC_SIM_TIME (default 200 s),
// ICC_THREADS, ICC_CAMPAIGN_JOURNAL, ICC_JSON.
#include <cstdio>
#include <cstdlib>
#include <string>
#include <vector>

#include "exp/env.hpp"
#include "exp/report.hpp"
#include "exp/runner.hpp"
#include "sensor/experiment.hpp"
#include "sim/report.hpp"

namespace {

const char* algo_name(icc::sensor::FusionAlgo algo) {
  switch (algo) {
    case icc::sensor::FusionAlgo::kFtCluster:
      return "ft-cluster";
    case icc::sensor::FusionAlgo::kFtMean:
      return "ft-mean";
    case icc::sensor::FusionAlgo::kPlainMean:
      return "plain-mean";
  }
  return "?";
}

}  // namespace

int main() {
  using namespace icc::sensor;
  const int runs = icc::exp::env_int("ICC_RUNS", 5);
  const double sim_time = icc::exp::env_double("ICC_SIM_TIME", 200.0);

  const FaultType faults[] = {FaultType::kNone, FaultType::kInterference,
                              FaultType::kCalibration, FaultType::kStuckAtZero,
                              FaultType::kPositionError};
  const FusionAlgo algos[] = {FusionAlgo::kFtCluster, FusionAlgo::kFtMean,
                              FusionAlgo::kPlainMean};

  std::printf("Ablation — fusion algorithm inside inner-circle statistical voting (L=4)\n");
  std::printf("(%d runs per cell, %.0f s simulated)\n\n", runs, sim_time);

  icc::exp::Campaign campaign;
  campaign.name = "ablation_fusion";
  campaign.base_seed = 500;
  campaign.runs = runs;
  campaign.common_random_numbers = true;  // same worlds across fusion algorithms
  {
    std::vector<std::string> labels;
    for (const FusionAlgo algo : algos) labels.emplace_back(algo_name(algo));
    campaign.grid.axis("fusion", labels);
    labels.clear();
    for (const FaultType fault : faults) labels.emplace_back(fault_name(fault));
    campaign.grid.axis("fault", labels);
  }
  campaign.job = [&](const icc::exp::JobContext& ctx) {
    SensorExperimentConfig config;
    config.inner_circle = true;
    config.level = 4;
    config.fault = faults[campaign.grid.level(ctx.cell, 1)];
    config.fusion.algo = algos[campaign.grid.level(ctx.cell, 0)];
    config.sim_time = sim_time;
    config.seed = ctx.seed;
    const SensorExperimentResult r = run_sensor_experiment(config);
    icc::exp::JobOutputs out;
    out["loc_error_m"] = {r.localization_error_m};
    out["false_alarm"] = {r.false_alarm_prob};
    out["miss_prob"] = {r.miss_prob};
    return out;
  };
  const icc::exp::CampaignResult result = icc::exp::run_campaign(campaign);

  const auto table = [&](const char* title, const char* metric, double scale) {
    std::printf("%s\n%-12s", title, "fusion");
    for (const FaultType fault : faults) std::printf(" %14s", fault_name(fault));
    std::printf("\n");
    for (std::size_t a = 0; a < std::size(algos); ++a) {
      std::printf("%-12s", algo_name(algos[a]));
      for (std::size_t f = 0; f < std::size(faults); ++f) {
        std::printf(" %14.2f", scale * result.mean(campaign.grid.cell_index({a, f}), metric));
      }
      std::printf("\n");
    }
    std::printf("\n");
  };

  table("localization error [m]", "loc_error_m", 1.0);
  table("false alarm probability [%]", "false_alarm", 100.0);
  table("miss alarm probability [%]", "miss_prob", 100.0);

  icc::sim::RunReport report;
  report.set_meta("experiment", "ablation_fusion");
  report.set_meta("runs", static_cast<std::uint64_t>(runs));
  report.set_meta("sim_time_s", sim_time);
  report.set_meta("seed", campaign.base_seed);
  result.add_to_report(report);
  icc::exp::write_report_from_env(report);
  return 0;
}

// Network-level sensor tests: the diffusion gradient tree and end-to-end
// experiment properties (miss/false-alarm/energy behaviour of §5.2).
#include <gtest/gtest.h>

#include <memory>

#include "exp/runner.hpp"
#include "sensor/base_station.hpp"
#include "sensor/diffusion.hpp"
#include "sensor/experiment.hpp"
#include "sim/world.hpp"

namespace icc::sensor {
namespace {

class DiffusionTest : public ::testing::Test {
 protected:
  void build(std::vector<sim::Vec2> positions, double range = 40.0) {
    sim::WorldConfig config;
    config.width = 200;
    config.height = 200;
    config.tx_range = range;
    config.seed = 51;
    world_ = std::make_unique<sim::World>(config);
    for (const sim::Vec2 pos : positions) {
      sim::Node& node = world_->add_node(std::make_unique<sim::StaticMobility>(pos));
      agents_.push_back(std::make_unique<Diffusion>(node, 0, Diffusion::Params{}));
    }
    agents_[0]->set_sink_handler([this](const NotificationMsg& msg, sim::NodeId) {
      received_.push_back(msg);
    });
  }

  std::unique_ptr<sim::World> world_;
  std::vector<std::unique_ptr<Diffusion>> agents_;
  std::vector<NotificationMsg> received_;
};

TEST_F(DiffusionTest, GradientTreeForms) {
  build({{0, 0}, {30, 0}, {60, 0}, {90, 0}});
  world_->run_until(2.0);
  for (std::size_t i = 1; i < agents_.size(); ++i) {
    EXPECT_TRUE(agents_[i]->has_gradient()) << i;
  }
  // The chain parents point towards the sink.
  EXPECT_EQ(agents_[1]->parent(), 0u);
  EXPECT_EQ(agents_[2]->parent(), 1u);
  EXPECT_EQ(agents_[3]->parent(), 2u);
}

TEST_F(DiffusionTest, NotificationClimbsToSink) {
  build({{0, 0}, {30, 0}, {60, 0}, {90, 0}});
  world_->run_until(2.0);
  agents_[3]->send_to_sink({1, 2, 3});
  world_->run_until(3.0);
  ASSERT_EQ(received_.size(), 1u);
  EXPECT_EQ(received_[0].origin, 3u);
  EXPECT_EQ(received_[0].data, (std::vector<std::uint8_t>{1, 2, 3}));
}

TEST_F(DiffusionTest, NoGradientMeansDrop) {
  build({{0, 0}, {30, 0}, {190, 190}});  // node 2 disconnected
  world_->run_until(2.0);
  EXPECT_FALSE(agents_[2]->has_gradient());
  agents_[2]->send_to_sink({9});
  world_->run_until(3.0);
  EXPECT_TRUE(received_.empty());
  EXPECT_GE(world_->metrics().counter_value("diff.no_gradient_drop"), 1.0);
}

TEST_F(DiffusionTest, TreeRepairsAfterParentCrash) {
  // Two disjoint relays: when the active parent dies, the next interest
  // flood re-grafts through the other.
  build({{0, 0}, {30, 10}, {30, -10}, {60, 0}});
  world_->run_until(2.0);
  const sim::NodeId parent = agents_[3]->parent();
  world_->node(parent).set_down(true);
  // Next interest flood happens at t = 50s (default period).
  world_->run_until(55.0);
  agents_[3]->send_to_sink({4});
  world_->run_until(56.0);
  ASSERT_EQ(received_.size(), 1u);
  EXPECT_NE(agents_[3]->parent(), parent);
}

// ------------------------------------------------------ experiment level

TEST(SensorExperiment, CleanFieldDetectsAllTargetsBothModes) {
  SensorExperimentConfig config;
  config.sim_time = 150.0;
  config.seed = 61;
  config.num_faulty = 0;

  const auto centralized = run_sensor_experiment(config);
  EXPECT_EQ(centralized.miss_prob, 0.0);
  EXPECT_GT(centralized.targets, 0u);

  config.inner_circle = true;
  config.level = 3;
  const auto ic = run_sensor_experiment(config);
  EXPECT_EQ(ic.miss_prob, 0.0);
}

TEST(SensorExperiment, InterferenceFalseAlarmsSuppressedByInnerCircle) {
  SensorExperimentConfig config;
  config.sim_time = 150.0;
  config.seed = 62;
  config.fault = FaultType::kInterference;

  const auto centralized = run_sensor_experiment(config);
  EXPECT_GT(centralized.false_alarm_prob, 0.2);

  config.inner_circle = true;
  config.level = 4;
  const auto ic = run_sensor_experiment(config);
  EXPECT_LT(ic.false_alarm_prob, 0.05);
}

TEST(SensorExperiment, InnerCircleSavesActiveEnergy) {
  SensorExperimentConfig config;
  config.sim_time = 150.0;
  config.seed = 63;
  const auto centralized = run_sensor_experiment(config);
  config.inner_circle = true;
  config.level = 3;
  const auto ic = run_sensor_experiment(config);
  // The paper's headline: >= 50% energy reduction via in-network processing.
  EXPECT_LT(ic.active_energy_mj, 0.5 * centralized.active_energy_mj);
}

TEST(SensorExperiment, InnerCircleDetectsFaster) {
  SensorExperimentConfig config;
  config.sim_time = 150.0;
  config.seed = 64;
  config.num_faulty = 0;
  const auto centralized = run_sensor_experiment(config);
  config.inner_circle = true;
  config.level = 3;
  const auto ic = run_sensor_experiment(config);
  ASSERT_GT(ic.targets_detected, 0u);
  EXPECT_LT(ic.detection_latency_s, 0.5 * centralized.detection_latency_s);
}

TEST(SensorExperiment, InnerCircleLocalizesBetterUnderPositionFaults) {
  // Three seeded worlds, each run centralized and with IC L=4.
  exp::Campaign campaign;
  campaign.name = "localize_position_faults";
  campaign.base_seed = 65;
  campaign.runs = 3;
  campaign.common_random_numbers = true;
  campaign.grid.axis("config", {"centralized", "IC, L=4"});
  campaign.job = [](const exp::JobContext& ctx) {
    SensorExperimentConfig config;
    config.sim_time = 150.0;
    config.fault = FaultType::kPositionError;
    config.seed = ctx.seed;
    config.inner_circle = ctx.cell == 1;
    config.level = 4;
    return exp::JobOutputs{
        {"localization_error_m", {run_sensor_experiment(config).localization_error_m}}};
  };
  const auto result = exp::run_campaign(
      campaign, exp::RunnerOptions{}.with_threads(1).with_journal("").quiet());
  ASSERT_EQ(result.series(0, "localization_error_m").count, 3u);
  ASSERT_EQ(result.series(1, "localization_error_m").count, 3u);
  EXPECT_LT(result.mean(1, "localization_error_m"), result.mean(0, "localization_error_m"));
}

TEST(SensorExperiment, NoTargetRunHasNoDetections) {
  SensorExperimentConfig config;
  config.sim_time = 100.0;
  config.seed = 66;
  config.with_target = false;
  config.num_faulty = 0;
  config.inner_circle = true;
  config.level = 3;
  const auto r = run_sensor_experiment(config);
  EXPECT_EQ(r.targets, 0u);
  EXPECT_EQ(r.bs_detections, 0u);
}

TEST(SensorExperiment, DeterministicPerSeed) {
  SensorExperimentConfig config;
  config.sim_time = 80.0;
  config.seed = 67;
  const auto a = run_sensor_experiment(config);
  const auto b = run_sensor_experiment(config);
  EXPECT_EQ(a.bs_detections, b.bs_detections);
  EXPECT_DOUBLE_EQ(a.active_energy_mj, b.active_energy_mj);
  EXPECT_DOUBLE_EQ(a.localization_error_m, b.localization_error_m);
}

TEST(SensorExperiment, CentralizedEnergyInsensitiveToTargetPresence) {
  // Raw data collection ships every sample regardless: energy with and
  // without a target must be close (Fig 8(c) vs 8(d), "No IC" bars).
  SensorExperimentConfig config;
  config.sim_time = 100.0;
  config.seed = 68;
  const auto with_target = run_sensor_experiment(config);
  config.with_target = false;
  const auto without = run_sensor_experiment(config);
  EXPECT_NEAR(with_target.active_energy_mj / without.active_energy_mj, 1.0, 0.15);
}

}  // namespace
}  // namespace icc::sensor

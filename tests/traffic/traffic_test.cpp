// Tests for the CBR traffic generator and run-level statistics plumbing.
#include <gtest/gtest.h>

#include <memory>

#include "sim/world.hpp"
#include "traffic/cbr.hpp"

namespace icc::traffic {
namespace {

class CbrTest : public ::testing::Test {
 protected:
  void SetUp() override {
    sim::WorldConfig config;
    config.tx_range = 250;
    config.seed = 15;
    world_ = std::make_unique<sim::World>(config);
    for (int i = 0; i < 3; ++i) {
      sim::Node& node = world_->add_node(
          std::make_unique<sim::StaticMobility>(sim::Vec2{150.0 * i, 0.0}));
      agents_.push_back(std::make_unique<aodv::Aodv>(node, aodv::Aodv::Params{}));
      CbrConnection::attach_sink(*agents_.back());
    }
  }

  std::unique_ptr<sim::World> world_;
  std::vector<std::unique_ptr<aodv::Aodv>> agents_;
};

TEST_F(CbrTest, RateAndWindowRespected) {
  CbrConnection::Params params;
  params.rate_pps = 4.0;
  params.start = 1.0;
  params.stop = 11.0;
  CbrConnection conn{*agents_[0], 2, params};
  world_->run_until(20.0);
  // 4 pkt/s over a 10 s window.
  EXPECT_NEAR(static_cast<double>(conn.sent()), 40.0, 1.5);
  EXPECT_DOUBLE_EQ(world_->metrics().counter_value("cbr.sent"), static_cast<double>(conn.sent()));
  // Everything delivered over the clean 2-hop path.
  EXPECT_NEAR(world_->metrics().counter_value("cbr.received"), static_cast<double>(conn.sent()),
              2.0);
}

TEST_F(CbrTest, LatencySampledAtSink) {
  CbrConnection::Params params;
  params.start = 1.0;
  params.stop = 5.0;
  CbrConnection conn{*agents_[0], 2, params};
  world_->run_until(10.0);
  const auto& lat = world_->metrics().series_by_name("cbr.latency");
  ASSERT_GT(lat.count, 0u);
  EXPECT_GT(lat.mean(), 0.0);
  EXPECT_LT(lat.mean(), 1.5);  // first packet pays route discovery
  EXPECT_LT(lat.min, 0.05);    // steady-state 2-hop latency is milliseconds
}

TEST_F(CbrTest, MultipleConnectionsShareTheStack) {
  CbrConnection::Params params;
  params.start = 1.0;
  params.stop = 6.0;
  CbrConnection a{*agents_[0], 2, params};
  CbrConnection b{*agents_[2], 0, params};
  world_->run_until(12.0);
  EXPECT_GT(a.sent(), 15u);
  EXPECT_GT(b.sent(), 15u);
  EXPECT_NEAR(world_->metrics().counter_value("cbr.received"),
              static_cast<double>(a.sent() + b.sent()), 4.0);
}

}  // namespace
}  // namespace icc::traffic

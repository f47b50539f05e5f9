// Secure Topology Service tests: the §4.1 Completeness / One-Hop Accuracy /
// Two-Hop Accuracy properties, NS-Lowe-based link authentication, and
// behavior under movement and crashes.
#include <gtest/gtest.h>

#include <memory>

#include "core/framework.hpp"
#include "crypto/model_scheme.hpp"
#include "crypto/pki.hpp"
#include "sim/world.hpp"

namespace icc::core {
namespace {

class TopologyTest : public ::testing::Test {
 protected:
  void build(std::vector<sim::Vec2> positions, double range = 250.0,
             sim::Time delta_sts = 2.0) {
    sim::WorldConfig config;
    config.width = 1000;
    config.height = 1000;
    config.tx_range = range;
    config.seed = 11;
    world_ = std::make_unique<sim::World>(config);
    scheme_ = std::make_unique<crypto::ModelThresholdScheme>(1, 2, 512);
    pki_ = std::make_unique<crypto::ModelPki>(2, 512);

    for (const sim::Vec2 pos : positions) {
      sim::Node& node = world_->add_node(std::make_unique<sim::StaticMobility>(pos));
      InnerCircleConfig icc_config;
      icc_config.sts.delta_sts = delta_sts;
      circles_.push_back(
          std::make_unique<InnerCircleNode>(node, icc_config, *scheme_, *pki_, cipher_));
      circles_.back()->start();
    }
  }

  SecureTopologyService& sts(std::size_t i) { return circles_[i]->sts(); }

  std::unique_ptr<sim::World> world_;
  std::unique_ptr<crypto::ModelThresholdScheme> scheme_;
  std::unique_ptr<crypto::ModelPki> pki_;
  crypto::ModelCipher cipher_;
  std::vector<std::unique_ptr<InnerCircleNode>> circles_;
};

TEST_F(TopologyTest, OneHopAccuracy) {
  // Three nodes in range of each other discover and authenticate all links
  // within a couple of beacon periods.
  build({{0, 0}, {100, 0}, {0, 100}});
  world_->run_until(5.0);
  for (std::size_t i = 0; i < 3; ++i) {
    const auto circle = sts(i).inner_circle();
    EXPECT_EQ(circle.size(), 2u) << "node " << i;
  }
  EXPECT_TRUE(sts(0).is_neighbor(1));
  EXPECT_TRUE(sts(1).is_neighbor(0));
}

TEST_F(TopologyTest, OutOfRangeNodesExcluded) {
  build({{0, 0}, {100, 0}, {800, 800}});
  world_->run_until(5.0);
  EXPECT_EQ(sts(0).inner_circle(), (std::vector<sim::NodeId>{1}));
  EXPECT_TRUE(sts(2).inner_circle().empty());
}

TEST_F(TopologyTest, TwoHopAccuracy) {
  // 0 -- 1 -- 2 chain (0 and 2 out of range of each other): node 0 learns
  // from node 1's beacons that node 2 is 1's neighbor.
  build({{0, 0}, {200, 0}, {400, 0}});
  world_->run_until(6.0);
  EXPECT_FALSE(sts(0).is_neighbor(2));
  const auto via_1 = sts(0).neighbors_of(1);
  EXPECT_NE(std::find(via_1.begin(), via_1.end(), 2u), via_1.end());
}

TEST_F(TopologyTest, CompletenessLinkExpiresOnSilence) {
  build({{0, 0}, {100, 0}});
  world_->run_until(5.0);
  ASSERT_TRUE(sts(0).is_neighbor(1));
  // Crash node 1: its beacons stop, and after Delta_STS the link must drop.
  world_->node(1).set_down(true);
  world_->run_until(5.0 + 2.0 + 0.5);
  EXPECT_FALSE(sts(0).is_neighbor(1));
  EXPECT_TRUE(sts(0).inner_circle().empty());
}

TEST_F(TopologyTest, MovedNodeExpiresFromCircle) {
  // Node 1 moves out of range at t=5 via a scripted mobility replacement:
  // emulate by marking it down (radio silence has the same STS-visible
  // effect as moving away).
  build({{0, 0}, {240, 0}});
  world_->run_until(5.0);
  ASSERT_TRUE(sts(0).is_neighbor(1));
  world_->node(1).set_down(true);
  world_->run_until(8.0);
  EXPECT_FALSE(sts(0).is_neighbor(1));
}

TEST_F(TopologyTest, PositionsLearnedFromBeacons) {
  build({{0, 0}, {150, 50}});
  world_->run_until(5.0);
  const auto pos = sts(0).position_of(1);
  ASSERT_TRUE(pos.has_value());
  EXPECT_NEAR(pos->x, 150.0, 1e-6);
  EXPECT_NEAR(pos->y, 50.0, 1e-6);
}

TEST_F(TopologyTest, SessionKeysMatchAcrossThePair) {
  build({{0, 0}, {100, 0}});
  world_->run_until(5.0);
  const crypto::SessionKey* k01 = sts(0).session_with(1);
  const crypto::SessionKey* k10 = sts(1).session_with(0);
  ASSERT_NE(k01, nullptr);
  ASSERT_NE(k10, nullptr);
  EXPECT_TRUE(crypto::digest_equal(*k01, *k10));
}

TEST_F(TopologyTest, DistinctPairsGetDistinctKeys) {
  build({{0, 0}, {100, 0}, {0, 100}});
  world_->run_until(5.0);
  const crypto::SessionKey* k01 = sts(0).session_with(1);
  const crypto::SessionKey* k02 = sts(0).session_with(2);
  ASSERT_NE(k01, nullptr);
  ASSERT_NE(k02, nullptr);
  EXPECT_FALSE(crypto::digest_equal(*k01, *k02));
}

TEST_F(TopologyTest, SpoofedBeaconDoesNotRefreshLink) {
  // An attacker (node 2) replays a beacon claiming to be node 1. Without
  // node 1's session keys the per-neighbor tag cannot be valid, so node 0
  // must not treat the forged beacon as authenticated contact.
  build({{0, 0}, {100, 0}, {50, 50}});
  world_->run_until(5.0);
  ASSERT_TRUE(sts(0).is_neighbor(1));

  // Silence the real node 1, then keep injecting forged beacons from 2.
  world_->node(1).set_down(true);
  for (int i = 0; i < 8; ++i) {
    world_->sched().schedule_in(0.25 * (i + 1), [this] {
      auto forged = std::make_shared<StsBeacon>();
      forged->origin = 1;  // lie about identity
      forged->seq = 1000;
      forged->pos = {100, 0};
      forged->neighbors = {0};
      forged->tags.push_back(crypto::Digest{});  // garbage tag
      sim::Packet packet;
      packet.src = 1;
      packet.dst = sim::kBroadcast;
      packet.port = sim::Port::kSts;
      packet.size_bytes = 60;
      packet.body = std::move(forged);
      world_->node(2).link_send_unfiltered(std::move(packet), sim::kBroadcast);
    });
  }
  world_->run_until(5.0 + 3.0);
  // Spoofed beacons must not have kept the link alive past Delta_STS.
  EXPECT_FALSE(sts(0).is_neighbor(1));
}

TEST_F(TopologyTest, BeaconsVerifyUnderTheCurrentSessionKey) {
  // Node 1 re-keys with node 0 after an outage, then falls silent while
  // node 2 injects beacons in its name tagged under one of the two keys.
  // Only tags under the current session key may keep the link alive.
  const auto listed_after_forgery = [this](bool current_key) {
    circles_.clear();
    build({{0, 0}, {100, 0}, {50, 50}});
    world_->run_until(5.0);
    const crypto::SessionKey* first = sts(0).session_with(1);
    EXPECT_NE(first, nullptr);
    if (first == nullptr) return false;
    const crypto::SessionKey old_key = *first;

    world_->node(1).set_down(true);
    world_->run_until(8.0);
    world_->node(1).set_down(false);
    world_->run_until(10.0);
    const crypto::SessionKey* rekeyed = sts(0).session_with(1);
    EXPECT_NE(rekeyed, nullptr);
    if (rekeyed == nullptr) return false;
    const crypto::SessionKey new_key = *rekeyed;
    EXPECT_FALSE(crypto::digest_equal(new_key, old_key));
    world_->node(1).set_down(true);

    const crypto::SessionKey key = current_key ? new_key : old_key;
    for (int i = 0; i < 16; ++i) {
      world_->sched().schedule_in(0.25 * (i + 1), [this, key, i] {
        auto forged = std::make_shared<StsBeacon>();
        forged->origin = 1;
        forged->seq = 1000 + static_cast<std::uint64_t>(i);
        forged->pos = {100, 0};
        forged->neighbors = {0};
        forged->tags.push_back(crypto::hmac_sha256(
            key, StsBeacon::auth_bytes(forged->origin, forged->seq, forged->pos,
                                       forged->neighbors)));
        sim::Packet packet;
        packet.src = 1;
        packet.dst = sim::kBroadcast;
        packet.port = sim::Port::kSts;
        packet.size_bytes = 60;
        packet.body = std::move(forged);
        world_->node(2).link_send_unfiltered(std::move(packet), sim::kBroadcast);
      });
    }
    world_->run_until(13.5);
    return sts(0).is_neighbor(1);
  };
  EXPECT_TRUE(listed_after_forgery(true));
  EXPECT_FALSE(listed_after_forgery(false));
}

TEST_F(TopologyTest, DenseCircleDiscoversEveryone) {
  // 8 nodes all mutually in range: every inner circle has 7 members.
  std::vector<sim::Vec2> positions;
  for (int i = 0; i < 8; ++i) {
    positions.push_back({100.0 + 30.0 * (i % 4), 100.0 + 30.0 * (i / 4)});
  }
  build(positions);
  world_->run_until(6.0);
  for (std::size_t i = 0; i < 8; ++i) {
    EXPECT_EQ(sts(i).inner_circle().size(), 7u) << "node " << i;
  }
}

}  // namespace
}  // namespace icc::core

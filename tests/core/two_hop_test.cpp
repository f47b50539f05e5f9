// Tests for the §3 "larger inner-circle" extension: two-hop circles with
// relayed voting rounds, enabling dependability levels an L-deficient
// one-hop neighborhood cannot support.
#include <gtest/gtest.h>

#include <memory>

#include "core/framework.hpp"
#include "crypto/model_scheme.hpp"
#include "crypto/pki.hpp"
#include "sim/world.hpp"

namespace icc::core {
namespace {

class TwoHopTest : public ::testing::Test {
 protected:
  // Chain with 150 m spacing and 250 m range: only adjacent nodes hear each
  // other, so one-hop circles have <= 2 members while two-hop circles reach
  // 4 for interior nodes.
  void build_chain(int n, int level, int circle_hops) {
    sim::WorldConfig config;
    config.width = 5000;
    config.height = 1000;
    config.tx_range = 250;
    config.seed = 81;
    world_ = std::make_unique<sim::World>(config);
    scheme_ = std::make_unique<crypto::ModelThresholdScheme>(82, 8, 512);
    pki_ = std::make_unique<crypto::ModelPki>(83, 512);
    for (int i = 0; i < n; ++i) {
      sim::Node& node = world_->add_node(
          std::make_unique<sim::StaticMobility>(sim::Vec2{150.0 * i, 0.0}));
      InnerCircleConfig icc_config;
      icc_config.level = level;
      icc_config.circle_hops = circle_hops;
      circles_.push_back(
          std::make_unique<InnerCircleNode>(node, icc_config, *scheme_, *pki_, cipher_));
      circles_.back()->callbacks().check = [](sim::NodeId, const Value&) { return true; };
      circles_.back()->start();
    }
    world_->run_until(6.0);  // STS: two-hop info needs a second beacon round
  }

  std::unique_ptr<sim::World> world_;
  std::unique_ptr<crypto::ModelThresholdScheme> scheme_;
  std::unique_ptr<crypto::ModelPki> pki_;
  crypto::ModelCipher cipher_;
  std::vector<std::unique_ptr<InnerCircleNode>> circles_;
};

TEST_F(TwoHopTest, TwoHopMembershipDiscovered) {
  build_chain(5, 1, 2);
  SecureTopologyService& sts = circles_[2]->sts();
  EXPECT_EQ(sts.inner_circle().size(), 2u);  // 1 and 3
  const auto two_hop = sts.two_hop_circle();
  EXPECT_EQ(two_hop.size(), 4u);  // 0, 1, 3, 4
  EXPECT_TRUE(sts.is_within_two_hops(0));
  EXPECT_TRUE(sts.is_within_two_hops(4));
  EXPECT_FALSE(sts.is_within_two_hops(2));  // self
}

TEST_F(TwoHopTest, LevelBeyondOneHopCircleNeedsTwoHops) {
  // L = 3 with a 2-member one-hop circle must abort...
  build_chain(5, 3, 1);
  bool aborted = false;
  bool agreed = false;
  circles_[2]->callbacks().on_abort = [&](std::uint64_t, const Value&) { aborted = true; };
  circles_[2]->callbacks().on_agreed = [&](const AgreedMsg&, bool is_center) {
    if (is_center) agreed = true;
  };
  circles_[2]->initiate(VotingMode::kDeterministic, 3, Value{1});
  world_->run_until(8.0);
  EXPECT_TRUE(aborted);
  EXPECT_FALSE(agreed);
}

TEST_F(TwoHopTest, DeterministicRoundCompletesAcrossTwoHops) {
  build_chain(5, 3, 2);
  bool agreed = false;
  int participant_deliveries = 0;
  for (std::size_t i = 0; i < 5; ++i) {
    circles_[i]->callbacks().on_agreed = [&, i](const AgreedMsg& msg, bool is_center) {
      EXPECT_EQ(msg.source, 2u);
      if (is_center) {
        agreed = true;
      } else {
        ++participant_deliveries;
      }
    };
  }
  circles_[2]->initiate(VotingMode::kDeterministic, 3, Value{7});
  world_->run_until(8.0);
  EXPECT_TRUE(agreed);
  // The agreed broadcast is relayed so even two-hop members observe it.
  EXPECT_EQ(participant_deliveries, 4);
}

TEST_F(TwoHopTest, StatisticalRoundGathersTwoHopValues) {
  build_chain(5, 3, 2);
  std::optional<Value> fused;
  for (std::size_t i = 0; i < 5; ++i) {
    circles_[i]->callbacks().get_value =
        [i](sim::NodeId, const Value&) -> std::optional<Value> {
      return Value{static_cast<std::uint8_t>(i)};
    };
    circles_[i]->callbacks().fuse =
        [](const std::vector<std::pair<sim::NodeId, Value>>& values) -> Value {
      // Record the sender set: one byte per contributor, sorted.
      Value out;
      for (const auto& [id, v] : values) out.push_back(static_cast<std::uint8_t>(id));
      return out;
    };
    circles_[i]->callbacks().on_agreed = [&](const AgreedMsg& msg, bool is_center) {
      if (is_center) fused = msg.value;
    };
  }
  circles_[2]->initiate(VotingMode::kStatistical, 3, Value{2});
  world_->run_until(8.0);
  ASSERT_TRUE(fused.has_value());
  // Contributors: the center plus 3 others; at least one must be a two-hop
  // member (0 or 4) since only 1 and 3 are direct neighbors.
  EXPECT_EQ(fused->size(), 4u);
  bool has_two_hop_member = false;
  for (const std::uint8_t id : *fused) {
    if (id == 0 || id == 4) has_two_hop_member = true;
  }
  EXPECT_TRUE(has_two_hop_member);
}

TEST_F(TwoHopTest, RemoteVerificationStillBindsLevel) {
  build_chain(5, 3, 2);
  std::optional<AgreedMsg> agreed;
  circles_[2]->callbacks().on_agreed = [&](const AgreedMsg& msg, bool is_center) {
    if (is_center) agreed = msg;
  };
  circles_[2]->initiate(VotingMode::kDeterministic, 3, Value{9});
  world_->run_until(8.0);
  ASSERT_TRUE(agreed.has_value());
  EXPECT_TRUE(circles_[0]->ivs().verify_agreed(*agreed));
  AgreedMsg tampered = *agreed;
  tampered.value = Value{8};
  EXPECT_FALSE(circles_[0]->ivs().verify_agreed(tampered));
}

TEST_F(TwoHopTest, OneHopConfigIgnoresTwoHopTraffic) {
  // With circle_hops = 1 (paper default), two-hop members never participate
  // even if a (buggy or malicious) center sets a larger ttl.
  build_chain(5, 1, 1);
  int acks_from_far = 0;
  circles_[2]->callbacks().on_agreed = [&](const AgreedMsg&, bool) {};
  // Craft a propose with ttl = 2 directly.
  auto propose = std::make_shared<ProposeMsg>();
  propose->center = 2;
  propose->round = 1;
  propose->level = 1;
  propose->ttl = 2;
  propose->value = Value{1};
  sim::Packet packet;
  packet.src = 2;
  packet.dst = sim::kBroadcast;
  packet.port = sim::Port::kIvs;
  packet.size_bytes = 64;
  packet.body = std::move(propose);
  world_->node(2).send_unfiltered(std::move(packet), sim::kBroadcast);
  world_->run_until(8.0);
  // Nodes 0 and 4 never heard it (no relaying at circle_hops=1), and the
  // crafted propose carries no valid center signature anyway.
  EXPECT_EQ(acks_from_far, 0);
}

}  // namespace
}  // namespace icc::core

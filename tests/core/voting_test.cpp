// Inner-circle Voting Service tests (§4.2): deterministic and statistical
// rounds end-to-end over the simulated radio, the Agreement / Integrity /
// Termination properties, Byzantine participants, and the interceptor's
// template suppression.
#include <gtest/gtest.h>

#include <memory>

#include "core/framework.hpp"
#include "crypto/model_scheme.hpp"
#include "crypto/pki.hpp"
#include "sim/world.hpp"

namespace icc::core {
namespace {

struct RawPayload final : sim::PayloadBase<RawPayload> {
  static constexpr const char* kTag = "raw";
  int value{0};
};

class VotingTest : public ::testing::Test {
 protected:
  // A dense circle: every node is every other node's neighbor.
  void build(int n, InnerCircleConfig base_config) {
    sim::WorldConfig config;
    config.width = 1000;
    config.height = 1000;
    config.tx_range = 250;
    config.seed = 21;
    world_ = std::make_unique<sim::World>(config);
    scheme_ = std::make_unique<crypto::ModelThresholdScheme>(77, 8, 512);
    pki_ = std::make_unique<crypto::ModelPki>(78, 512);
    for (int i = 0; i < n; ++i) {
      sim::Node& node = world_->add_node(std::make_unique<sim::StaticMobility>(
          sim::Vec2{100.0 + 30.0 * (i % 4), 100.0 + 30.0 * (i / 4)}));
      circles_.push_back(
          std::make_unique<InnerCircleNode>(node, base_config, *scheme_, *pki_, cipher_));
      circles_.back()->start();
    }
    world_->run_until(5.0);  // let STS authenticate the circle
  }

  InnerCircleNode& icc(std::size_t i) { return *circles_[i]; }

  std::unique_ptr<sim::World> world_;
  std::unique_ptr<crypto::ModelThresholdScheme> scheme_;
  std::unique_ptr<crypto::ModelPki> pki_;
  crypto::ModelCipher cipher_;
  std::vector<std::unique_ptr<InnerCircleNode>> circles_;
};

TEST_F(VotingTest, DeterministicRoundCompletes) {
  InnerCircleConfig config;
  config.level = 2;
  build(6, config);

  int agreed_center = 0;
  int agreed_participants = 0;
  for (std::size_t i = 0; i < 6; ++i) {
    icc(i).callbacks().check = [](sim::NodeId, const Value&) { return true; };
    icc(i).callbacks().on_agreed = [&, i](const AgreedMsg& msg, bool is_center) {
      EXPECT_EQ(msg.source, 0u);
      EXPECT_EQ(msg.level, 2);
      if (is_center) {
        ++agreed_center;
        EXPECT_EQ(i, 0u);
      } else {
        ++agreed_participants;
      }
    };
  }
  icc(0).initiate(Value{1, 2, 3});
  world_->run_until(6.0);
  EXPECT_EQ(agreed_center, 1);
  EXPECT_EQ(agreed_participants, 5);  // all circle members observe the agreement
}

TEST_F(VotingTest, AgreementRequiresLPlusOneSigners) {
  // Integrity at the scheme level: the agreed message must verify at level L
  // — which the model scheme only produces when L+1 distinct signers
  // contributed.
  InnerCircleConfig config;
  config.level = 3;
  build(6, config);
  std::optional<AgreedMsg> seen;
  for (std::size_t i = 0; i < 6; ++i) {
    icc(i).callbacks().check = [](sim::NodeId, const Value&) { return true; };
    icc(i).callbacks().on_agreed = [&](const AgreedMsg& msg, bool) {
      if (!seen) seen = msg;
    };
  }
  icc(0).initiate(Value{9});
  world_->run_until(6.0);
  ASSERT_TRUE(seen.has_value());
  EXPECT_TRUE(icc(1).ivs().verify_agreed(*seen));
  // Tamper with the value: Integrity must break.
  AgreedMsg tampered = *seen;
  tampered.value = Value{8};
  EXPECT_FALSE(icc(1).ivs().verify_agreed(tampered));
  // Claiming a higher level than signed must also fail.
  AgreedMsg inflated = *seen;
  inflated.level = 4;
  inflated.sig.level = 4;
  EXPECT_FALSE(icc(1).ivs().verify_agreed(inflated));
}

TEST_F(VotingTest, TerminationRejectedProposalAborts) {
  // All participants reject: the round must abort by its timeout
  // (Termination for a correct center).
  InnerCircleConfig config;
  config.level = 2;
  build(5, config);
  bool aborted = false;
  bool agreed = false;
  for (std::size_t i = 0; i < 5; ++i) {
    icc(i).callbacks().check = [i](sim::NodeId, const Value&) { return i == 0; };
    icc(i).callbacks().on_agreed = [&](const AgreedMsg&, bool) { agreed = true; };
  }
  icc(0).callbacks().on_abort = [&](std::uint64_t, const Value&) { aborted = true; };
  icc(0).initiate(Value{7});
  world_->run_until(6.0);
  EXPECT_TRUE(aborted);
  EXPECT_FALSE(agreed);
}

TEST_F(VotingTest, InsufficientCircleAbortsImmediately) {
  InnerCircleConfig config;
  config.level = 5;
  build(3, config);  // circle of 2 < L=5
  bool aborted = false;
  icc(0).callbacks().check = [](sim::NodeId, const Value&) { return true; };
  icc(0).callbacks().on_abort = [&](std::uint64_t, const Value&) { aborted = true; };
  icc(0).initiate(Value{1});
  world_->run_until(6.0);
  EXPECT_TRUE(aborted);
}

TEST_F(VotingTest, ExactlyLAcceptorsSuffice) {
  // L = 2 with exactly 2 willing participants (of 5): the round completes.
  InnerCircleConfig config;
  config.level = 2;
  build(6, config);
  bool agreed = false;
  for (std::size_t i = 0; i < 6; ++i) {
    icc(i).callbacks().check = [i](sim::NodeId, const Value&) { return i <= 2; };
    icc(i).callbacks().on_agreed = [&](const AgreedMsg&, bool is_center) {
      if (is_center) agreed = true;
    };
  }
  icc(0).initiate(Value{3});
  world_->run_until(6.0);
  EXPECT_TRUE(agreed);
}

TEST_F(VotingTest, StatisticalRoundFusesValues) {
  InnerCircleConfig config;
  config.level = 3;
  config.mode = VotingMode::kStatistical;
  build(6, config);

  std::optional<Value> fused_result;
  for (std::size_t i = 0; i < 6; ++i) {
    icc(i).callbacks().get_value = [i](sim::NodeId, const Value&) -> std::optional<Value> {
      return Value{static_cast<std::uint8_t>(10 + i)};
    };
    icc(i).callbacks().fuse =
        [](const std::vector<std::pair<sim::NodeId, Value>>& values) -> Value {
      // Simple deterministic fusion: sum of first bytes.
      int sum = 0;
      for (const auto& [id, v] : values) sum += v.at(0);
      return Value{static_cast<std::uint8_t>(sum)};
    };
    icc(i).callbacks().on_agreed = [&](const AgreedMsg& msg, bool is_center) {
      if (is_center) fused_result = msg.value;
    };
  }
  icc(0).initiate(Value{10});  // center's own value: 10
  world_->run_until(6.0);
  ASSERT_TRUE(fused_result.has_value());
  // Center's 10 plus three participant values from {11..15}.
  EXPECT_GE(fused_result->at(0), 10 + 11 + 12 + 13);
}

TEST_F(VotingTest, StatisticalLyingCenterConvicted) {
  // The center collects honest values but proposes a fused value different
  // from what the fusion function yields: participants must refuse to ack
  // and permanently convict the center (provable misbehavior).
  InnerCircleConfig config;
  config.level = 2;
  config.mode = VotingMode::kStatistical;
  build(5, config);

  bool agreed = false;
  for (std::size_t i = 0; i < 5; ++i) {
    icc(i).callbacks().get_value = [](sim::NodeId, const Value&) -> std::optional<Value> {
      return Value{1};
    };
    // The center's fuse lies; participants' fuse is honest.
    icc(i).callbacks().fuse =
        [i](const std::vector<std::pair<sim::NodeId, Value>>& values) -> Value {
      if (i == 0) return Value{99};  // lie
      int sum = 0;
      for (const auto& [id, v] : values) sum += v.at(0);
      return Value{static_cast<std::uint8_t>(sum)};
    };
    icc(i).callbacks().on_agreed = [&](const AgreedMsg&, bool) { agreed = true; };
  }
  icc(0).initiate(Value{1});
  world_->run_until(6.0);
  EXPECT_FALSE(agreed);
  int convictions = 0;
  for (std::size_t i = 1; i < 5; ++i) {
    if (icc(i).suspicions().convicted(0)) ++convictions;
  }
  EXPECT_GE(convictions, 1);
}

TEST_F(VotingTest, SuppressedRawTemplateNeverReachesHandler) {
  InnerCircleConfig config;
  build(3, config);
  int delivered = 0;
  world_->node(1).register_handler(sim::Port::kCbr, [&](const sim::Packet&, sim::NodeId) {
    ++delivered;
  });
  icc(1).suppress_incoming([](const sim::Packet& packet) {
    return packet.port == sim::Port::kCbr && packet.body_as<RawPayload>() != nullptr;
  });

  sim::Packet packet;
  packet.src = 0;
  packet.dst = 1;
  packet.port = sim::Port::kCbr;
  packet.size_bytes = 32;
  packet.body = std::make_shared<RawPayload>();
  world_->node(0).send_unfiltered(std::move(packet), 1);
  world_->run_until(6.0);
  EXPECT_EQ(delivered, 0);
}

TEST_F(VotingTest, OutgoingTemplateRedirectsToVoting) {
  InnerCircleConfig config;
  config.level = 1;
  build(4, config);
  bool agreed = false;
  for (std::size_t i = 0; i < 4; ++i) {
    icc(i).callbacks().check = [](sim::NodeId, const Value&) { return true; };
    icc(i).callbacks().on_agreed = [&](const AgreedMsg& msg, bool is_center) {
      if (is_center) {
        agreed = true;
        EXPECT_EQ(msg.value, Value{42});
      }
    };
  }
  icc(0).intercept_outgoing(
      [](const sim::Packet& packet, sim::NodeId) {
        return packet.body_as<RawPayload>() != nullptr;
      },
      [](const sim::Packet& packet, sim::NodeId) {
        return Value{static_cast<std::uint8_t>(packet.body_as<RawPayload>()->value)};
      });

  sim::Packet packet;
  packet.src = 0;
  packet.dst = 1;
  packet.port = sim::Port::kCbr;
  packet.size_bytes = 32;
  auto body = std::make_shared<RawPayload>();
  body->value = 42;
  packet.body = std::move(body);
  world_->node(0).send(std::move(packet), 1);  // filtered path
  world_->run_until(6.0);
  EXPECT_TRUE(agreed);
}

TEST_F(VotingTest, ConvictedNodeIsCutOff) {
  InnerCircleConfig config;
  config.level = 1;
  build(4, config);
  int delivered = 0;
  world_->node(1).register_handler(sim::Port::kCbr, [&](const sim::Packet&, sim::NodeId) {
    ++delivered;
  });
  icc(1).suspicions().convict(0, "test conviction");

  sim::Packet packet;
  packet.src = 0;
  packet.dst = 1;
  packet.port = sim::Port::kCbr;
  packet.size_bytes = 16;
  packet.body = std::make_shared<RawPayload>();
  world_->node(0).send_unfiltered(std::move(packet), 1);
  world_->run_until(6.0);
  EXPECT_EQ(delivered, 0);
}

TEST_F(VotingTest, ByzantineAckWithForgedPartialIgnored) {
  // A participant sends a corrupted partial signature: the center must not
  // count it, and with only L-1 honest acceptors the round aborts.
  InnerCircleConfig config;
  config.level = 3;
  build(4, config);  // circle of 3 == L: every participant must ack
  bool agreed = false;
  bool aborted = false;
  for (std::size_t i = 0; i < 4; ++i) {
    icc(i).callbacks().check = [i](sim::NodeId, const Value&) {
      return i != 3;  // node 3 refuses (stands in for a corrupt/Byzantine ack)
    };
    icc(i).callbacks().on_agreed = [&](const AgreedMsg&, bool) { agreed = true; };
  }
  icc(0).callbacks().on_abort = [&](std::uint64_t, const Value&) { aborted = true; };
  icc(0).initiate(Value{5});
  world_->run_until(6.0);
  EXPECT_FALSE(agreed);
  EXPECT_TRUE(aborted);
}

TEST_F(VotingTest, ConcurrentRoundsFromDifferentCenters) {
  InnerCircleConfig config;
  config.level = 2;
  build(6, config);
  int completions = 0;
  for (std::size_t i = 0; i < 6; ++i) {
    icc(i).callbacks().check = [](sim::NodeId, const Value&) { return true; };
    icc(i).callbacks().on_agreed = [&](const AgreedMsg&, bool is_center) {
      if (is_center) ++completions;
    };
  }
  for (std::size_t i = 0; i < 6; ++i) {
    icc(i).initiate(Value{static_cast<std::uint8_t>(i)});
  }
  world_->run_until(6.0);
  EXPECT_EQ(completions, 6);
}

TEST_F(VotingTest, RepeatedRoundsFromSameCenterAllComplete) {
  InnerCircleConfig config;
  config.level = 2;
  build(5, config);
  int completions = 0;
  for (std::size_t i = 0; i < 5; ++i) {
    icc(i).callbacks().check = [](sim::NodeId, const Value&) { return true; };
    icc(i).callbacks().on_agreed = [&](const AgreedMsg&, bool is_center) {
      if (is_center) ++completions;
    };
  }
  for (int r = 0; r < 10; ++r) {
    world_->sched().schedule_at(5.0 + 0.3 * r, [this, r] {
      icc(0).initiate(Value{static_cast<std::uint8_t>(r)});
    });
  }
  world_->run_until(12.0);
  EXPECT_EQ(completions, 10);
}

}  // namespace
}  // namespace icc::core

// Replay-attack regressions: a compromised node that re-sends a previously
// overheard RREP raw (fault::ProtocolFault::replay_interval_s). A guarded
// network must suppress every replayed copy (and say so in the coverage
// ledger); a plain AODV network must at least reject stale sequence numbers,
// so the replay cannot poison fresher routes.
#include <gtest/gtest.h>

#include <memory>
#include <vector>

#include "aodv/guard.hpp"
#include "aodv/misbehavior.hpp"
#include "core/framework.hpp"
#include "crypto/model_scheme.hpp"
#include "crypto/pki.hpp"
#include "fault/ledger.hpp"
#include "sim/world.hpp"

namespace icc::aodv {
namespace {

fault::ProtocolFault replayer(sim::NodeId node, sim::Time interval) {
  fault::ProtocolFault spec;
  spec.node = node;
  spec.replay_interval_s = interval;
  return spec;
}

class ReplayTest : public ::testing::Test {
 protected:
  /// Chain of n nodes 150 m apart plus one attacker off to the side of node
  /// 1 (in range of nodes 0..2). With `guarded`, every chain node gets an
  /// inner-circle interceptor + AODV guard; the attacker never does.
  void build(int n, bool guarded) {
    sim::WorldConfig config;
    config.width = 5000;
    config.height = 1000;
    config.tx_range = 250;
    config.seed = 53;
    world_ = std::make_unique<sim::World>(config);
    if (guarded) {
      scheme_ = std::make_unique<crypto::ModelThresholdScheme>(5, 1, 1024);
      pki_ = std::make_unique<crypto::ModelPki>(n + 1, 1024);
    }
    for (int i = 0; i < n; ++i) {
      sim::Node& node = world_->add_node(
          std::make_unique<sim::StaticMobility>(sim::Vec2{i * 150.0, 0.0}));
      agents_.push_back(std::make_unique<Aodv>(node, Aodv::Params{}));
      agents_.back()->set_deliver_handler(
          [this](const DataMsg&, sim::NodeId) { ++delivered_; });
      if (guarded) {
        core::InnerCircleConfig icc_config;
        icc_config.level = 1;
        circles_.push_back(
            std::make_unique<core::InnerCircleNode>(node, icc_config, *scheme_, *pki_, cipher_));
        guards_.push_back(std::make_unique<AodvGuard>(*agents_.back(), *circles_.back()));
        circles_.back()->start();
      }
    }
    sim::Node& evil = world_->add_node(
        std::make_unique<sim::StaticMobility>(sim::Vec2{150.0, 100.0}));
    attacker_id_ = evil.id();
    attacker_ = std::make_unique<MisbehaviorAodv>(evil, Aodv::Params{},
                                                  replayer(evil.id(), 1.0));
    if (guarded) world_->run_until(5.0);  // STS bootstrap
  }

  std::unique_ptr<sim::World> world_;
  std::unique_ptr<crypto::ModelThresholdScheme> scheme_;
  std::unique_ptr<crypto::ModelPki> pki_;
  crypto::ModelCipher cipher_;
  std::vector<std::unique_ptr<Aodv>> agents_;
  std::vector<std::unique_ptr<core::InnerCircleNode>> circles_;
  std::vector<std::unique_ptr<AodvGuard>> guards_;
  std::unique_ptr<MisbehaviorAodv> attacker_;
  sim::NodeId attacker_id_{sim::kNoNode};
  int delivered_{0};
};

TEST_F(ReplayTest, GuardSuppressesEveryReplayedRrep) {
  build(4, /*guarded=*/true);
  agents_[0]->send_data(3, DataMsg{});
  world_->run_until(10.0);
  ASSERT_EQ(delivered_, 1);

  // Arm the replayer: it overheard an RREP for destination 3 with a wildly
  // inflated sequence number. From now on it re-sends that raw copy to node
  // 1 every second.
  RrepMsg stale;
  stale.dest = 3;
  stale.dest_seq = 999;
  stale.orig = 0;
  stale.hop_count = 1;
  attacker_->inject_rrep(stale, 1);
  const double suppressed_before = world_->metrics().counter_value("icc.suppressed_raw");
  world_->run_until(25.0);

  EXPECT_GT(world_->metrics().counter_value("misbehavior.rrep_replayed"), 0.0);
  // Every replayed copy arrived raw at a guarded node and was suppressed
  // there, so the forged freshness never entered a routing table.
  EXPECT_GT(world_->metrics().counter_value("icc.suppressed_raw"), suppressed_before);
  for (const auto& agent : agents_) {
    EXPECT_NE(agent->next_hop_to(3), attacker_id_);
  }
  // Traffic still flows through the honest chain after the attack.
  agents_[0]->send_data(3, DataMsg{});
  world_->run_until(35.0);
  EXPECT_EQ(delivered_, 2);

  // The suppressions are visible as neutralizations in the coverage ledger,
  // and the ledger stays internally consistent.
  const fault::CoverageLedger ledger{*world_};
  const fault::CoverageRow row = ledger.row(fault::FaultClass::kProtocol);
  EXPECT_GT(row.injected, 0u);
  EXPECT_GT(row.neutralized, 0u);
  EXPECT_TRUE(ledger.consistent());
}

TEST_F(ReplayTest, StaleSequenceNumberCannotPoisonPlainAodv) {
  build(4, /*guarded=*/false);
  agents_[0]->send_data(3, DataMsg{});
  world_->run_until(5.0);
  ASSERT_EQ(delivered_, 1);
  ASSERT_EQ(agents_[1]->next_hop_to(3), 2u);

  // Arm the replayer with a *stale* RREP: sequence number 0 is older than
  // anything the real destination ever issued, and the one-hop count would
  // look attractive if freshness were ignored.
  RrepMsg stale;
  stale.dest = 3;
  stale.dest_seq = 0;
  stale.orig = 0;
  stale.hop_count = 0;
  attacker_->inject_rrep(stale, 1);

  // Keep the route alive with traffic while the replays hammer node 1.
  for (int i = 0; i < 10; ++i) {
    world_->sched().schedule_in(1.0 * i, [this] { agents_[0]->send_data(3, DataMsg{}); });
  }
  world_->run_until(20.0);

  EXPECT_GT(world_->metrics().counter_value("misbehavior.rrep_replayed"), 0.0);
  // AODV's sequence-number check rejects the stale copy: node 1 still
  // routes through the honest next hop and never through the attacker.
  EXPECT_EQ(agents_[1]->next_hop_to(3), 2u);
  for (const auto& agent : agents_) {
    EXPECT_NE(agent->next_hop_to(3), attacker_id_);
  }
  EXPECT_EQ(delivered_, 11);
}

}  // namespace
}  // namespace icc::aodv

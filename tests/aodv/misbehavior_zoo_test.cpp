// Zoo-variant misbehavior tests: the cooperative blackhole pair (diversion
// to a colluding dropper), the fabricated-next-hop misroute, the rushed
// RREP, and the drop-probability edge cases (0 = pure attractor forwards
// everything, 1 = classic black hole) plus the attacker-as-destination
// corner where forward_data never runs.
#include <gtest/gtest.h>

#include <memory>
#include <vector>

#include "aodv/misbehavior.hpp"
#include "fault/ledger.hpp"
#include "fault/plan.hpp"
#include "sim/world.hpp"

namespace icc::aodv {
namespace {

/// Honest chain 0..n-1, 150 m apart (tx range 250), plus attacker nodes at
/// caller-chosen positions. No guards: these tests pin down the *attack*
/// mechanics; defense behavior lives in replay_test / guard_test and the
/// defense_matrix bench.
class MisbehaviorZooTest : public ::testing::Test {
 protected:
  void build_chain(int n) {
    sim::WorldConfig config;
    config.width = 5000;
    config.height = 1000;
    config.tx_range = 250;
    config.seed = 91;
    world_ = std::make_unique<sim::World>(config);
    for (int i = 0; i < n; ++i) {
      sim::Node& node = world_->add_node(
          std::make_unique<sim::StaticMobility>(sim::Vec2{i * 150.0, 0.0}));
      agents_.push_back(std::make_unique<Aodv>(node, Aodv::Params{}));
      agents_.back()->set_deliver_handler(
          [this](const DataMsg&, sim::NodeId) { ++delivered_; });
    }
  }

  MisbehaviorAodv& add_attacker(sim::Vec2 pos, fault::ProtocolFault spec) {
    sim::Node& node = world_->add_node(std::make_unique<sim::StaticMobility>(pos));
    spec.node = node.id();
    attackers_.push_back(std::make_unique<MisbehaviorAodv>(node, Aodv::Params{}, spec));
    attackers_.back()->set_deliver_handler(
        [this](const DataMsg&, sim::NodeId) { ++delivered_at_attacker_; });
    return *attackers_.back();
  }

  void send_data_burst(int count, sim::NodeId dest) {
    for (int i = 0; i < count; ++i) {
      world_->sched().schedule_at(1.0 * i,
                                  [this, dest] { agents_[0]->send_data(dest, DataMsg{}); });
    }
  }

  std::unique_ptr<sim::World> world_;
  std::vector<std::unique_ptr<Aodv>> agents_;
  std::vector<std::unique_ptr<MisbehaviorAodv>> attackers_;
  int delivered_{0};
  int delivered_at_attacker_{0};
};

TEST_F(MisbehaviorZooTest, CoopPairDivertsDataToThePartnerWhoDropsIt) {
  build_chain(4);
  // Attractor beside the chain's head; partner audible only to the
  // attractor, so the diverted packets die out of everyone else's earshot.
  auto [attract_spec, drop_spec] = fault::coop_blackhole_pair(0, 0);  // ids fixed below
  MisbehaviorAodv& partner =
      add_attacker(sim::Vec2{150.0, 300.0}, drop_spec);
  attract_spec.partner = partner.spec().node;
  MisbehaviorAodv& attractor = add_attacker(sim::Vec2{150.0, 100.0}, attract_spec);
  ASSERT_EQ(attractor.spec().kind(), fault::AttackKind::kCoopBlackhole);

  send_data_burst(8, 3);
  world_->run_until(20.0);

  // The attractor wins the route, retransmits for real (a watchdog would
  // hear it and clear the charge), and the partner destroys the packet.
  EXPECT_GT(world_->metrics().counter_value("misbehavior.data_diverted"), 0.0);
  EXPECT_GT(partner.packets_dropped(), 0u);
  // The per-kind counter books every injected action of the pair's
  // attractor: its forged RREPs plus each diversion.
  EXPECT_EQ(world_->metrics().counter_value("fault.kind.coop_blackhole"),
            world_->metrics().counter_value("misbehavior.data_diverted") +
                world_->metrics().counter_value("blackhole.rrep_sent"));
  EXPECT_LT(delivered_, 8);

  const fault::CoverageLedger ledger{*world_};
  EXPECT_GT(ledger.row(fault::FaultClass::kProtocol).injected, 0u);
  EXPECT_TRUE(ledger.consistent());
}

TEST_F(MisbehaviorZooTest, ForgeNextHopMisroutesToAGhostNode) {
  build_chain(4);
  add_attacker(sim::Vec2{150.0, 100.0}, fault::rrep_forge_next_hop(0));

  send_data_burst(8, 3);
  world_->run_until(20.0);

  // Attracted packets are retransmitted to a node id that does not exist:
  // the frame is real (watchdog-clean) but dies unacked on the air.
  EXPECT_GT(world_->metrics().counter_value("misbehavior.data_misrouted"), 0.0);
  EXPECT_LT(delivered_, 8);

  // The ghost hop must never leak into the ledger's per-node attribution
  // (the MAC's failure report would otherwise name a node the ledger cannot
  // account for, breaking consistency).
  const fault::CoverageLedger ledger{*world_};
  EXPECT_GT(ledger.row(fault::FaultClass::kProtocol).injected, 0u);
  EXPECT_TRUE(ledger.consistent());
}

TEST_F(MisbehaviorZooTest, RushedRrepWinsWithAPlausibleBump) {
  build_chain(5);
  MisbehaviorAodv& rusher = add_attacker(sim::Vec2{150.0, 100.0}, fault::rushed_rrep(0));
  ASSERT_EQ(rusher.spec().kind(), fault::AttackKind::kRushedRrep);
  ASSERT_TRUE(rusher.spec().forward_rreq);  // stealth: the flood continues

  send_data_burst(4, 4);
  world_->run_until(15.0);

  // The rusher answered discoveries (small bump, first reply) and each
  // forged RREP booked the per-kind counter.
  EXPECT_GT(world_->metrics().counter_value("blackhole.rrep_sent"), 0.0);
  EXPECT_EQ(world_->metrics().counter_value("blackhole.rrep_sent"),
            world_->metrics().counter_value("fault.kind.rushed_rrep"));
  EXPECT_TRUE(fault::CoverageLedger{*world_}.consistent());
}

TEST_F(MisbehaviorZooTest, ZeroDropProbabilityForwardsEverything) {
  build_chain(4);
  // Pure attractor: wins routes but forwards every packet it attracts —
  // the degenerate gray hole whose duty cycle never drops.
  fault::ProtocolFault spec = fault::black_hole(0);
  spec.drop_prob = 0.0;
  add_attacker(sim::Vec2{150.0, 100.0}, spec);

  send_data_burst(6, 3);
  world_->run_until(20.0);

  // Attraction without dropping is a detour, not an outage. (The attacker
  // has no real route to the destination, so some packets may still take
  // the honest chain; none may be silently destroyed.)
  EXPECT_EQ(world_->metrics().counter_value("blackhole.data_dropped"), 0.0);
  EXPECT_GT(delivered_, 0);
  EXPECT_TRUE(fault::CoverageLedger{*world_}.consistent());
}

TEST_F(MisbehaviorZooTest, CertainDropProbabilityIsABlackHole) {
  build_chain(4);
  add_attacker(sim::Vec2{150.0, 100.0}, fault::black_hole(0));

  send_data_burst(6, 3);
  world_->run_until(20.0);

  EXPECT_GT(world_->metrics().counter_value("blackhole.data_dropped"), 0.0);
  EXPECT_LT(delivered_, 6);
  EXPECT_TRUE(fault::CoverageLedger{*world_}.consistent());
}

TEST_F(MisbehaviorZooTest, AttackerAsDestinationStillDelivers) {
  build_chain(2);
  MisbehaviorAodv& attacker = add_attacker(sim::Vec2{150.0, 100.0}, fault::black_hole(0));
  const sim::NodeId attacker_id = attacker.spec().node;

  // Traffic *to* the attacker terminates there: forward_data never runs, so
  // even a drop-everything spec delivers to its own application layer.
  agents_[0]->send_data(attacker_id, DataMsg{});
  world_->run_until(10.0);

  EXPECT_EQ(delivered_at_attacker_, 1);
  EXPECT_EQ(attacker.packets_dropped(), 0u);
  EXPECT_TRUE(fault::CoverageLedger{*world_}.consistent());
}

}  // namespace
}  // namespace icc::aodv

// AODV routing tests: discovery, forwarding, sequence-number freshness,
// route expiry, RERR handling, and the black hole attacker in an
// undefended network.
#include <gtest/gtest.h>

#include <map>
#include <memory>
#include <set>
#include <utility>
#include <vector>

#include "aodv/misbehavior.hpp"
#include "sim/world.hpp"

namespace icc::aodv {
namespace {

class AodvTest : public ::testing::Test {
 protected:
  // A chain topology: node i at (i * spacing, 0).
  void build_chain(int n, double spacing = 200.0, double range = 250.0) {
    sim::WorldConfig config;
    config.width = 5000;
    config.height = 1000;
    config.tx_range = range;
    config.seed = 31;
    world_ = std::make_unique<sim::World>(config);
    for (int i = 0; i < n; ++i) {
      sim::Node& node = world_->add_node(
          std::make_unique<sim::StaticMobility>(sim::Vec2{i * spacing, 0.0}));
      agents_.push_back(std::make_unique<Aodv>(node, Aodv::Params{}));
      agents_.back()->set_deliver_handler(
          [this, id = node.id()](const DataMsg& data, sim::NodeId src) {
            deliveries_.push_back({id, src, data.app_uid});
          });
    }
  }

  struct Delivery {
    sim::NodeId at;
    sim::NodeId src;
    std::uint64_t uid;
  };

  std::unique_ptr<sim::World> world_;
  std::vector<std::unique_ptr<Aodv>> agents_;
  std::vector<Delivery> deliveries_;
};

TEST_F(AodvTest, DiscoversMultiHopRouteAndDelivers) {
  build_chain(5);
  DataMsg data;
  data.app_uid = 77;
  agents_[0]->send_data(4, data);
  world_->run_until(3.0);
  ASSERT_EQ(deliveries_.size(), 1u);
  EXPECT_EQ(deliveries_[0].at, 4u);
  EXPECT_EQ(deliveries_[0].src, 0u);
  EXPECT_EQ(deliveries_[0].uid, 77u);
  // Forward route established along the chain.
  EXPECT_TRUE(agents_[0]->has_route(4));
  EXPECT_EQ(agents_[0]->next_hop_to(4), 1u);
  EXPECT_EQ(agents_[1]->next_hop_to(4), 2u);
}

TEST_F(AodvTest, ReverseRouteEstablishedByRreq) {
  build_chain(4);
  agents_[0]->send_data(3, DataMsg{});
  world_->run_until(3.0);
  // Intermediate nodes have a reverse route to the originator.
  EXPECT_TRUE(agents_[2]->has_route(0));
  EXPECT_EQ(agents_[2]->next_hop_to(0), 1u);
}

TEST_F(AodvTest, BufferedPacketsFlushAfterDiscovery) {
  build_chain(4);
  for (std::uint64_t i = 0; i < 5; ++i) {
    DataMsg data;
    data.app_uid = i;
    agents_[0]->send_data(3, data);
  }
  world_->run_until(3.0);
  EXPECT_EQ(deliveries_.size(), 5u);
}

TEST_F(AodvTest, UnreachableDestinationGivesUpAfterRetries) {
  build_chain(3);
  agents_[0]->send_data(99, DataMsg{});  // no such node
  world_->run_until(15.0);
  EXPECT_TRUE(deliveries_.empty());
  EXPECT_FALSE(agents_[0]->has_route(99));
  EXPECT_GE(world_->metrics().counter_value("aodv.discovery_failed"), 1.0);
}

TEST_F(AodvTest, SecondFlowReusesEstablishedRoute) {
  build_chain(4);
  agents_[0]->send_data(3, DataMsg{});
  world_->run_until(3.0);
  const double rreqs_after_first = world_->metrics().counter_value("aodv.rreq_sent");
  agents_[0]->send_data(3, DataMsg{});
  world_->run_until(4.0);
  EXPECT_EQ(deliveries_.size(), 2u);
  EXPECT_DOUBLE_EQ(world_->metrics().counter_value("aodv.rreq_sent"), rreqs_after_first);
}

TEST_F(AodvTest, RouteExpiresWithoutUse) {
  build_chain(3);
  agents_[0]->send_data(2, DataMsg{});
  world_->run_until(3.0);
  ASSERT_TRUE(agents_[0]->has_route(2));
  world_->run_until(3.0 + 11.0);  // active_route_timeout = 10 s
  EXPECT_FALSE(agents_[0]->has_route(2));
}

TEST_F(AodvTest, BrokenLinkTriggersRediscovery) {
  build_chain(5);
  agents_[0]->send_data(4, DataMsg{});
  world_->run_until(3.0);
  ASSERT_EQ(deliveries_.size(), 1u);
  // Kill the middle relay: the next packet fails over it, the source gets a
  // link-failure salvage and re-discovers... but the chain has no alternate
  // path, so delivery stops while RERR bookkeeping kicks in.
  world_->node(2).set_down(true);
  agents_[0]->send_data(4, DataMsg{});
  world_->run_until(10.0);
  EXPECT_EQ(deliveries_.size(), 1u);
  EXPECT_GE(world_->metrics().counter_value("aodv.link_failures"), 1.0);
}

TEST_F(AodvTest, AlternatePathUsedAfterFailure) {
  // Diamond: 0 - {1,2} - 3. Break node 1 and traffic must fail over to 2.
  sim::WorldConfig config;
  config.width = 1000;
  config.height = 1000;
  config.tx_range = 250;
  config.seed = 32;
  world_ = std::make_unique<sim::World>(config);
  const sim::Vec2 positions[] = {{0, 0}, {200, 100}, {200, -100}, {400, 0}};
  for (const sim::Vec2 pos : positions) {
    sim::Node& node = world_->add_node(std::make_unique<sim::StaticMobility>(pos));
    agents_.push_back(std::make_unique<Aodv>(node, Aodv::Params{}));
    agents_.back()->set_deliver_handler(
        [this, id = node.id()](const DataMsg& data, sim::NodeId src) {
          deliveries_.push_back({id, src, data.app_uid});
        });
  }
  agents_[0]->send_data(3, DataMsg{});
  world_->run_until(3.0);
  ASSERT_EQ(deliveries_.size(), 1u);
  const sim::NodeId used = agents_[0]->next_hop_to(3);
  world_->node(used).set_down(true);
  // Keep sending: link failure -> salvage -> re-discovery via the other arm.
  for (int i = 0; i < 10; ++i) {
    world_->sched().schedule_in(0.5 * i, [this] { agents_[0]->send_data(3, DataMsg{}); });
  }
  world_->run_until(20.0);
  EXPECT_GE(deliveries_.size(), 2u);
  const sim::NodeId new_hop = agents_[0]->next_hop_to(3);
  EXPECT_NE(new_hop, used);
}

TEST_F(AodvTest, FresherSequenceNumberWins) {
  build_chain(3);
  agents_[0]->send_data(2, DataMsg{});
  world_->run_until(3.0);
  // A RREP with a stale sequence number must not displace the fresher route.
  RrepMsg stale;
  stale.dest = 2;
  stale.dest_seq = 0;  // ancient
  stale.orig = 0;
  stale.hop_count = 0;
  agents_[0]->inject_rrep(stale, 1);
  EXPECT_EQ(agents_[0]->next_hop_to(2), 1u);

  // A fresher RREP (bigger dest_seq) displaces it even with more hops.
  RrepMsg fresh;
  fresh.dest = 2;
  fresh.dest_seq = 1'000'000;
  fresh.orig = 0;
  fresh.hop_count = 5;
  agents_[0]->inject_rrep(fresh, 1);
  EXPECT_TRUE(agents_[0]->has_route(2));
}

TEST_F(AodvTest, RerrListsUnreachableDestinationsInNodeIdOrder) {
  // Chain 0-1-...-6, plus a listener beside node 0 and out of node 1's
  // range that overhears node 0's RERR broadcast.
  build_chain(7);
  sim::Node& listener =
      world_->add_node(std::make_unique<sim::StaticMobility>(sim::Vec2{-150.0, 0.0}));
  agents_.push_back(std::make_unique<Aodv>(listener, Aodv::Params{}));
  std::vector<std::vector<std::pair<sim::NodeId, std::uint32_t>>> rerrs;
  world_->medium().set_delivery_filter(
      [&rerrs, rx_id = listener.id()](const sim::Frame& frame, sim::NodeId rx, sim::Time) {
        const auto* rerr = frame.packet.body_as<RerrMsg>();
        if (rerr != nullptr && frame.tx == 0 && rx == rx_id) rerrs.push_back(rerr->unreachable);
        return sim::DeliveryVerdict::kDeliver;
      });

  // Node 0 learns its routes in descending destination order, all via node 1.
  for (sim::NodeId dest = 6; dest >= 3; --dest) {
    agents_[0]->send_data(dest, DataMsg{});
    world_->run_until(world_->now() + 1.0);
    ASSERT_EQ(agents_[0]->next_hop_to(dest), 1u) << dest;
  }
  // Node 1 goes down, so the next packet exhausts its MAC retries.
  world_->node(1).set_down(true);
  agents_[0]->send_data(6, DataMsg{});
  world_->run_until(world_->now() + 1.0);

  ASSERT_FALSE(rerrs.empty());
  std::vector<sim::NodeId> dests;
  for (const auto& [dest, seq] : rerrs.front()) dests.push_back(dest);
  EXPECT_EQ(dests, (std::vector<sim::NodeId>{1, 3, 4, 5, 6}));
}

TEST_F(AodvTest, EachNodeRelaysAFloodOnce) {
  // A 5x5 grid at 150 m spacing with a 250 m range: a node hears the RREQ
  // from up to eight neighbours, and relays it once.
  sim::WorldConfig config;
  config.width = 1000;
  config.height = 1000;
  config.tx_range = 250;
  config.seed = 33;
  world_ = std::make_unique<sim::World>(config);
  constexpr int kSide = 5;
  for (int i = 0; i < kSide * kSide; ++i) {
    sim::Node& node = world_->add_node(std::make_unique<sim::StaticMobility>(
        sim::Vec2{150.0 * (i % kSide), 150.0 * (i / kSide)}));
    agents_.push_back(std::make_unique<Aodv>(node, Aodv::Params{}));
  }
  std::map<sim::NodeId, std::set<std::uint64_t>> rreq_frames;  // transmitter -> frame ids
  std::size_t rreq_receptions = 0;
  world_->medium().set_delivery_filter(
      [&](const sim::Frame& frame, sim::NodeId, sim::Time) {
        if (frame.packet.body_as<RreqMsg>() != nullptr) {
          rreq_frames[frame.tx].insert(frame.frame_id);
          ++rreq_receptions;
        }
        return sim::DeliveryVerdict::kDeliver;
      });

  // Node 99 does not exist, so the one RREQ floods the whole grid; the
  // originator's first retry is not due before 1 s.
  agents_[0]->send_data(99, DataMsg{});
  world_->run_until(0.9);

  constexpr std::size_t kNodes = kSide * kSide;
  EXPECT_DOUBLE_EQ(world_->metrics().counter_value("aodv.rreq_sent"),
                   static_cast<double>(kNodes));
  EXPECT_EQ(rreq_frames.size(), kNodes);
  for (const auto& [tx, frames] : rreq_frames) EXPECT_EQ(frames.size(), 1u) << "node " << tx;
  // Nodes heard the flood more than twice each on average, and suppressed
  // every copy after the first.
  EXPECT_GT(rreq_receptions, 2 * kNodes);
}

// ------------------------------------------------------------- black hole

TEST_F(AodvTest, BlackholeAttractsAndDropsTraffic) {
  // Chain 0-1-2-3-4 with an attacker hanging off node 1: the attacker's
  // inflated-seqno RREP wins the route and its data dropping starves node 4.
  build_chain(5);
  sim::Node& attacker_node = world_->add_node(
      std::make_unique<sim::StaticMobility>(sim::Vec2{200.0, 100.0}));  // near node 1
  MisbehaviorAodv attacker{attacker_node, Aodv::Params{},
                           fault::black_hole(attacker_node.id())};

  for (int i = 0; i < 20; ++i) {
    world_->sched().schedule_in(0.25 * i, [this] {
      DataMsg data;
      data.app_uid = 1;
      agents_[0]->send_data(4, data);
    });
  }
  world_->run_until(10.0);
  EXPECT_GT(attacker.packets_dropped(), 0u);
  EXPECT_LT(deliveries_.size(), 20u);
}

TEST_F(AodvTest, GrayHoleBehavesDuringOffPeriod) {
  build_chain(3);
  sim::Node& attacker_node = world_->add_node(
      std::make_unique<sim::StaticMobility>(sim::Vec2{200.0, 100.0}));
  // Attacks only in the first second of each (very long) cycle.
  MisbehaviorAodv attacker{attacker_node, Aodv::Params{},
                           fault::gray_hole(attacker_node.id(), 1.0, 1000.0)};

  // Start traffic after the attack window: the gray hole behaves correctly.
  world_->sched().schedule_at(5.0, [this] { agents_[0]->send_data(2, DataMsg{}); });
  world_->run_until(10.0);
  EXPECT_EQ(deliveries_.size(), 1u);
  EXPECT_EQ(attacker.packets_dropped(), 0u);
}

}  // namespace
}  // namespace icc::aodv

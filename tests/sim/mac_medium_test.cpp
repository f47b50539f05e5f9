// Tests for the radio medium and the simplified 802.11 MAC: delivery within
// range, collisions, carrier sensing, acks/retransmissions, half-duplex
// behaviour, and energy accounting.
#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <functional>
#include <memory>
#include <string>
#include <vector>

#include "sim/world.hpp"

namespace icc::sim {
namespace {

struct TestPayload final : PayloadBase<TestPayload> {
  static constexpr const char* kTag = "test";
  int value{0};
};

Packet make_packet(NodeId src, NodeId dst, int value, std::uint32_t bytes = 100) {
  Packet p;
  p.src = src;
  p.dst = dst;
  p.port = Port::kCbr;
  p.size_bytes = bytes;
  auto body = std::make_shared<TestPayload>();
  body->value = value;
  p.body = std::move(body);
  return p;
}

class MacMediumTest : public ::testing::Test {
 protected:
  World& build(std::vector<Vec2> positions, double range = 250.0) {
    WorldConfig config;
    config.width = 1000;
    config.height = 1000;
    config.tx_range = range;
    config.seed = 5;
    world_ = std::make_unique<World>(config);
    for (const Vec2 pos : positions) {
      Node& node = world_->add_node(std::make_unique<StaticMobility>(pos));
      node.register_handler(Port::kCbr, [this, id = node.id()](const Packet& p, NodeId from) {
        received_.push_back({id, from, p.body_as<TestPayload>()->value});
        if (on_rx_) on_rx_(id);
      });
    }
    return *world_;
  }

  struct Rx {
    NodeId at;
    NodeId from;
    int value;
  };

  /// `n` nodes: node 0 at the centre, the rest on a 100 m ring around it.
  World& build_star(std::size_t n) {
    std::vector<Vec2> positions{{500, 500}};
    for (std::size_t i = 1; i < n; ++i) {
      const double angle = 2.0 * 3.141592653589793 * static_cast<double>(i) /
                           static_cast<double>(n - 1);
      positions.push_back(Vec2{500.0 + 100.0 * std::cos(angle), 500.0 + 100.0 * std::sin(angle)});
    }
    return build(positions);
  }

  std::unique_ptr<World> world_;
  std::vector<Rx> received_;
  std::function<void(NodeId at)> on_rx_;
};

TEST_F(MacMediumTest, BroadcastReachesAllInRange) {
  World& world = build({{0, 0}, {100, 0}, {200, 0}, {600, 0}});
  world.node(0).send(make_packet(0, kBroadcast, 7), kBroadcast);
  world.run_until(1.0);
  ASSERT_EQ(received_.size(), 2u);  // nodes 1 and 2; node 3 out of range
  for (const Rx& rx : received_) {
    EXPECT_EQ(rx.from, 0u);
    EXPECT_EQ(rx.value, 7);
  }
}

TEST_F(MacMediumTest, UnicastOnlyDeliversToTarget) {
  World& world = build({{0, 0}, {100, 0}, {200, 0}});
  world.node(0).send(make_packet(0, 1, 9), 1);
  world.run_until(1.0);
  ASSERT_EQ(received_.size(), 1u);
  EXPECT_EQ(received_[0].at, 1u);
}

TEST_F(MacMediumTest, OutOfRangeNotDelivered) {
  World& world = build({{0, 0}, {900, 0}});
  world.node(0).send(make_packet(0, 1, 1), 1);
  world.run_until(2.0);
  EXPECT_TRUE(received_.empty());
  EXPECT_GE(world.node(0).mac().unicast_failures(), 1u);
}

TEST_F(MacMediumTest, UnicastRetransmitsUntilAcked) {
  World& world = build({{0, 0}, {100, 0}});
  world.node(0).send(make_packet(0, 1, 5), 1);
  world.run_until(1.0);
  ASSERT_EQ(received_.size(), 1u);
  EXPECT_EQ(world.node(0).mac().unicast_failures(), 0u);
  // Exactly one data frame + one ack should be on the air in the clean case.
  EXPECT_EQ(world.medium().frames_sent(), 2u);
}

TEST_F(MacMediumTest, ManyConcurrentSendersAllDeliverEventually) {
  // 10 nodes around a receiver all transmit at once: CSMA + backoff +
  // retransmission must deliver all of them despite collisions.
  std::vector<Vec2> positions{{500, 500}};
  for (int i = 0; i < 10; ++i) {
    positions.push_back(Vec2{500.0 + 20.0 * (i + 1), 500.0});
  }
  World& world = build(positions);
  for (NodeId i = 1; i <= 10; ++i) {
    world.node(i).send(make_packet(i, 0, static_cast<int>(i)), 0);
  }
  world.run_until(5.0);
  EXPECT_EQ(received_.size(), 10u);
}

TEST_F(MacMediumTest, HiddenTerminalsCollide) {
  // Nodes 0 and 2 cannot hear each other (range 250, distance 400) but both
  // reach node 1: simultaneous broadcasts must collide at node 1.
  World& world = build({{0, 0}, {200, 0}, {400, 0}}, 250.0);
  // Make carrier sensing useless for this geometry by using broadcast (no
  // retry) and identical start times.
  world.node(0).send(make_packet(0, kBroadcast, 1, 1000), kBroadcast);
  world.node(2).send(make_packet(2, kBroadcast, 2, 1000), kBroadcast);
  world.run_until(1.0);
  // With the default cs_range factor 2.2 the nodes *can* carrier-sense each
  // other (550 m) — rebuild with factor 1.0 to force the hidden terminal.
  WorldConfig config;
  config.tx_range = 250.0;
  config.cs_range_factor = 1.0;
  config.seed = 6;
  World isolated{config};
  std::vector<int> got;
  for (const Vec2 pos : {Vec2{0, 0}, Vec2{200, 0}, Vec2{400, 0}}) {
    Node& node = isolated.add_node(std::make_unique<StaticMobility>(pos));
    node.register_handler(Port::kCbr, [&got](const Packet& p, NodeId) {
      got.push_back(p.body_as<TestPayload>()->value);
    });
  }
  isolated.node(0).send(make_packet(0, kBroadcast, 1, 1000), kBroadcast);
  isolated.node(2).send(make_packet(2, kBroadcast, 2, 1000), kBroadcast);
  isolated.run_until(1.0);
  // Node 1 sits between two colliding hidden terminals: it decodes neither.
  EXPECT_TRUE(got.empty());
  EXPECT_GT(isolated.medium().collisions(), 0u);
}

TEST_F(MacMediumTest, DownNodeNeitherSendsNorReceives) {
  World& world = build({{0, 0}, {100, 0}});
  world.node(1).set_down(true);
  world.node(0).send(make_packet(0, kBroadcast, 3), kBroadcast);
  world.run_until(1.0);
  EXPECT_TRUE(received_.empty());
  world.node(1).set_down(false);
  world.node(1).set_down(true);
  world.node(1).send(make_packet(1, 0, 4), 0);
  world.run_until(2.0);
  EXPECT_TRUE(received_.empty());
}

TEST_F(MacMediumTest, TransmissionChargesEnergy) {
  World& world = build({{0, 0}, {100, 0}});
  world.node(0).send(make_packet(0, kBroadcast, 1), kBroadcast);
  world.run_until(1.0);
  EXPECT_GT(world.node(0).energy().tx_time(), 0.0);
  EXPECT_GT(world.node(1).energy().rx_time(), 0.0);
  EXPECT_DOUBLE_EQ(world.node(1).energy().tx_time(), 0.0);
}

TEST_F(MacMediumTest, AirtimeMatchesSizeAndBitrate) {
  World& world = build({{0, 0}, {100, 0}});
  const Mac& mac = world.node(0).mac();
  const MacParams params;  // defaults
  const double airtime = mac.frame_airtime(512);
  EXPECT_NEAR(airtime, params.preamble + (512.0 + params.header_bytes) * 8.0 / params.bitrate,
              1e-12);
}

TEST_F(MacMediumTest, QueueDrainsInOrder) {
  World& world = build({{0, 0}, {100, 0}});
  for (int i = 0; i < 5; ++i) {
    world.node(0).send(make_packet(0, 1, i), 1);
  }
  world.run_until(2.0);
  ASSERT_EQ(received_.size(), 5u);
  for (int i = 0; i < 5; ++i) EXPECT_EQ(received_[static_cast<std::size_t>(i)].value, i);
}

/// The `detail` of every packet_drop event in `events`, in order.
std::vector<std::string> drop_details(const std::vector<TraceEvent>& events) {
  std::vector<std::string> details;
  for (const TraceEvent& e : events) {
    if (e.type == TraceType::kPacketDrop) details.emplace_back(e.detail);
  }
  return details;
}

TEST_F(MacMediumTest, InboundFilterDropSuppressesDelivery) {
  World& world = build({{0, 0}, {100, 0}});
  CollectingTraceSink sink;
  world.tracer().add_sink(&sink, Tracer::parse_mask("packet"));
  world.node(1).add_inbound_filter([](const Packet&, NodeId) {
    return net::FilterVerdict::kDrop;
  });
  world.node(0).send(make_packet(0, 1, 1), 1);
  world.run_until(1.0);
  EXPECT_TRUE(received_.empty());
  EXPECT_EQ(world.metrics().counter_value("node.inbound_dropped"), 1.0);
  EXPECT_EQ(drop_details(sink.events()), (std::vector<std::string>{"inbound_filter"}));
}

TEST_F(MacMediumTest, OutboundFilterConsumeStopsTransmission) {
  World& world = build({{0, 0}, {100, 0}});
  int consumed = 0;
  world.node(0).add_outbound_filter([&consumed](const Packet&, NodeId) {
    ++consumed;
    return net::FilterVerdict::kConsumed;
  });
  world.node(0).send(make_packet(0, 1, 1), 1);
  world.run_until(1.0);
  EXPECT_EQ(consumed, 1);
  EXPECT_TRUE(received_.empty());
  EXPECT_EQ(world.medium().frames_sent(), 0u);
}

// A filtered send the chain drops is counted and traced; the unfiltered
// send of the same packet bypasses the chain.
TEST_F(MacMediumTest, UnfilteredSendBypassesOutboundFilters) {
  World& world = build({{0, 0}, {100, 0}});
  CollectingTraceSink sink;
  world.tracer().add_sink(&sink, Tracer::parse_mask("packet"));
  world.node(0).add_outbound_filter([](const Packet&, NodeId) {
    return net::FilterVerdict::kDrop;
  });
  world.node(0).send(make_packet(0, 1, 1), 1);
  world.run_until(1.0);
  EXPECT_TRUE(received_.empty());
  EXPECT_EQ(world.medium().frames_sent(), 0u);
  EXPECT_EQ(world.metrics().counter_value("node.outbound_dropped"), 1.0);
  EXPECT_EQ(drop_details(sink.events()), (std::vector<std::string>{"outbound_filter"}));

  world.node(0).send_unfiltered(make_packet(0, 1, 1), 1);
  world.run_until(2.0);
  EXPECT_EQ(received_.size(), 1u);
  EXPECT_EQ(world.metrics().counter_value("node.outbound_dropped"), 1.0);
}

// A node that goes down while a frame is on the air still finishes the
// reception: it traces packet_rx for a frame addressed to it, but sends no
// ack and runs no handler, and a down overhearer runs no listener.
TEST_F(MacMediumTest, NodeDownMidReceptionTracesRxButNeitherAcksNorHandles) {
  World& world = build({{0, 0}, {100, 0}, {0, 100}});
  CollectingTraceSink sink;
  world.tracer().add_sink(&sink, Tracer::parse_mask("packet"));
  int overheard = 0;
  world.node(2).add_promiscuous_listener([&overheard](const Frame&) { ++overheard; });
  Time frame_start = -1.0;
  world.medium().set_delivery_filter([&](const Frame& frame, NodeId, Time now) {
    if (frame_start < 0.0 && !frame.is_ack) {
      frame_start = now;
      world.sched().schedule_in(1e-4, [&world] {
        world.node(1).set_down(true);
        world.node(2).set_down(true);
      });
    }
    return DeliveryVerdict::kDeliver;
  });
  world.node(0).send(make_packet(0, 1, 1), 1);
  world.run_until(1.0);

  ASSERT_GE(frame_start, 0.0);
  std::vector<TraceEvent> rx;
  for (const TraceEvent& e : sink.events()) {
    if (e.type == TraceType::kPacketRx) rx.push_back(e);
  }
  ASSERT_EQ(rx.size(), 1u);
  EXPECT_EQ(rx[0].node, 1u);
  EXPECT_DOUBLE_EQ(rx[0].t, frame_start + world.node(0).mac().frame_airtime(100));
  EXPECT_TRUE(received_.empty());
  EXPECT_EQ(overheard, 0);
  EXPECT_DOUBLE_EQ(world.node(1).energy().tx_time(), 0.0);  // no ack went out
  EXPECT_EQ(world.node(0).mac().unicast_failures(), 1u);
}

// All receivers of a frame finish decoding at one instant, so the medium
// ends every one of their receptions in a single scheduler event: a
// broadcast costs the same number of events however many nodes hear it.
TEST_F(MacMediumTest, OneReceptionEndEventPerFrame) {
  std::vector<std::uint64_t> events;
  for (const std::size_t receivers : {1u, 5u, 12u}) {
    World& world = build_star(receivers + 1);
    received_.clear();
    world.node(0).send(make_packet(0, kBroadcast, 1), kBroadcast);
    world.run_until(1.0);
    ASSERT_EQ(received_.size(), receivers);
    events.push_back(world.sched().executed());
  }
  EXPECT_EQ(events[1], events[0]);
  EXPECT_EQ(events[2], events[0]);
}

// The batched end keeps the order per-receiver events had: receptions end
// in ascending NodeId order at one instant, all before the transmitter's
// tx-done, and an event a handler schedules for that instant runs after
// both.
TEST_F(MacMediumTest, ReceptionsEndInNodeIdOrderBeforeTxDone) {
  // The transmitter (node 2) sits at the centre; receiver distance does not
  // follow NodeId order.
  World& world = build({{240, 0}, {150, 0}, {0, 0}, {-50, 0}, {-200, 0}});
  std::vector<NodeId> order;
  std::vector<Time> at;
  std::vector<std::size_t> tx_queue;
  std::size_t later_tx_queue = 99;
  std::size_t handlers_before_later = 0;
  on_rx_ = [&](NodeId id) {
    if (order.empty()) {
      world.sched().schedule_in(0.0, [&] {
        handlers_before_later = order.size();
        later_tx_queue = world.node(2).mac().queue_depth();
      });
    }
    order.push_back(id);
    at.push_back(world.now());
    tx_queue.push_back(world.node(2).mac().queue_depth());
  };
  world.node(2).send(make_packet(2, kBroadcast, 1), kBroadcast);
  world.run_until(1.0);
  EXPECT_EQ(order, (std::vector<NodeId>{0, 1, 3, 4}));
  for (const Time t : at) EXPECT_EQ(t, at.front());
  EXPECT_EQ(tx_queue, (std::vector<std::size_t>(4, 1u)));
  EXPECT_EQ(handlers_before_later, 4u);
  EXPECT_EQ(later_tx_queue, 0u);
}

// An injected corruption kills one receiver's copy only: the rest of the
// frame's receivers still get it, and nothing counts as a collision.
TEST_F(MacMediumTest, CorruptedReceiverLeavesTheRestOfTheBatch) {
  World& world = build_star(5);
  world.medium().set_delivery_filter([](const Frame&, NodeId rx, Time) {
    return rx == 2 ? DeliveryVerdict::kCorrupt : DeliveryVerdict::kDeliver;
  });
  world.node(0).send(make_packet(0, kBroadcast, 1), kBroadcast);
  world.run_until(1.0);
  std::vector<NodeId> got;
  for (const Rx& rx : received_) got.push_back(rx.at);
  EXPECT_EQ(got, (std::vector<NodeId>{1, 3, 4}));
  EXPECT_EQ(world.medium().collisions(), 0u);
  EXPECT_GT(world.node(2).energy().rx_time(), 0.0);  // it still heard the airtime
}

// Every event of an acked unicast, the SIFS ack included, is MAC work.
TEST_F(MacMediumTest, AckEventCountsUnderMac) {
  World& world = build({{0, 0}, {100, 0}});
  world.node(0).send(make_packet(0, 1, 1), 1);
  world.run_until(1.0);
  ASSERT_EQ(received_.size(), 1u);
  ASSERT_EQ(world.medium().frames_sent(), 2u);  // the data frame and its ack
  const SchedulerProfile& profile = world.sched().profile();
  EXPECT_EQ(profile.executed[static_cast<std::size_t>(EventTag::kGeneric)], 0u);
  // Backoff, data reception end, tx-done, SIFS ack, ack reception end.
  EXPECT_EQ(profile.executed[static_cast<std::size_t>(EventTag::kMac)], 5u);
  EXPECT_EQ(profile.executed_total(), 5u);
}

TEST_F(MacMediumTest, TrueNeighborsMatchesGeometry) {
  World& world = build({{0, 0}, {100, 0}, {240, 0}, {600, 0}});
  const auto neighbors = world.true_neighbors(0);
  EXPECT_EQ(neighbors, (std::vector<NodeId>{1, 2}));
}

// Carrier sense against an independent answer: transmissions start from
// seeded positions — on air-table shard boundaries, on and outside the area
// edge — and every node's busy_at, and on_air_count, are compared with a
// brute-force sweep of all transmissions the test started, expired ones
// included.
TEST(CarrierSenseOracle, BusyAtMatchesBruteForceSweep) {
  WorldConfig config;
  config.width = 1000;
  config.height = 600;
  config.tx_range = 250;
  config.seed = 17;
  World world{config};
  const double cs = world.medium().cs_range();
  const double side = world.medium().air_shard_side();
  Rng rng{23};
  std::vector<Vec2> positions;
  for (int i = 0; i * side <= config.width + side; ++i) {
    positions.push_back(Vec2{i * side, rng.uniform(0.0, config.height)});
  }
  for (int j = 0; j * side <= config.height + side; ++j) {
    positions.push_back(Vec2{rng.uniform(0.0, config.width), j * side});
  }
  for (const Vec2 edge : {Vec2{0, 0}, Vec2{1000, 600}, Vec2{1000, 0}, Vec2{-120, 300},
                          Vec2{1100, -50}, Vec2{500, 750}, Vec2{-400, -400}}) {
    positions.push_back(edge);
  }
  while (positions.size() < 64) {
    positions.push_back(Vec2{rng.uniform(-200.0, 1200.0), rng.uniform(-200.0, 800.0)});
  }
  for (const Vec2 pos : positions) world.add_node(std::make_unique<StaticMobility>(pos));
  const auto n = static_cast<std::uint32_t>(positions.size());

  struct Sent {
    Vec2 pos;
    Time end;
  };
  std::vector<Sent> sent;
  std::vector<Time> radio_free_at(n, 0.0);  // half-duplex: one frame per radio
  std::size_t busy = 0;
  std::size_t idle = 0;
  for (int round = 0; round < 300; ++round) {
    const Time now = world.now();
    for (std::uint32_t k = rng.uniform_int(0, 4); k > 0; --k) {
      const NodeId tx = rng.uniform_int(0, n - 1);
      if (radio_free_at[tx] > now) continue;
      Frame frame;
      frame.tx = tx;
      frame.is_ack = true;  // no packet body; receivers drop unmatched acks
      const double duration = rng.uniform(1e-4, 4e-3);
      world.medium().begin_transmission(frame, duration);
      radio_free_at[tx] = now + duration;
      sent.push_back(Sent{positions[tx], now + duration});
    }
    // Sometimes land exactly on a transmission's end: end == now is idle.
    Time next = now + rng.uniform(0.0, 2e-3);
    if (!sent.empty() && rng.uniform_int(0, 3) == 0) {
      const auto pick = rng.uniform_int(0, static_cast<std::uint32_t>(sent.size() - 1));
      next = std::max(now, sent[pick].end);
    }
    world.run_until(next);
    const Time t = world.now();
    std::size_t on_air = 0;
    for (const Sent& s : sent) on_air += s.end > t ? 1u : 0u;
    ASSERT_EQ(world.medium().on_air_count(t), on_air) << "round " << round;
    for (NodeId i = 0; i < n; ++i) {
      const bool expected = std::any_of(sent.begin(), sent.end(), [&](const Sent& s) {
        return s.end > t && (s.pos - positions[i]).norm2() <= cs * cs;
      });
      ASSERT_EQ(world.medium().busy_at(i), expected) << "round " << round << " node " << i;
      ++(expected ? busy : idle);
    }
  }
  EXPECT_GT(busy, 0u);
  EXPECT_GT(idle, 0u);
}

// The shard window must reach the very edge of the carrier-sense disk: a
// listener whose disk ends 0.3 m past a shard boundary hears a transmitter
// just inside range on the far side of that boundary, in each direction,
// and not one just outside.
TEST(CarrierSenseOracle, ShardWindowReachesTheDiskEdge) {
  WorldConfig config;
  config.seed = 5;
  World world{config};
  const double cs = world.medium().cs_range();
  const double boundary = 2 * world.medium().air_shard_side();
  const double inside = cs * (1.0 - 1e-6);
  const double outside = cs * (1.0 + 1e-6);
  struct Probe {
    Vec2 listener;
    Vec2 toward;
  };
  const Probe probes[] = {
      {{500, boundary + cs - 0.3}, {0, -1}},
      {{500, boundary - cs + 0.3}, {0, 1}},
      {{boundary + cs - 0.3, 500}, {-1, 0}},
      {{boundary - cs + 0.3, 500}, {1, 0}},
  };
  for (const Probe& p : probes) {
    for (const double d : {0.0, inside, outside}) {
      world.add_node(std::make_unique<StaticMobility>(p.listener + p.toward * d));
    }
  }
  for (NodeId listener = 0; listener < world.num_nodes(); listener += 3) {
    for (const NodeId tx : {listener + 1, listener + 2}) {
      Frame frame;
      frame.tx = tx;
      frame.is_ack = true;
      world.medium().begin_transmission(frame, 1e-3);
      EXPECT_EQ(world.medium().busy_at(listener), tx == listener + 1)
          << "probe " << listener / 3 << ", transmitter " << tx;
      world.run_until(world.now() + 2e-3);
    }
  }
}

#if ICC_CHECKED_ENABLED
TEST(MacDeathTest, EndingAReceptionThatNeverBeganAborts) {
  EXPECT_DEATH(
      {
        WorldConfig config;
        World world{config};
        world.add_node(std::make_unique<StaticMobility>(Vec2{100, 100}));
        Frame frame;
        frame.tx = 0;
        frame.frame_id = 7;
        world.node(0).mac().end_reception(frame);
      },
      "every owed reception must end exactly once");
}

TEST(CarrierSenseOracleDeathTest, MoreFramesOnTheAirThanRadiosAborts) {
  EXPECT_DEATH(
      {
        WorldConfig config;
        World world{config};
        world.add_node(std::make_unique<StaticMobility>(Vec2{100, 100}));
        world.add_node(std::make_unique<StaticMobility>(Vec2{900, 900}));
        Frame frame;
        frame.is_ack = true;
        for (const NodeId tx : {0u, 1u, 0u}) {
          frame.tx = tx;
          world.medium().begin_transmission(frame, 1e-3);
        }
      },
      "leaked on the air");
}
#endif

}  // namespace
}  // namespace icc::sim

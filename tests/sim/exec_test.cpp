// Parallel cell executive: thread-count invariance and cell migration.
//
// The executive's contract is byte-identical output — traces, reports,
// ledger, uid streams — at any ICC_SIM_THREADS >= 1. These tests drive the
// same seeded scenarios at 1, 2, and 8 worker threads and compare complete
// trace streams field by field (CI additionally byte-compares JSONL trace
// files across separate processes with tracq). The legacy serial engine is
// a *different* deterministic interleaving family — equal-time events in
// distant components may execute in a different order — so against
// sim_threads=0 only aggregates are asserted, not trace bytes.
#include <gtest/gtest.h>

#include <cstdint>
#include <memory>
#include <sstream>
#include <string>
#include <vector>

#include "aodv/blackhole_experiment.hpp"
#include "sim/world.hpp"

namespace icc {
namespace {

using sim::NodeId;
using sim::Packet;
using sim::Port;
using sim::Vec2;

std::string serialize(const std::vector<sim::TraceEvent>& events) {
  std::ostringstream out;
  out.precision(17);
  for (const sim::TraceEvent& e : events) {
    out << e.t << '|' << static_cast<int>(e.type) << '|' << e.node << '|' << e.peer
        << '|' << e.uid << '|' << e.size << '|' << e.value << '|'
        << (e.detail != nullptr ? e.detail : "") << '|' << e.span << '|' << e.parent
        << '\n';
  }
  return out.str();
}

struct TracedRun {
  std::string traces;
  aodv::BlackholeExperimentResult result;
};

TracedRun run_fig7(int sim_threads, double area, double max_speed, int nodes) {
  aodv::BlackholeExperimentConfig config;
  config.num_nodes = nodes;
  config.area = area;
  config.max_speed = max_speed;
  config.num_connections = 5;
  config.sim_time = 10.0;
  config.num_malicious = 1;
  config.seed = 42;
  config.sim_threads = sim_threads;
  sim::CollectingTraceSink sink;
  config.world_hook = [&sink](sim::World& world) {
    world.tracer().set_mask(0xffffffffu);
    world.tracer().add_sink(&sink);
  };
  TracedRun run;
  run.result = aodv::run_blackhole_experiment(config);
  run.traces = serialize(sink.events());
  return run;
}

TEST(Executive, ThreadCountInvariance) {
  // Fig 7 scenario (small): full-category traces must be byte-identical at
  // 1, 2, and 8 worker threads. sim_threads=1 runs the same windowed
  // executive (windows, components, barrier merges) with no pool, so
  // 1-vs-8 equality tests the merge rule, not thread-scheduling luck.
  const TracedRun one = run_fig7(1, 1000.0, 10.0, 30);
  const TracedRun two = run_fig7(2, 1000.0, 10.0, 30);
  const TracedRun eight = run_fig7(8, 1000.0, 10.0, 30);
  ASSERT_FALSE(one.traces.empty());
  EXPECT_GT(one.result.packets_received, 0u);
  EXPECT_EQ(one.traces, two.traces);
  EXPECT_EQ(one.traces, eight.traces);
  EXPECT_EQ(one.result.packets_received, eight.result.packets_received);
  EXPECT_EQ(one.result.mac_collisions, eight.result.mac_collisions);
  EXPECT_EQ(one.result.events_executed, eight.result.events_executed);
  EXPECT_DOUBLE_EQ(one.result.mean_energy_j, eight.result.mean_energy_j);
}

TEST(Executive, MultiComponentSparseWorldInvariance) {
  // A 3000 m side with fast movers: several simultaneous components per
  // window (the conflict radius is ~830 m) and nodes that cross component
  // cells mid-run, so handoff renumbering and the uid gate actually fire.
  const TracedRun one = run_fig7(1, 3000.0, 150.0, 40);
  const TracedRun eight = run_fig7(8, 3000.0, 150.0, 40);
  ASSERT_FALSE(one.traces.empty());
  EXPECT_EQ(one.traces, eight.traces);
  EXPECT_EQ(one.result.packets_sent, eight.result.packets_sent);
  EXPECT_EQ(one.result.packets_received, eight.result.packets_received);
  EXPECT_EQ(one.result.events_executed, eight.result.events_executed);
}

TEST(Executive, MatchesLegacyAggregates) {
  // Same seed, legacy engine vs executive: the physical evolution is
  // identical (components never interact inside a window), so every
  // aggregate matches even though equal-time trace interleavings may not.
  const TracedRun legacy = run_fig7(0, 1000.0, 10.0, 30);
  const TracedRun exec = run_fig7(2, 1000.0, 10.0, 30);
  EXPECT_EQ(legacy.result.packets_sent, exec.result.packets_sent);
  EXPECT_EQ(legacy.result.packets_received, exec.result.packets_received);
  EXPECT_EQ(legacy.result.mac_collisions, exec.result.mac_collisions);
  EXPECT_EQ(legacy.result.frames_sent, exec.result.frames_sent);
  EXPECT_EQ(legacy.result.events_executed, exec.result.events_executed);
  EXPECT_DOUBLE_EQ(legacy.result.mean_energy_j, exec.result.mean_energy_j);
}

struct MigrationPayload final : sim::PayloadBase<MigrationPayload> {
  static constexpr const char* kTag = "mig";
};

/// Straight-line high-speed commute between two points; crosses the
/// executive's component-cell boundary (side ~830 m) many times per run.
sim::RandomWaypoint::Params commute_params(double speed) {
  sim::RandomWaypoint::Params p;
  p.min_speed = speed;
  p.max_speed = speed;
  p.pause = 0.0;
  return p;
}

TEST(Executive, CellMigrationKeepsFrameDeliveryOrder) {
  // A receiver sprinting across component-cell boundaries while a static
  // sender streams unicast packets at it, plus a far-away pair exchanging
  // traffic so windows really have multiple components. The received uid
  // sequence (delivery order) must be identical at 1, 2, and 8 threads.
  const auto run = [](int sim_threads) {
    sim::WorldConfig config;
    config.width = 3000.0;
    config.height = 3000.0;
    config.seed = 9;
    config.sim_threads = sim_threads;
    sim::World world{config};
    // Sender + sprinting receiver near the first cell boundary.
    sim::Node& sender = world.add_node(std::make_unique<sim::StaticMobility>(Vec2{750, 100}));
    sim::Node& runner = world.add_node(std::make_unique<sim::RandomWaypoint>(
        commute_params(120.0), Vec2{650, 100}, world.fork_rng(77)));
    // Distant pair: a second component in most windows.
    sim::Node& far_a = world.add_node(std::make_unique<sim::StaticMobility>(Vec2{2700, 2700}));
    world.add_node(std::make_unique<sim::StaticMobility>(Vec2{2800, 2700}));
    std::vector<std::uint64_t> delivered;
    runner.register_handler(Port::kCbr, [&delivered](const Packet& p, NodeId) {
      delivered.push_back(p.uid);
    });
    const auto make_packet = [&world](NodeId src, NodeId dst) {
      Packet p;
      p.src = src;
      p.dst = dst;
      p.port = Port::kCbr;
      p.size_bytes = 256;
      p.uid = world.next_packet_uid();
      p.body = std::make_shared<MigrationPayload>();
      return p;
    };
    // Node-owned periodic senders (node clocks keep the events in the
    // owners' slabs, like protocol timers).
    std::function<void()> tick_near = [&] {
      sender.link_send(make_packet(sender.id(), runner.id()), runner.id());
      sender.clock().schedule_in(0.05, tick_near);
    };
    std::function<void()> tick_far = [&] {
      far_a.link_send(make_packet(far_a.id(), 3), 3);
      far_a.clock().schedule_in(0.05, tick_far);
    };
    sender.clock().schedule_in(0.1, tick_near);
    far_a.clock().schedule_in(0.1, tick_far);
    world.run_until(8.0);
    return delivered;
  };
  const std::vector<std::uint64_t> one = run(1);
  const std::vector<std::uint64_t> two = run(2);
  const std::vector<std::uint64_t> eight = run(8);
  ASSERT_GT(one.size(), 20u);  // the stream really flowed
  EXPECT_EQ(one, two);
  EXPECT_EQ(one, eight);
}

TEST(Executive, WorkersNeverGrowTheSlabVector) {
  // Two static transmitter/receiver pairs in different components fire at
  // the same instant, so both frames are delivered from worker threads. The
  // receivers are added last and schedule nothing before their first frame:
  // their slabs must already exist (World registers every node at
  // add_node), or two workers would reallocate the slab vector at once.
  sim::WorldConfig config;
  config.width = 3000.0;
  config.height = 3000.0;
  config.seed = 3;
  config.sim_threads = 2;
  sim::World world{config};
  sim::Node& a = world.add_node(std::make_unique<sim::StaticMobility>(Vec2{100, 100}));
  sim::Node& b = world.add_node(std::make_unique<sim::StaticMobility>(Vec2{2900, 2900}));
  world.add_node(std::make_unique<sim::StaticMobility>(Vec2{200, 100}));
  world.add_node(std::make_unique<sim::StaticMobility>(Vec2{2800, 2900}));
  for (sim::Node* tx : {&a, &b}) {
    tx->clock().schedule_at(1.0, [&world, id = tx->id()] {
      sim::Frame frame;
      frame.tx = id;
      frame.is_ack = true;
      world.medium().begin_transmission(frame, 1e-3);
    });
  }
  world.run_until(2.0);
  EXPECT_EQ(world.medium().frames_sent(), 2u);
  EXPECT_GT(world.node(2).energy().rx_time(), 0.0);
  EXPECT_GT(world.node(3).energy().rx_time(), 0.0);
}

}  // namespace
}  // namespace icc

// Spatial-grid equivalence tests: the uniform grid (sim/grid.hpp) must be an
// invisible accelerator. Two worlds that differ only in
// WorldConfig::spatial_grid must answer every neighbor query with the same
// node set at every instant of a random-waypoint run, and a fully traced
// protocol run must produce byte-identical JSONL either way.
#include <gtest/gtest.h>

#include <algorithm>
#include <memory>
#include <sstream>
#include <string>
#include <vector>

#include "aodv/aodv.hpp"
#include "sim/mobility.hpp"
#include "sim/trace.hpp"
#include "sim/world.hpp"
#include "traffic/cbr.hpp"

namespace icc::sim {
namespace {

constexpr int kNodes = 40;
constexpr double kArea = 1200.0;

/// A world of random-waypoint nodes; `spatial_grid` selects the query path.
std::unique_ptr<World> waypoint_world(std::uint64_t seed, bool spatial_grid) {
  WorldConfig config;
  config.seed = seed;
  config.width = kArea;
  config.height = kArea;
  config.spatial_grid = spatial_grid;
  auto world = std::make_unique<World>(config);
  Rng layout = world->fork_rng(0x9E0ull);
  for (int i = 0; i < kNodes; ++i) {
    RandomWaypoint::Params params;
    params.width = kArea;
    params.height = kArea;
    params.min_speed = 1.0;
    params.max_speed = 20.0;
    params.pause = 0.0;
    world->add_node(std::make_unique<RandomWaypoint>(
        params, layout.point_in(kArea, kArea),
        world->fork_rng(0x6D0ull + static_cast<std::uint64_t>(i))));
  }
  return world;
}

TEST(SpatialGrid, MatchesBruteForceUnderMotion) {
  // Same seed, opposite query paths: the two worlds follow identical
  // trajectories, so every query must agree bit for bit. 1000 steps of
  // 0.25 s cover ~40 waypoint legs per node and force the grid through
  // thousands of slack-deadline re-bins.
  auto grid_world = waypoint_world(17, true);
  auto brute_world = waypoint_world(17, false);
  Rng probes{12345};
  for (int step = 0; step < 1000; ++step) {
    const Time t = 0.25 * (step + 1);
    grid_world->run_until(t);
    brute_world->run_until(t);
    for (NodeId id = 0; id < grid_world->num_nodes(); ++id) {
      ASSERT_EQ(grid_world->true_neighbors(id), brute_world->true_neighbors(id))
          << "neighbor sets diverged for node " << id << " at t=" << t;
    }
    // Arbitrary-point, arbitrary-radius queries (the Medium's delivery
    // pattern), including radii larger than a grid cell.
    std::vector<NodeId> a;
    std::vector<NodeId> b;
    const Vec2 center = probes.point_in(kArea, kArea);
    const double radius = probes.uniform(10.0, 700.0);
    grid_world->nodes_within(center, radius, a);
    brute_world->nodes_within(center, radius, b);
    ASSERT_EQ(a, b) << "point query diverged at t=" << t;
  }
}

TEST(SpatialGrid, TrueNeighborsHonorsLiveOnly) {
  auto world = waypoint_world(23, true);
  world->run_until(1.0);
  // Find a node that currently has neighbors, then take one down.
  for (NodeId id = 0; id < world->num_nodes(); ++id) {
    const std::vector<NodeId> before = world->true_neighbors(id);
    if (before.empty()) continue;
    const NodeId victim = before.front();
    world->node(victim).set_down(true);
    const std::vector<NodeId> live = world->true_neighbors(id);
    const std::vector<NodeId> all = world->true_neighbors(id, /*live_only=*/false);
    EXPECT_EQ(std::count(live.begin(), live.end(), victim), 0)
        << "a down node leaked into the default (live-only) neighbor set";
    EXPECT_EQ(all, before) << "live_only=false must keep reporting down nodes in range";
    world->node(victim).set_down(false);
    return;
  }
  FAIL() << "no node had neighbors at t=1; scenario too sparse for the test";
}

/// Full protocol run (AODV + CBR over moving nodes) with every trace
/// category enabled, captured as a JSONL string.
std::string traced_protocol_run(std::uint64_t seed, bool spatial_grid) {
  WorldConfig config;
  config.seed = seed;
  config.width = 600.0;
  config.height = 600.0;
  config.spatial_grid = spatial_grid;
  World world{config};
  std::ostringstream out;
  JsonlTraceSink sink{out};
  world.tracer().add_sink(&sink, Tracer::parse_mask("all"));

  Rng layout = world.fork_rng(0x9E1ull);
  std::vector<std::unique_ptr<aodv::Aodv>> agents;
  for (NodeId i = 0; i < 12; ++i) {
    RandomWaypoint::Params params;
    params.width = 600.0;
    params.height = 600.0;
    params.min_speed = 1.0;
    params.max_speed = 15.0;
    params.pause = 0.0;
    world.add_node(std::make_unique<RandomWaypoint>(
        params, layout.point_in(600.0, 600.0),
        world.fork_rng(0x6D1ull + static_cast<std::uint64_t>(i))));
    agents.push_back(std::make_unique<aodv::Aodv>(world.node(i), aodv::Aodv::Params{}));
    traffic::CbrConnection::attach_sink(*agents.back());
  }
  traffic::CbrConnection::Params cbr;
  cbr.start = 0.1;
  cbr.stop = 8.0;
  traffic::CbrConnection flow_a{*agents[0], 7, cbr};
  traffic::CbrConnection flow_b{*agents[3], 11, cbr};
  world.run_until(8.0);
  return out.str();
}

TEST(SpatialGrid, TraceByteIdenticalToBruteForcePath) {
  const std::string grid = traced_protocol_run(41, true);
  const std::string brute = traced_protocol_run(41, false);
  EXPECT_FALSE(grid.empty());
  EXPECT_EQ(grid, brute);
  // The run exercised real radio traffic, not just timers.
  EXPECT_NE(grid.find("\"type\":\"packet_rx\""), std::string::npos);
}

}  // namespace
}  // namespace icc::sim

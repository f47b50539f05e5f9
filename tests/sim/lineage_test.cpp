// Lineage tests: span/parent propagation across route discovery, cycle-free
// reconstruction of the "life of a packet" tree, and the invariant that
// tracing never perturbs the simulation it observes.
#include <gtest/gtest.h>

#include <map>
#include <memory>
#include <set>
#include <vector>

#include "aodv/aodv.hpp"
#include "sim/trace.hpp"
#include "sim/world.hpp"
#include "traffic/cbr.hpp"

namespace icc::sim {
namespace {

/// 3-node static chain, CBR from node 0 to node 2, all categories collected.
struct ChainRun {
  std::vector<TraceEvent> events;
  double cbr_received{0.0};
};

ChainRun run_chain(std::uint64_t seed, bool traced) {
  WorldConfig config;
  config.seed = seed;
  World world{config};
  CollectingTraceSink sink;
  if (traced) {
    world.tracer().add_sink(&sink, Tracer::parse_mask("all"));
  }
  world.add_node(std::make_unique<StaticMobility>(Vec2{0, 0}));
  world.add_node(std::make_unique<StaticMobility>(Vec2{200, 0}));
  world.add_node(std::make_unique<StaticMobility>(Vec2{400, 0}));
  std::vector<std::unique_ptr<aodv::Aodv>> agents;
  for (NodeId i = 0; i < 3; ++i) {
    agents.push_back(std::make_unique<aodv::Aodv>(world.node(i), aodv::Aodv::Params{}));
    traffic::CbrConnection::attach_sink(*agents.back());
  }
  traffic::CbrConnection::Params cbr;
  cbr.start = 0.1;
  cbr.stop = 5.0;
  traffic::CbrConnection flow{*agents[0], 2, cbr};
  world.run_until(5.0);
  ChainRun result;
  result.events = sink.events();
  result.cbr_received = world.metrics().counter_value("cbr.received");
  return result;
}

// The World, its nodes and every scope share the run's one lineage slot:
// a scope opened through a node's slot is the world's context, a scope
// opened through the Services interface nests inside it, and each restores
// what it found on exit.
TEST(LineageScope, NodeScopeIsTheWorldsAndRestoresOnExit) {
  World world{WorldConfig{}};
  Node& node = world.add_node(std::make_unique<StaticMobility>(Vec2{0, 0}));
  EXPECT_EQ(&node.lineage_slot(), &world.lineage_slot());
  world.set_lineage_parent(7);
  {
    const LineageScope scope{node.lineage_slot(), 42};
    EXPECT_EQ(world.lineage_parent(), 42u);
    EXPECT_EQ(node.lineage_parent(), 42u);
    {
      const LineageScope nested{node, 43};
      EXPECT_EQ(world.lineage_parent(), 43u);
    }
    EXPECT_EQ(world.lineage_parent(), 42u);
  }
  EXPECT_EQ(world.lineage_parent(), 7u);
}

TEST(Lineage, DiscoveryDescendsFromBufferedPacket) {
  const ChainRun run = run_chain(11, true);
  ASSERT_FALSE(run.events.empty());

  // Every RREQ carries a span of its own and points at the cause that
  // triggered the flood (the buffered data packet, or the upstream RREQ for
  // a reflood).
  std::set<std::uint64_t> rreq_spans;
  for (const TraceEvent& e : run.events) {
    if (e.type == TraceType::kRouteRreqSent) {
      EXPECT_NE(e.span, 0u);
      EXPECT_NE(e.parent, 0u);
      EXPECT_NE(e.span, e.parent);
      rreq_spans.insert(e.span);
    }
  }
  ASSERT_FALSE(rreq_spans.empty());

  // Every RREP descends from an RREQ or — because replies are re-originated
  // hop by hop — from the upstream RREP it forwards.
  std::set<std::uint64_t> rrep_spans;
  for (const TraceEvent& e : run.events) {
    if (e.type == TraceType::kRouteRrepSent) rrep_spans.insert(e.span);
  }
  ASSERT_FALSE(rrep_spans.empty());
  for (const TraceEvent& e : run.events) {
    if (e.type == TraceType::kRouteRrepSent) {
      EXPECT_NE(e.span, 0u);
      EXPECT_TRUE(rreq_spans.count(e.parent) != 0 || rrep_spans.count(e.parent) != 0)
          << "RREP span " << e.span << " has parent " << e.parent
          << " which is neither a sent RREQ nor an upstream RREP";
    }
  }
}

TEST(Lineage, TreeIsAcyclicAndRootedAtTheDataPacket) {
  const ChainRun run = run_chain(11, true);

  // parent_of over every span-owning record; first edge wins.
  std::map<std::uint64_t, std::uint64_t> parent_of;
  std::set<std::uint64_t> tx_roots;  // uids transmitted with no parent
  for (const TraceEvent& e : run.events) {
    if (e.span != 0 && e.parent != 0 && e.parent != e.span) {
      parent_of.emplace(e.span, e.parent);
    }
    if (e.type == TraceType::kPacketTx && e.parent == 0) tx_roots.insert(e.uid);
  }
  ASSERT_FALSE(tx_roots.empty());  // the CBR data packet is a lineage root

  // From every RREP, climbing parents must terminate (no cycle) at a span
  // that was transmitted as a root packet.
  for (const TraceEvent& e : run.events) {
    if (e.type != TraceType::kRouteRrepSent) continue;
    std::uint64_t id = e.span;
    std::set<std::uint64_t> seen;
    while (parent_of.count(id) != 0) {
      ASSERT_TRUE(seen.insert(id).second) << "lineage cycle through span " << id;
      id = parent_of.at(id);
    }
    EXPECT_EQ(tx_roots.count(id), 1u)
        << "RREP " << e.span << " climbs to " << id << ", not a root data packet";
  }
}

TEST(Lineage, SpansAreBurnedWhetherTracedOrNot) {
  // The uid/span stream must be identical with tracing on or off, so a
  // traced re-run of a seed reproduces the untraced run exactly. Equal
  // delivery counts are the observable consequence; byte-identical traces
  // for equal seeds are covered in trace_test.
  const ChainRun traced = run_chain(23, true);
  const ChainRun untraced = run_chain(23, false);
  EXPECT_FALSE(traced.events.empty());
  EXPECT_TRUE(untraced.events.empty());
  EXPECT_GT(traced.cbr_received, 0.0);
  EXPECT_EQ(traced.cbr_received, untraced.cbr_received);
}

TEST(Lineage, ScopeRestoresOnExit) {
  WorldConfig config;
  World world{config};
  EXPECT_EQ(world.lineage_parent(), 0u);
  {
    LineageScope outer{world, 42};
    EXPECT_EQ(world.lineage_parent(), 42u);
    {
      LineageScope inner{world, 7};
      EXPECT_EQ(world.lineage_parent(), 7u);
    }
    EXPECT_EQ(world.lineage_parent(), 42u);
  }
  EXPECT_EQ(world.lineage_parent(), 0u);
}

}  // namespace
}  // namespace icc::sim

// Trace subsystem tests: typed event delivery, category mask filtering,
// zero-sink fast path, and byte-identical JSONL traces for equal seeds.
#include <gtest/gtest.h>

#include <memory>
#include <sstream>
#include <string>
#include <vector>

#include "aodv/aodv.hpp"
#include "sim/trace.hpp"
#include "sim/world.hpp"
#include "traffic/cbr.hpp"

namespace icc::sim {
namespace {

TEST(TraceTypes, EveryTypeHasNameAndCategory) {
  for (std::size_t t = 0; t < static_cast<std::size_t>(TraceType::kCount); ++t) {
    const auto type = static_cast<TraceType>(t);
    EXPECT_NE(trace_type_name(type), nullptr);
    EXPECT_LT(static_cast<std::size_t>(trace_category(type)),
              static_cast<std::size_t>(TraceCategory::kCount));
  }
  EXPECT_STREQ(trace_category_name(TraceCategory::kPacket), "packet");
  EXPECT_EQ(trace_category(TraceType::kPacketDrop), TraceCategory::kPacket);
  EXPECT_EQ(trace_category(TraceType::kVoteVerdict), TraceCategory::kVoting);
}

TEST(Tracer, ParseMask) {
  EXPECT_EQ(Tracer::parse_mask(nullptr), 0u);
  EXPECT_EQ(Tracer::parse_mask(""), 0u);
  EXPECT_EQ(Tracer::parse_mask("packet"),
            1u << static_cast<unsigned>(TraceCategory::kPacket));
  EXPECT_EQ(Tracer::parse_mask("packet,voting"),
            (1u << static_cast<unsigned>(TraceCategory::kPacket)) |
                (1u << static_cast<unsigned>(TraceCategory::kVoting)));
  EXPECT_EQ(Tracer::parse_mask("all"),
            (1u << static_cast<unsigned>(TraceCategory::kCount)) - 1u);
}

TEST(TracerDeathTest, ParseMaskRejectsUnknownCategory) {
  // A misspelt category must not silently trace nothing.
  EXPECT_DEATH(Tracer::parse_mask("packet,pakcet"),
               "ICC_TRACE='packet,pakcet' is not a valid category list \\(packet,mac,");
  EXPECT_DEATH(Tracer::parse_mask("packet,"), "ICC_TRACE");
}

TEST(Tracer, SubscriberReceivesTypedEvents) {
  Tracer tracer;
  CollectingTraceSink sink;
  tracer.add_sink(&sink, Tracer::parse_mask("all"));

  tracer.emit({1.5, TraceType::kPacketTx, 3, 7, 42, 512, 0.001, nullptr});
  tracer.emit({2.0, TraceType::kWatchdogAccuse, 1, 9, 0, 0, 2.0, nullptr});

  ASSERT_EQ(sink.events().size(), 2u);
  const TraceEvent& tx = sink.events()[0];
  EXPECT_DOUBLE_EQ(tx.t, 1.5);
  EXPECT_EQ(tx.type, TraceType::kPacketTx);
  EXPECT_EQ(tx.node, 3u);
  EXPECT_EQ(tx.peer, 7u);
  EXPECT_EQ(tx.uid, 42u);
  EXPECT_EQ(tx.size, 512u);
  const TraceEvent& accuse = sink.events()[1];
  EXPECT_EQ(accuse.type, TraceType::kWatchdogAccuse);
  EXPECT_EQ(accuse.peer, 9u);
  EXPECT_DOUBLE_EQ(accuse.value, 2.0);
}

TEST(Tracer, MaskFiltersCategories) {
  Tracer tracer;
  CollectingTraceSink sink;
  tracer.add_sink(&sink, Tracer::parse_mask("packet"));

  tracer.emit({0.0, TraceType::kPacketTx, 0});
  tracer.emit({0.0, TraceType::kMacCollision, 0});  // mac: filtered out
  tracer.emit({0.0, TraceType::kVoteVerdict, 0});   // voting: filtered out

  ASSERT_EQ(sink.events().size(), 1u);
  EXPECT_EQ(sink.events()[0].type, TraceType::kPacketTx);
  EXPECT_TRUE(tracer.enabled(TraceCategory::kPacket));
  EXPECT_FALSE(tracer.enabled(TraceCategory::kMac));
}

TEST(Tracer, DisabledWithoutSinksEvenIfMaskSet) {
  // Categories belong to the sinks: with none subscribed nothing is enabled.
  Tracer tracer;
  EXPECT_FALSE(tracer.enabled(TraceCategory::kPacket));
  // emit() is a no-op; nothing to observe but it must not crash.
  tracer.emit({0.0, TraceType::kPacketTx, 0});
}

TEST(Tracer, EachSinkKeepsItsOwnCategories) {
  // A voting sink beside an all-category sink (the ICC_TRACE_PERFETTO
  // export, the flight recorder) still sees voting events only.
  Tracer tracer;
  CollectingTraceSink voting;
  CollectingTraceSink all;
  tracer.add_sink(&voting, Tracer::parse_mask("voting"));
  tracer.add_sink(&all, Tracer::parse_mask("all"));
  tracer.emit({0.0, TraceType::kPacketTx, 0});
  tracer.emit({0.1, TraceType::kVoteVerdict, 0});
  tracer.emit({0.2, TraceType::kMacBackoff, 0});
  ASSERT_EQ(voting.events().size(), 1u);
  EXPECT_EQ(voting.events()[0].type, TraceType::kVoteVerdict);
  EXPECT_EQ(all.events().size(), 3u);
  EXPECT_TRUE(tracer.enabled(TraceCategory::kMac));  // the union of the masks
}

TEST(Tracer, LineSinkFormatsNs2Style) {
  std::ostringstream out;
  LineTraceSink sink{out};
  Tracer tracer;
  tracer.add_sink(&sink, Tracer::parse_mask("all"));
  tracer.emit({12.000345678, TraceType::kPacketTx, 3, 7, 42, 512, 0.0, nullptr});
  EXPECT_EQ(out.str(), "s 12.000345678 _3_ packet packet_tx peer=7 uid=42 size=512\n");
}

TEST(Tracer, JsonlSinkEmitsOneObjectPerLine) {
  std::ostringstream out;
  JsonlTraceSink sink{out};
  Tracer tracer;
  tracer.add_sink(&sink, Tracer::parse_mask("all"));
  tracer.emit({0.5, TraceType::kPacketDrop, 2, 4, 9, 100, 0.0, "no_route"});
  EXPECT_EQ(out.str(),
            "{\"t\":0.500000000,\"type\":\"packet_drop\",\"cat\":\"packet\",\"node\":2,"
            "\"peer\":4,\"uid\":9,\"size\":100,\"detail\":\"no_route\"}\n");
}

/// A deterministic 3-node AODV chain with CBR traffic, traced into a string.
std::string traced_chain_run(std::uint64_t seed) {
  WorldConfig config;
  config.seed = seed;
  World world{config};
  std::ostringstream out;
  JsonlTraceSink sink{out};
  world.tracer().add_sink(&sink, Tracer::parse_mask("all"));

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
  return out.str();
}

TEST(TraceDeterminism, SameSeedGivesByteIdenticalJsonl) {
  const std::string a = traced_chain_run(7);
  const std::string b = traced_chain_run(7);
  EXPECT_FALSE(a.empty());
  EXPECT_EQ(a, b);
  // The trace actually saw multi-hop activity, not just timers.
  EXPECT_NE(a.find("\"type\":\"route_rreq_sent\""), std::string::npos);
  EXPECT_NE(a.find("\"type\":\"packet_rx\""), std::string::npos);
}

TEST(TraceDeterminism, DifferentSeedsDiverge) {
  EXPECT_NE(traced_chain_run(7), traced_chain_run(8));
}

TEST(TraceIntegration, InstrumentationIsQuietWhenDisabled) {
  // A run with no sinks and mask 0 must not produce events — this guards
  // against an instrumentation site bypassing the enabled() check.
  WorldConfig config;
  config.seed = 3;
  World world{config};
  CollectingTraceSink sink;
  // Sink attached but mask 0: nothing may arrive.
  world.tracer().add_sink(&sink, 0);
  world.add_node(std::make_unique<StaticMobility>(Vec2{0, 0}));
  world.add_node(std::make_unique<StaticMobility>(Vec2{100, 0}));
  std::vector<std::unique_ptr<aodv::Aodv>> agents;
  for (NodeId i = 0; i < 2; ++i) {
    agents.push_back(std::make_unique<aodv::Aodv>(world.node(i), aodv::Aodv::Params{}));
    traffic::CbrConnection::attach_sink(*agents.back());
  }
  traffic::CbrConnection::Params cbr;
  cbr.start = 0.1;
  cbr.stop = 2.0;
  traffic::CbrConnection flow{*agents[0], 1, cbr};
  world.run_until(2.0);
  EXPECT_TRUE(sink.events().empty());
  EXPECT_GT(world.metrics().counter_value("cbr.received"), 0.0);  // traffic did flow
}

}  // namespace
}  // namespace icc::sim

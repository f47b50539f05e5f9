// tracq tests: JSONL loading (live traces and flight-recorder dumps alike),
// lineage reconstruction, the Perfetto export, and the diff contract the
// determinism workflow depends on — identical pair reports no divergence, a
// single mutated record is pinpointed exactly (a ring-wrapped flight dump
// included), and corrupt input fails gracefully.
#include <gtest/gtest.h>

#include <cstdio>
#include <fstream>
#include <sstream>
#include <string>
#include <vector>

#include "aodv/aodv.hpp"
#include "sim/flight.hpp"
#include "sim/world.hpp"
#include "traffic/cbr.hpp"

#define TRACQ_NO_MAIN
#include "tools/tracq.cpp"

namespace icc::tracq {
namespace {

std::string temp_path(const char* name) { return testing::TempDir() + name; }

void write_file(const std::string& path, const std::string& content) {
  std::ofstream out{path, std::ios::binary | std::ios::trunc};
  out << content;
}

const char* const kChainTrace =
    "{\"t\":0.100000000,\"type\":\"packet_tx\",\"cat\":\"packet\",\"node\":0,\"peer\":1,"
    "\"uid\":1,\"size\":532,\"span\":1}\n"
    "{\"t\":0.200000000,\"type\":\"route_rreq_sent\",\"cat\":\"route\",\"node\":0,\"peer\":2,"
    "\"uid\":1,\"size\":24,\"span\":2,\"parent\":1}\n"
    "{\"t\":0.300000000,\"type\":\"route_rrep_sent\",\"cat\":\"route\",\"node\":2,\"peer\":0,"
    "\"uid\":3,\"size\":20,\"span\":3,\"parent\":2}\n"
    "{\"t\":0.400000000,\"type\":\"fault_injected\",\"cat\":\"fault\",\"node\":1,"
    "\"span\":9,\"detail\":\"channel\"}\n"
    "{\"t\":0.650000000,\"type\":\"fault_detected\",\"cat\":\"fault\",\"node\":0,"
    "\"parent\":9,\"detail\":\"channel\"}\n";

TEST(TracqLoad, ParsesJsonlFields) {
  const std::string path = temp_path("tracq_load.jsonl");
  write_file(path, kChainTrace);
  std::string error;
  const auto trace = load(path, error);
  ASSERT_TRUE(trace.has_value()) << error;
  ASSERT_EQ(trace->records.size(), 5u);
  const Record& rreq = trace->records[1];
  EXPECT_EQ(rreq.type, "route_rreq_sent");
  EXPECT_EQ(rreq.cat, "route");
  EXPECT_EQ(rreq.node, 0u);
  EXPECT_EQ(rreq.peer, 2u);
  EXPECT_EQ(rreq.uid, 1u);
  EXPECT_EQ(rreq.size, 24u);
  EXPECT_EQ(rreq.span, 2u);
  EXPECT_EQ(rreq.parent, 1u);
  EXPECT_EQ(trace->records[3].detail, "channel");
  std::remove(path.c_str());
}

TEST(TracqLoad, MissingFileFailsGracefully) {
  std::string error;
  EXPECT_FALSE(load(temp_path("tracq_no_such_file"), error).has_value());
  EXPECT_FALSE(error.empty());
}

TEST(TracqLineage, ReconstructsRootAndChildren) {
  const std::string path = temp_path("tracq_lineage.jsonl");
  write_file(path, kChainTrace);
  std::string error;
  const auto trace = load(path, error);
  ASSERT_TRUE(trace.has_value()) << error;
  const Lineage lineage{trace->records};
  // data packet (1) -> rreq (2) -> rrep (3); climbing from the leaf
  // recovers the originating packet.
  EXPECT_EQ(lineage.root_of(3), 1u);
  EXPECT_EQ(lineage.root_of(2), 1u);
  EXPECT_EQ(lineage.root_of(1), 1u);
  ASSERT_EQ(lineage.children.count(2), 1u);
  EXPECT_EQ(lineage.children.at(2).count(3), 1u);
  // The span-less fault_detected record annotates the injection span.
  ASSERT_EQ(lineage.annotations.count(9), 1u);
  EXPECT_EQ(lineage.annotations.at(9)[0]->type, "fault_detected");
  std::remove(path.c_str());
}

TEST(TracqLatency, LinksDetectionsToInjections) {
  const std::string path = temp_path("tracq_latency.jsonl");
  write_file(path, kChainTrace);
  std::string error;
  const auto trace = load(path, error);
  ASSERT_TRUE(trace.has_value()) << error;
  const auto rows = detection_latency(trace->records);
  ASSERT_EQ(rows.count("channel"), 1u);
  EXPECT_EQ(rows.at("channel").injected, 1u);
  EXPECT_EQ(rows.at("channel").linked, 1u);
  EXPECT_NEAR(rows.at("channel").sum, 0.25, 1e-9);
  EXPECT_NEAR(rows.at("channel").max, 0.25, 1e-9);
}

TEST(TracqDiff, IdenticalPairReportsNoDivergence) {
  const std::string a = temp_path("tracq_diff_a.jsonl");
  const std::string b = temp_path("tracq_diff_b.jsonl");
  write_file(a, kChainTrace);
  write_file(b, kChainTrace);
  std::string error;
  const auto ta = load(a, error);
  const auto tb = load(b, error);
  ASSERT_TRUE(ta.has_value() && tb.has_value());
  EXPECT_FALSE(first_divergence(*ta, *tb).has_value());
  std::remove(a.c_str());
  std::remove(b.c_str());
}

TEST(TracqDiff, SingleMutationIsPinpointed) {
  const std::string a = temp_path("tracq_mut_a.jsonl");
  const std::string b = temp_path("tracq_mut_b.jsonl");
  write_file(a, kChainTrace);
  std::string mutated{kChainTrace};
  // Perturb the RREP record (index 2): node 2 -> node 7.
  const auto pos = mutated.find("\"type\":\"route_rrep_sent\",\"cat\":\"route\",\"node\":2");
  ASSERT_NE(pos, std::string::npos);
  mutated[mutated.find("\"node\":2", pos) + 7] = '7';
  write_file(b, mutated);
  std::string error;
  const auto ta = load(a, error);
  const auto tb = load(b, error);
  ASSERT_TRUE(ta.has_value() && tb.has_value());
  const auto div = first_divergence(*ta, *tb);
  ASSERT_TRUE(div.has_value());
  EXPECT_EQ(div->index, 2u);  // exactly the mutated record, not later fallout
  EXPECT_NE(div->a.find("\"node\":2"), std::string::npos);
  EXPECT_NE(div->b.find("\"node\":7"), std::string::npos);
  std::remove(a.c_str());
  std::remove(b.c_str());
}

TEST(TracqDiff, LengthMismatchDivergesAtTheTail) {
  const std::string a = temp_path("tracq_len_a.jsonl");
  const std::string b = temp_path("tracq_len_b.jsonl");
  write_file(a, kChainTrace);
  std::string shorter{kChainTrace};
  shorter.erase(shorter.rfind("{\"t\":0.650000000"));
  write_file(b, shorter);
  std::string error;
  const auto ta = load(a, error);
  const auto tb = load(b, error);
  ASSERT_TRUE(ta.has_value() && tb.has_value());
  const auto div = first_divergence(*ta, *tb);
  ASSERT_TRUE(div.has_value());
  EXPECT_EQ(div->index, 4u);
  EXPECT_TRUE(div->b.empty());  // b ended first
  std::remove(a.c_str());
  std::remove(b.c_str());
}

// A writer killed mid-line leaves a record without its closing brace. The
// loader refuses it, naming the file and line, instead of handing it on as
// a record; so it does a whole record of a type this build does not know.
TEST(TracqLoad, CutLineIsALoadErrorNamingFileAndLine) {
  const std::string path = temp_path("tracq_cut.jsonl");
  std::string cut{kChainTrace};
  cut.erase(cut.rfind("\"parent\":9"));  // the fifth record loses its tail
  write_file(path, cut);
  std::string error;
  EXPECT_FALSE(load(path, error).has_value());
  EXPECT_NE(error.find(path + ":5:"), std::string::npos) << error;

  write_file(path,
             "{\"t\":1.000000000,\"type\":\"no_such_type\",\"cat\":\"packet\",\"node\":0}\n");
  error.clear();
  EXPECT_FALSE(load(path, error).has_value());
  EXPECT_NE(error.find(path + ":1:"), std::string::npos) << error;
  std::remove(path.c_str());
}

// The flight recorder renders its ring through the JsonlTraceSink a live
// trace uses, so a dump is the live trace's last `capacity` lines, byte for
// byte, and tracq reads and diffs it like any other trace.
TEST(TracqFlight, DumpEqualsTheLiveTraceTail) {
  constexpr std::size_t kCapacity = 16;
  constexpr std::size_t kEvents = 3 * kCapacity + 5;  // the ring wraps
  std::ostringstream live;
  sim::JsonlTraceSink sink{live};
  sim::Tracer tracer;
  tracer.add_sink(&sink, sim::kAllTraceCategories);
  tracer.enable_flight(kCapacity, temp_path("tracq_flight"));
  const char* const details[] = {nullptr, "no_route", "blackhole", "channel"};
  const auto types = static_cast<std::size_t>(sim::TraceType::kCount);
  for (std::uint64_t i = 0; i < kEvents; ++i) {
    tracer.emit({0.125 * static_cast<double>(i), static_cast<sim::TraceType>(i % types),
                 static_cast<sim::NodeId>(i % 7),
                 i % 3 == 0 ? sim::kNoNode : static_cast<sim::NodeId>(i % 5), i,
                 static_cast<std::uint32_t>(64 * (i % 4)),
                 i % 2 == 0 ? 0.0 : 0.5 * static_cast<double>(i), details[i % 4],
                 i % 5 == 0 ? 0 : i + 100, i / 2});
  }
  const std::string dump_path = temp_path("tracq_flight_dump.jsonl");
  ASSERT_TRUE(tracer.flight()->dump_jsonl(dump_path));

  std::vector<std::string> lines;
  std::istringstream live_in{live.str()};
  for (std::string line; std::getline(live_in, line);) lines.push_back(line);
  ASSERT_EQ(lines.size(), kEvents);
  std::string tail;
  for (std::size_t i = kEvents - kCapacity; i < kEvents; ++i) tail += lines[i] + '\n';
  std::ifstream dump_in{dump_path};
  const std::string dumped{std::istreambuf_iterator<char>{dump_in},
                           std::istreambuf_iterator<char>{}};
  EXPECT_EQ(dumped, tail);

  const std::string tail_path = temp_path("tracq_flight_tail.jsonl");
  write_file(tail_path, tail);
  std::string error;
  const auto dump = load(dump_path, error);
  ASSERT_TRUE(dump.has_value()) << error;
  EXPECT_EQ(dump->records.size(), kCapacity);
  const auto expected = load(tail_path, error);
  ASSERT_TRUE(expected.has_value()) << error;
  EXPECT_FALSE(first_divergence(*dump, *expected).has_value());
  std::remove(dump_path.c_str());
  std::remove(tail_path.c_str());
}

// A flight dump is one JSONL file; the Perfetto view of it is tracq's
// export: '[', an instant event on the node's track with the record's
// fields as args, the lineage flow arrows, ']'.
TEST(TracqExport, FlightDumpExportIsWellFormedJson) {
  const std::string dump_path = temp_path("tracq_export_dump.jsonl");
  sim::FlightRecorder recorder{8, temp_path("tracq_export")};
  recorder.on_event({0.5, sim::TraceType::kPacketTx, 1, 2, 1, 100, 0.5, "no_route", 1, 7});
  recorder.on_event({0.75, sim::TraceType::kHealthSample, sim::kNoNode, sim::kNoNode, 0, 0,
                     3.0, "queue_depth"});
  ASSERT_TRUE(recorder.dump_jsonl(dump_path));
  std::string error;
  const auto dump = load(dump_path, error);
  ASSERT_TRUE(dump.has_value()) << error;

  std::ostringstream out;
  write_perfetto(out, dump->records);
  EXPECT_EQ(out.str(),
            "[\n"
            "{\"name\":\"packet_tx\",\"cat\":\"packet\",\"ph\":\"i\",\"s\":\"t\","
            "\"ts\":500000.000,\"pid\":1,\"tid\":2,\"args\":{\"peer\":2,\"uid\":1,"
            "\"size\":100,\"value\":0.5,\"span\":1,\"parent\":7,\"detail\":\"no_route\"}},\n"
            "{\"name\":\"span\",\"cat\":\"packet\",\"ph\":\"s\",\"ts\":500000.000,\"pid\":1,"
            "\"tid\":2,\"id\":1},\n"
            "{\"name\":\"span\",\"cat\":\"packet\",\"ph\":\"f\",\"bp\":\"e\","
            "\"ts\":500000.000,\"pid\":1,\"tid\":2,\"id\":7},\n"
            "{\"name\":\"queue_depth\",\"ph\":\"C\",\"ts\":750000.000,\"pid\":1,\"id\":0,"
            "\"args\":{\"value\":3}},\n"
            "]\n");
  std::remove(dump_path.c_str());
}

// The post-mortem diff: a flight dump whose ring has wrapped starts
// mid-run, so tracq aligns it on its first record in the same run's full
// trace. Over the overlap the two read identical, and a one-line edit in the
// dump is reported at that record, not at record 0.
TEST(TracqDiff, RingWrappedDumpAlignsOnTheLiveTrace) {
  constexpr std::size_t kRing = 1000;
  const std::string live_path = temp_path("tracq_ring_live.jsonl");
  const std::string dump_path = temp_path("tracq_ring_dump.jsonl");
  {
    // ICC_TRACE=all ICC_FLIGHT=1 ICC_FLIGHT_RECORDS=1000, set up through
    // the tracer as Tracer::configure_from_env does.
    std::ofstream live{live_path, std::ios::trunc};
    sim::JsonlTraceSink sink{live};  // outlives the world that writes to it
    sim::WorldConfig config;
    config.seed = 5;
    sim::World world{config};
    world.tracer().add_sink(&sink, sim::kAllTraceCategories);
    world.tracer().enable_flight(kRing, temp_path("tracq_ring"));
    std::vector<std::unique_ptr<aodv::Aodv>> agents;
    for (sim::NodeId i = 0; i < 3; ++i) {
      world.add_node(std::make_unique<sim::StaticMobility>(sim::Vec2{200.0 * i, 0}));
      agents.push_back(std::make_unique<aodv::Aodv>(world.node(i), aodv::Aodv::Params{}));
      traffic::CbrConnection::attach_sink(*agents.back());
    }
    traffic::CbrConnection::Params cbr;
    cbr.rate_pps = 20.0;
    cbr.start = 0.1;
    traffic::CbrConnection flow{*agents[0], 2, cbr};
    world.run_until(20.0);
    ASSERT_TRUE(world.tracer().flight()->dump_jsonl(dump_path));
  }
  std::string error;
  const auto live = load(live_path, error);
  ASSERT_TRUE(live.has_value()) << error;
  const auto dump = load(dump_path, error);
  ASSERT_TRUE(dump.has_value()) << error;
  ASSERT_EQ(dump->records.size(), kRing);
  ASSERT_GT(live->records.size(), kRing);  // the ring wrapped

  const std::size_t offset = live->records.size() - kRing;
  EXPECT_EQ(align(*dump, *live).b, offset);
  EXPECT_FALSE(first_divergence(*dump, *live).has_value());
  EXPECT_FALSE(first_divergence(*live, *dump).has_value());

  Trace edited = *dump;
  edited.records[417].line.insert(1, " ");
  const auto div = first_divergence(*live, edited);
  ASSERT_TRUE(div.has_value());
  EXPECT_EQ(div->at.a, offset);
  EXPECT_EQ(div->index, 417u);
  EXPECT_EQ(div->a, live->records[offset + 417].line);
  std::remove(live_path.c_str());
  std::remove(dump_path.c_str());
}

}  // namespace
}  // namespace icc::tracq

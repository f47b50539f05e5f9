// tracq tests: JSONL/.icfr loading, lineage reconstruction, and the diff
// contract the determinism workflow depends on — identical pair reports no
// divergence, a single mutated record is pinpointed exactly, and corrupt
// input fails gracefully.
#include <gtest/gtest.h>

#include <cstdio>
#include <fstream>
#include <string>
#include <vector>

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

TEST(TracqFlight, LoadsBinaryDumpAndRejectsTruncation) {
  const std::string path = temp_path("tracq_flight.icfr");
  sim::FlightRecorder recorder{8, temp_path("tracq_flight")};
  recorder.on_event({0.5, sim::TraceType::kPacketTx, 3, 7, 42, 512, 0.0, "hop", 42, 17});
  ASSERT_TRUE(recorder.dump_binary(path));

  std::string error;
  const auto trace = load(path, error);
  ASSERT_TRUE(trace.has_value()) << error;
  EXPECT_TRUE(trace->from_flight);
  ASSERT_EQ(trace->records.size(), 1u);
  const Record& r = trace->records[0];
  EXPECT_EQ(r.type, "packet_tx");
  EXPECT_EQ(r.node, 3u);
  EXPECT_EQ(r.span, 42u);
  EXPECT_EQ(r.parent, 17u);
  EXPECT_EQ(r.detail, "hop");
  // The canonical line matches what a live JsonlTraceSink would have
  // written, so JSONL-vs-.icfr diffs compare like for like.
  EXPECT_NE(r.line.find("\"type\":\"packet_tx\""), std::string::npos);

  // Truncation surfaces as a load error, not a crash or a partial trace.
  std::ifstream in{path, std::ios::binary};
  std::string bytes{std::istreambuf_iterator<char>{in}, std::istreambuf_iterator<char>{}};
  in.close();
  write_file(path, bytes.substr(0, bytes.size() / 2));
  error.clear();
  EXPECT_FALSE(load(path, error).has_value());
  EXPECT_FALSE(error.empty());
  std::remove(path.c_str());
}

}  // namespace
}  // namespace icc::tracq

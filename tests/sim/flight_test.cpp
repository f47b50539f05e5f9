// Flight-recorder tests: ring wrap-around, the mask independence of the
// always-on ring, and the JSONL dump round trip. The dump is also checked
// against a live trace, and exported to Perfetto, in
// tests/tools/tracq_test.cpp, where tracq loads it.
#include <gtest/gtest.h>

#include <cstdio>
#include <fstream>
#include <string>
#include <vector>

#include "sim/flight.hpp"
#include "sim/trace.hpp"

namespace icc::sim {
namespace {

TraceEvent event_at(double t, std::uint64_t uid, const char* detail = nullptr) {
  return {t, TraceType::kPacketTx, 1, 2, uid, 100, 0.5, detail, uid, uid - 1};
}

std::string temp_path(const char* name) { return testing::TempDir() + name; }

TEST(FlightRecorder, RingKeepsNewestOldestFirst) {
  FlightRecorder recorder{4, temp_path("flight_ring")};
  for (std::uint64_t i = 1; i <= 6; ++i) recorder.on_event(event_at(0.1 * i, i));
  EXPECT_EQ(recorder.total_emitted(), 6u);
  const std::vector<TraceEvent> ring = recorder.snapshot();
  ASSERT_EQ(ring.size(), 4u);  // capacity, not total
  // Oldest surviving record is uid 3 (1 and 2 were overwritten).
  for (std::size_t i = 0; i < ring.size(); ++i) {
    EXPECT_EQ(ring[i].uid, i + 3);
  }
}

TEST(FlightRecorder, SeesAllCategoriesButNeverLeaksIntoSinks) {
  Tracer tracer;
  CollectingTraceSink sink;
  tracer.add_sink(&sink, Tracer::parse_mask("packet"));  // mac filtered from this sink
  tracer.enable_flight(16, temp_path("flight_mask"));
  ASSERT_NE(tracer.flight(), nullptr);

  tracer.emit({0.1, TraceType::kPacketTx, 0});
  tracer.emit({0.2, TraceType::kMacCollision, 0});

  ASSERT_EQ(sink.events().size(), 1u);  // the sink keeps its own categories
  EXPECT_EQ(sink.events()[0].type, TraceType::kPacketTx);
  EXPECT_EQ(tracer.flight()->total_emitted(), 2u);  // ring saw both
  // The ring subscribes to every category, so mac stays enabled for it alone.
  EXPECT_TRUE(tracer.enabled(TraceCategory::kMac));
  tracer.emit({0.3, TraceType::kMacBackoff, 0});
  EXPECT_EQ(tracer.flight()->total_emitted(), 3u);
  EXPECT_EQ(sink.events().size(), 1u);
}

TEST(FlightRecorder, JsonlDumpRoundTrips) {
  const std::string path = temp_path("flight_roundtrip.jsonl");
  FlightRecorder recorder{8, temp_path("flight_roundtrip")};
  for (std::uint64_t i = 1; i <= 12; ++i) {
    recorder.on_event(event_at(0.25 * static_cast<double>(i), i, i % 2 ? "odd" : "even"));
  }
  EXPECT_EQ(recorder.total_emitted(), 12u);
  ASSERT_TRUE(recorder.dump_jsonl(path));

  // One line per surviving event, oldest first, every field written back.
  std::ifstream in{path};
  std::vector<std::string> lines;
  for (std::string line; std::getline(in, line);) lines.push_back(line);
  ASSERT_EQ(lines.size(), 8u);  // capacity, not total
  for (std::size_t i = 0; i < lines.size(); ++i) {
    const std::uint64_t uid = i + 5;  // 1..4 were overwritten
    char expected[256];
    std::snprintf(expected, sizeof expected,
                  "{\"t\":%.9f,\"type\":\"packet_tx\",\"cat\":\"packet\",\"node\":1,"
                  "\"peer\":2,\"uid\":%llu,\"size\":100,\"value\":0.5,\"span\":%llu,"
                  "\"parent\":%llu,\"detail\":\"%s\"}",
                  0.25 * static_cast<double>(uid), static_cast<unsigned long long>(uid),
                  static_cast<unsigned long long>(uid), static_cast<unsigned long long>(uid - 1),
                  uid % 2 ? "odd" : "even");
    EXPECT_EQ(lines[i], expected);
  }
  std::remove(path.c_str());
}

}  // namespace
}  // namespace icc::sim

// Flight-recorder tests: ring wrap-around, detail interning, the mask
// independence of the always-on ring, binary dump round-trips, and graceful
// rejection of corrupt dumps.
#include <gtest/gtest.h>

#include <cstdio>
#include <fstream>
#include <sstream>
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
  const std::vector<FlightRecord> ring = recorder.snapshot();
  ASSERT_EQ(ring.size(), 4u);  // capacity, not total
  // Oldest surviving record is uid 3 (1 and 2 were overwritten).
  for (std::size_t i = 0; i < ring.size(); ++i) {
    EXPECT_EQ(ring[i].uid, i + 3);
  }
}

TEST(FlightRecorder, DetailInterningIsStableAndCompact) {
  FlightRecorder recorder{8, temp_path("flight_intern")};
  recorder.on_event(event_at(0.1, 1, "no_route"));
  recorder.on_event(event_at(0.2, 2, "blackhole"));
  recorder.on_event(event_at(0.3, 3, "no_route"));
  recorder.on_event(event_at(0.4, 4, nullptr));
  const std::vector<FlightRecord> ring = recorder.snapshot();
  ASSERT_EQ(ring.size(), 4u);
  EXPECT_EQ(ring[0].detail_id, ring[2].detail_id);       // same literal, same id
  EXPECT_NE(ring[0].detail_id, ring[1].detail_id);
  EXPECT_EQ(ring[3].detail_id, 0u);                      // no detail -> id 0
  EXPECT_EQ(recorder.detail(ring[0].detail_id), "no_route");
  EXPECT_EQ(recorder.detail(0), "");

  // to_event reconstructs the original, detail included.
  const TraceEvent back = recorder.to_event(ring[1]);
  EXPECT_EQ(back.type, TraceType::kPacketTx);
  EXPECT_EQ(back.uid, 2u);
  EXPECT_STREQ(back.detail, "blackhole");
  EXPECT_EQ(back.span, 2u);
  EXPECT_EQ(back.parent, 1u);
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

TEST(FlightRecorder, BinaryDumpRoundTrips) {
  const std::string path = temp_path("flight_roundtrip.icfr");
  FlightRecorder recorder{8, temp_path("flight_roundtrip")};
  for (std::uint64_t i = 1; i <= 12; ++i) {
    recorder.on_event(event_at(0.25 * static_cast<double>(i), i, i % 2 ? "odd" : "even"));
  }
  ASSERT_TRUE(recorder.dump_binary(path));

  std::string error;
  const auto dump = FlightRecorder::read_file(path, error);
  ASSERT_TRUE(dump.has_value()) << error;
  EXPECT_EQ(dump->total_emitted, 12u);
  ASSERT_EQ(dump->records.size(), 8u);
  const std::vector<FlightRecord> ring = recorder.snapshot();
  for (std::size_t i = 0; i < ring.size(); ++i) {
    EXPECT_EQ(dump->records[i].uid, ring[i].uid);
    EXPECT_DOUBLE_EQ(dump->records[i].t, ring[i].t);
    EXPECT_EQ(dump->details.at(dump->records[i].detail_id),
              recorder.detail(ring[i].detail_id));
  }
  std::remove(path.c_str());
}

TEST(FlightRecorder, TruncatedDumpIsRejectedWithError) {
  const std::string path = temp_path("flight_truncated.icfr");
  FlightRecorder recorder{8, temp_path("flight_truncated")};
  for (std::uint64_t i = 1; i <= 8; ++i) recorder.on_event(event_at(0.1 * i, i, "detail"));
  ASSERT_TRUE(recorder.dump_binary(path));

  // Chop the file mid-records: the reader must fail with a message, not
  // crash or return a partial dump.
  std::ifstream in{path, std::ios::binary};
  std::string bytes{std::istreambuf_iterator<char>{in}, std::istreambuf_iterator<char>{}};
  in.close();
  ASSERT_GT(bytes.size(), 40u);
  std::ofstream out{path, std::ios::binary | std::ios::trunc};
  out.write(bytes.data(), static_cast<std::streamsize>(bytes.size() / 2));
  out.close();

  std::string error;
  const auto dump = FlightRecorder::read_file(path, error);
  EXPECT_FALSE(dump.has_value());
  EXPECT_FALSE(error.empty());
  std::remove(path.c_str());
}

TEST(FlightRecorder, BadMagicIsRejected) {
  std::istringstream in{"NOPE....garbage...."};
  std::string error;
  EXPECT_FALSE(FlightRecorder::read(in, error).has_value());
  EXPECT_FALSE(error.empty());
}

TEST(FlightRecorder, PerfettoDumpIsWellFormedJson) {
  const std::string path = temp_path("flight_perfetto.json");
  FlightRecorder recorder{8, temp_path("flight_perfetto")};
  recorder.on_event(event_at(0.5, 1, "no_route"));
  ASSERT_TRUE(recorder.dump_perfetto(path));
  std::ifstream in{path};
  ASSERT_TRUE(in.good());
  std::string text{std::istreambuf_iterator<char>{in}, std::istreambuf_iterator<char>{}};
  EXPECT_EQ(text.front(), '[');
  EXPECT_NE(text.find("\"ph\":"), std::string::npos);
  EXPECT_NE(text.find("packet_tx"), std::string::npos);
  std::remove(path.c_str());
}

}  // namespace
}  // namespace icc::sim

// Flight recorder: an always-on, fixed-size in-memory ring of compact
// binary trace records.
//
// With ICC_FLIGHT=1 every TraceEvent — all categories, independent of the
// ICC_TRACE categories — is copied into a per-world ring of 56-byte POD
// records: the recorder is one more trace sink, subscribed to everything.
// Recording costs one interning lookup plus a struct store; nothing is
// formatted and nothing is allocated after the ring is sized, so the ring
// can stay enabled on production-scale runs (bench/trace_overhead measures
// the margin; the budget is < 5% events/s at N=1000).
//
// The payoff is the dump path: on an ICC_CHECKED invariant failure, on a
// coverage-ledger violation, or on a fatal signal, every live recorder
// writes its ring to disk — once as the raw binary `.icfr` format below and
// once as a Chrome/Perfetto trace-event JSON file — turning "rerun the
// failing seed with tracing on" into an immediate post-mortem.
//
// .icfr layout (native endianness; written and read on the same machine):
//   char     magic[4] = "ICFR"
//   uint32   version  = 1
//   uint64   total_emitted   events ever recorded (>= count when wrapped)
//   uint32   count            records that follow, oldest first
//   uint32   string_count     interned detail strings that follow the records
//   FlightRecord[count]       56 bytes each, see below
//   { uint32 len; char[len] } * string_count   detail table; detail_id 0 = ""
//
// Records never contain pointers or other address-space values (iccheck's
// trace-pointer rule guards this): a same-seed run reproduces the ring
// byte-for-byte, so two dumps can be diffed with tools/tracq.
#pragma once

#include <cstdint>
#include <iosfwd>
#include <map>
#include <optional>
#include <string>
#include <type_traits>
#include <vector>

#include "sim/trace.hpp"
#include "sim/types.hpp"

namespace icc::sim {

inline constexpr std::size_t kDefaultFlightRecords = 65536;

/// One ring entry: a TraceEvent with the detail literal replaced by an index
/// into the recorder's interned string table. Field order packs to 56 bytes
/// with no padding (static_asserted below), so dumps are raw writes.
struct FlightRecord {
  double t{0.0};
  std::uint64_t span{0};
  std::uint64_t parent{0};
  std::uint64_t uid{0};
  double value{0.0};
  std::uint32_t node{0};
  std::uint32_t peer{0};
  std::uint32_t size{0};
  std::uint16_t type{0};
  std::uint16_t detail_id{0};  ///< 0 = no detail
};

static_assert(sizeof(FlightRecord) == 56 && std::is_trivially_copyable_v<FlightRecord>,
              "FlightRecord must stay a packed, raw-writable POD");

/// A decoded .icfr dump (tools/tracq and tests).
struct FlightDump {
  std::uint64_t total_emitted{0};
  std::vector<FlightRecord> records;      ///< oldest first
  std::vector<std::string> details;       ///< index 0 is always ""
};

/// A trace sink the tracer subscribes to every category.
class FlightRecorder final : public TraceSink {
 public:
  /// `dump_base` prefixes the files written by dump(): each recorder gets a
  /// process-unique index, so concurrent campaign worlds never clobber each
  /// other's post-mortems.
  FlightRecorder(std::size_t capacity, std::string dump_base);
  ~FlightRecorder() override;
  FlightRecorder(const FlightRecorder&) = delete;
  FlightRecorder& operator=(const FlightRecorder&) = delete;

  /// Hot path: intern the detail, store one record, advance the ring.
  void on_event(const TraceEvent& event) override;

  [[nodiscard]] std::uint64_t total_emitted() const noexcept { return head_; }
  [[nodiscard]] std::size_t capacity() const noexcept { return ring_.size(); }
  /// Ring contents oldest-first (copies; for dumps and tests).
  [[nodiscard]] std::vector<FlightRecord> snapshot() const;
  [[nodiscard]] const std::string& detail(std::uint16_t id) const { return details_[id]; }
  [[nodiscard]] const std::vector<std::string>& details() const noexcept { return details_; }

  /// Write the binary ring dump. Returns false (with a stderr note) if the
  /// file cannot be written — a post-mortem must never bring the run down.
  bool dump_binary(const std::string& path) const;
  /// Write the ring as a loadable Chrome/Perfetto trace-event JSON file.
  bool dump_perfetto(const std::string& path) const;
  /// dump_binary + dump_perfetto under this recorder's dump base; announces
  /// the file names and `reason` on stderr.
  void dump(const char* reason) const;

  /// Reconstruct a TraceEvent from a record of this recorder (the detail
  /// pointer references the interned table, which outlives the call).
  [[nodiscard]] TraceEvent to_event(const FlightRecord& r) const;

  /// Parse a .icfr stream; returns std::nullopt and fills `error` on a
  /// malformed or truncated file.
  static std::optional<FlightDump> read(std::istream& in, std::string& error);
  static std::optional<FlightDump> read_file(const std::string& path, std::string& error);

 private:
  std::vector<FlightRecord> ring_;
  std::uint64_t head_{0};  ///< total records ever written
  std::vector<std::string> details_;  ///< id -> content; id 0 = ""
  std::map<std::string, std::uint16_t, std::less<>> detail_ids_;  ///< content -> id
  // One-entry cache for the common case of a site emitting the same literal
  // repeatedly; keyed by pointer identity but never emitted, so it cannot
  // leak an address into the trace.
  const char* last_detail_{nullptr};
  std::uint16_t last_detail_id_{0};
  std::string dump_base_;
  std::uint64_t index_{0};  ///< process-unique recorder index
};

/// Dump every live recorder (invariant failures, ledger violations, fatal
/// signals). Returns the number of recorders dumped. Safe to call with none
/// registered.
int dump_all_flight_recorders(const char* reason);

}  // namespace icc::sim

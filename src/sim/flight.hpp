// Flight recorder: an always-on, fixed-size in-memory ring of the newest
// trace events.
//
// With ICC_FLIGHT=1 every TraceEvent — all categories, independent of the
// ICC_TRACE categories — is copied into a per-world ring: the recorder is
// one more trace sink, subscribed to everything. Recording is one struct
// copy; nothing is formatted and nothing is allocated after the ring is
// sized, so the ring can stay enabled on production-scale runs
// (bench/trace_overhead measures the margin; the budget is < 5% events/s at
// N=1000).
//
// The payoff is the dump path: on an ICC_CHECKED invariant failure, on a
// coverage-ledger violation, or on a fatal signal, every live recorder
// renders its ring, oldest first, through the JsonlTraceSink a live trace
// uses into one `<base>.<n>.jsonl` — the canonical trace format every tool
// reads (`tracq export` turns it into a Chrome/Perfetto trace) — turning
// "rerun the failing seed with tracing on" into an immediate post-mortem.
//
// An event's `detail` points at a string literal or a static name table
// (the tracer's contract), so the ring keeps the pointer and needs no string
// storage of its own; only the text is ever written. A same-seed run
// therefore dumps byte-identical files, and a dump diffs against a live
// trace with tools/tracq.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "sim/trace.hpp"

namespace icc::sim {

inline constexpr std::size_t kDefaultFlightRecords = 65536;

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

  /// Hot path: store one event, advance the ring.
  void on_event(const TraceEvent& event) override {
    ring_[head_ % ring_.size()] = event;
    ++head_;
  }

  [[nodiscard]] std::uint64_t total_emitted() const noexcept { return head_; }
  /// Ring contents oldest-first (copies; for dumps and tests).
  [[nodiscard]] std::vector<TraceEvent> snapshot() const;

  /// Write the ring as canonical JSONL, one line per event. Returns false
  /// (with a stderr note) if the file cannot be written — a post-mortem must
  /// never bring the run down.
  bool dump_jsonl(const std::string& path) const;
  /// dump_jsonl to `<base>.<n>.jsonl` under this recorder's dump base;
  /// announces the file name and `reason` on stderr.
  void dump(const char* reason) const;

 private:
  std::vector<TraceEvent> ring_;
  std::uint64_t head_{0};  ///< total events ever recorded
  std::string dump_base_;
  std::uint64_t index_{0};  ///< process-unique recorder index
};

/// Dump every live recorder (invariant failures, ledger violations, fatal
/// signals). Returns the number of recorders dumped. Safe to call with none
/// registered.
int dump_all_flight_recorders(const char* reason);

}  // namespace icc::sim

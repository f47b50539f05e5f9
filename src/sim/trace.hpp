// Structured event tracing: the simulator's equivalent of an ns-2 trace file.
//
// Every layer emits typed TraceEvents (packet tx/rx/drop with reason, MAC
// collision/backoff, route discovery, voting rounds, watchdog accusations,
// fusion decisions, energy charges) into the World's Tracer. Subscribers
// (sinks) consume them — the JSONL sink, the flight recorder's ring, or an
// in-memory collector for tests. Each sink subscribes with its own category
// mask. JSONL is the one text rendering: a live trace and a flight-recorder
// dump are the same format, and tools/tracq reads both (its `export` turns
// either into a Chrome/Perfetto trace).
//
// Hot-path contract: with tracing disabled (no `ICC_TRACE`, no sinks) an
// emission is a single mask test on an integer — no string formatting, no
// allocation, no virtual dispatch. Events carry only POD fields plus an
// optional `detail` that must point at a string literal (or an entry of a
// static name table), so constructing one never allocates either, and the
// flight recorder can keep the pointer for the life of the process.
//
// Lineage: every originated packet carries a span id (its uid) and a parent
// span linking it to the event that caused it — the received RREQ a node
// re-floods, the buffered data packet that triggered a discovery, the
// watched transmission behind a watchdog accusation, the intercepted RREP
// behind a voting round. Events carry (span, parent) so the full "life of a
// packet / of a conviction" tree is reconstructable from a trace (tools/
// tracq tree). Both fields render only when nonzero, keeping untraced
// events byte-identical to the pre-lineage format.
//
// Environment knobs (read by World at construction):
//   ICC_TRACE       comma-separated categories to enable:
//                   packet,mac,route,voting,watchdog,fusion,energy,fault,
//                   suspicion,health  or  all; an unknown name aborts. The
//                   trace is JSONL on stderr unless ICC_TRACE_FILE is set.
//   ICC_TRACE_FILE  write the JSONL trace there instead, whatever the
//                   file's name. Worlds created by the same process append
//                   to one shared stream (truncated once at first open), so
//                   multi-world drivers produce a single coherent,
//                   reproducible trace. An unwritable path is a fatal
//                   configuration error (the process exits) — silently
//                   discarding a requested trace would waste the whole run.
//   ICC_FLIGHT      enable the always-on in-memory flight recorder
//                   (sim/flight.hpp), a sink of every category;
//                   ICC_FLIGHT_RECORDS sizes the ring (at least 1 record;
//                   less aborts), ICC_FLIGHT_DUMP sets the dump path prefix.
#pragma once

#include <cstdint>
#include <iosfwd>
#include <memory>
#include <string>
#include <vector>

#include "sim/types.hpp"

namespace icc::sim {

enum class TraceCategory : std::uint8_t {
  kPacket,    ///< link/network packet lifecycle
  kMac,       ///< CSMA internals: collisions, backoff, retry exhaustion
  kRoute,     ///< AODV discovery traffic and outcomes
  kVoting,    ///< inner-circle voting rounds
  kWatchdog,  ///< overhearing-based accusations
  kFusion,    ///< sensor-fusion / base-station decisions
  kEnergy,    ///< non-radio energy charges (crypto ops)
  kFault,     ///< fault injection and its detection/neutralization
  kSuspicion, ///< suspicions-manager verdicts (temporary suspicion, conviction)
  kHealth,    ///< periodic health samples (queue depth, air table, energy)
  kCount
};

enum class TraceType : std::uint8_t {
  kPacketTx,
  kPacketRx,
  kPacketDrop,
  kMacCollision,
  kMacBackoff,
  kMacSendFailed,
  kRouteRreqSent,
  kRouteRrepSent,
  kRouteDiscovered,
  kRouteDiscoveryFailed,
  kVoteRoundStart,
  kVoteVerdict,
  kWatchdogAccuse,
  kWatchdogBlacklist,
  kFusionDecision,
  kEnergyCharge,
  kFaultInjected,     ///< an injector fired (detail = fault class)
  kFaultDetected,     ///< a defense noticed a fault's effect
  kFaultNeutralized,  ///< a defense masked a fault's effect
  kSuspect,           ///< a node was temporarily suspected (detail = reason)
  kConvict,           ///< a node was permanently convicted (detail = reason)
  kHealthSample,      ///< periodic sampler reading (detail = metric name)
  kCount
};

[[nodiscard]] TraceCategory trace_category(TraceType type) noexcept;
[[nodiscard]] const char* trace_type_name(TraceType type) noexcept;
[[nodiscard]] const char* trace_category_name(TraceCategory cat) noexcept;

/// One simulator event. POD; `detail` must be a string literal (or nullptr).
struct TraceEvent {
  Time t{0.0};
  TraceType type{TraceType::kPacketTx};
  NodeId node{kNoNode};        ///< the node the event happened at
  NodeId peer{kNoNode};        ///< counterpart (receiver, suspect, center...)
  std::uint64_t uid{0};        ///< packet uid / frame id / round id
  std::uint32_t size{0};       ///< payload bytes where meaningful
  double value{0.0};           ///< type-specific scalar (backoff s, level, J)
  const char* detail{nullptr}; ///< reason / verdict, static string only
  // Lineage (appended so positional brace-inits of the older fields stay
  // valid). Zero means "no lineage"; both render only when nonzero.
  std::uint64_t span{0};       ///< causal id this event owns / is about
  std::uint64_t parent{0};     ///< span of the event that caused this one
};

/// Subscriber interface. A sink registered on a Tracer sees every event in
/// the categories it subscribed to.
class TraceSink {
 public:
  virtual ~TraceSink() = default;
  virtual void on_event(const TraceEvent& event) = 0;
};

/// One JSON object per line; field order and float formatting are fixed so
/// equal-seed runs yield byte-identical traces.
class JsonlTraceSink final : public TraceSink {
 public:
  explicit JsonlTraceSink(std::ostream& out) : out_{out} {}
  void on_event(const TraceEvent& event) override;

 private:
  std::ostream& out_;
};

/// Test helper: buffers events in memory.
class CollectingTraceSink final : public TraceSink {
 public:
  void on_event(const TraceEvent& event) override { events_.push_back(event); }
  [[nodiscard]] const std::vector<TraceEvent>& events() const noexcept { return events_; }
  void clear() { events_.clear(); }

 private:
  std::vector<TraceEvent> events_;
};

class FlightRecorder;

/// Every category: `parse_mask("all")`.
inline constexpr std::uint32_t kAllTraceCategories =
    (1u << static_cast<unsigned>(TraceCategory::kCount)) - 1u;

class Tracer {
 public:
  Tracer();
  ~Tracer();
  Tracer(const Tracer&) = delete;
  Tracer& operator=(const Tracer&) = delete;

  /// Reads ICC_TRACE / ICC_TRACE_FILE / ICC_FLIGHT*
  /// and installs the default sinks. Called by the World constructor;
  /// harmless to call on an already-set-up tracer.
  void configure_from_env();

  /// `spec` is the ICC_TRACE value: a comma-separated category list
  /// ("packet,voting") or "all". An empty spec yields 0; an unknown name
  /// aborts through exp::env_fail, naming ICC_TRACE and the categories.
  static std::uint32_t parse_mask(const char* spec);

  /// Subscribe `sink` to the categories in `mask`. The sink stays owned by
  /// the caller and must outlive the tracer.
  void add_sink(TraceSink* sink, std::uint32_t mask);
  void add_owned_sink(std::unique_ptr<TraceSink> sink, std::uint32_t mask);

  /// Subscribe a flight recorder to every category, so its ring is complete
  /// when a post-mortem needs it.
  void enable_flight(std::size_t capacity, std::string dump_base);
  [[nodiscard]] FlightRecorder* flight() const noexcept { return flight_; }

  /// Hot-path guard: one AND plus a compare when tracing is off.
  [[nodiscard]] bool enabled(TraceCategory cat) const noexcept {
    return (mask_ & (1u << static_cast<unsigned>(cat))) != 0;
  }
  [[nodiscard]] bool enabled(TraceType type) const noexcept {
    return enabled(trace_category(type));
  }

  /// Emit if the event's category is enabled. Callers on per-packet paths
  /// should still guard with enabled() when assembling the event costs
  /// anything beyond writing POD fields.
  void emit(const TraceEvent& event) {
    const std::uint32_t bit = 1u << static_cast<unsigned>(trace_category(event.type));
    if ((mask_ & bit) != 0) dispatch(event, bit);
  }

 private:
  struct Subscription {
    TraceSink* sink;
    std::uint32_t mask;
  };

  void dispatch(const TraceEvent& event, std::uint32_t bit);

  std::uint32_t mask_{0};  ///< union of the subscriptions' masks
  FlightRecorder* flight_{nullptr};
  std::vector<Subscription> sinks_;
  std::vector<std::unique_ptr<TraceSink>> owned_;
};

}  // namespace icc::sim

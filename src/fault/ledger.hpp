// Neutralization-coverage ledger: the bookkeeping that answers the paper's
// central question — what fraction of injected faults of class X were
// detected, neutralized, or escaped?
//
// Injectors call report_injected at the moment a fault takes effect;
// defenses (the AODV guard, the watchdog, inner-circle voting, FT-cluster
// fusion, the MAC ack machinery) call report_detected / report_neutralized
// when they notice or mask one. All three bump interned counters
//
//   fault.<class>.injected        and   fault.<class>.injected.n<id>
//   fault.<class>.detected              fault.<class>.detected.n<id>
//   fault.<class>.neutralized           fault.<class>.neutralized.n<id>
//
// in the world's metrics registry (so they flow into RunReport JSON like
// every other metric) and emit a `fault`-category trace event.
//
// Detectors fire on symptoms, not on injections: a link break looks the same
// whether a crash injector or plain mobility caused it, so the raw detected
// counter can exceed injected on a clean run. The ledger therefore derives
//
//   detected'   = min(detected, injected)
//   neutralized'= min(neutralized, detected')
//   escaped     = injected - detected'
//
// which makes `injected == detected' + escaped` hold by construction while
// the raw counters stay visible in the registry for anyone who wants the
// uncapped symptom counts.
#pragma once

#include <array>
#include <cstdint>
#include <string>

#include "sim/types.hpp"

namespace icc::net {
class Services;
}  // namespace icc::net

namespace icc::sim {
class MetricsRegistry;
class World;
class RunReport;
}  // namespace icc::sim

namespace icc::fault {

enum class FaultClass : std::uint8_t { kChannel, kNode, kProtocol, kSensor, kCount };

inline constexpr std::size_t kNumFaultClasses = static_cast<std::size_t>(FaultClass::kCount);

[[nodiscard]] const char* fault_class_name(FaultClass c) noexcept;

/// An injector fired: a frame was lost/corrupted, a node crashed, a forged
/// RREP left the attacker, a sensor reading was falsified. `node` is the
/// node where the fault manifests (the victim receiver for channel faults,
/// the faulty/malicious node otherwise).
///
/// The optional lineage fields tie the booking into the causal trace
/// (see sim/trace.hpp): `span` names the booking itself when the caller
/// allocated one (Services::next_span), `parent` points at the packet or
/// accusation that caused it. Zero means "not linked".
///
/// Takes the net::Services surface (metrics + tracer + clock) so the same
/// bookings work from simulated nodes and from live testnet daemons.
void report_injected(net::Services& services, FaultClass c, sim::NodeId node,
                     std::uint64_t span = 0, std::uint64_t parent = 0);
/// A defense observed a fault's effect (guard check failed, watchdog charged
/// a failure, a route broke, fusion excluded a reading, CRC/ack caught a
/// damaged frame).
void report_detected(net::Services& services, FaultClass c, sim::NodeId node,
                     std::uint64_t span = 0, std::uint64_t parent = 0);
/// A defense masked the effect before it could spread (raw RREP suppressed,
/// pathrater rerouted, fused value agreed despite faulty readings).
void report_neutralized(net::Services& services, FaultClass c, sim::NodeId node,
                        std::uint64_t span = 0, std::uint64_t parent = 0);

/// One fault class's coverage totals with the capping above applied.
struct CoverageRow {
  std::uint64_t injected{0};
  std::uint64_t detected{0};     ///< capped at injected
  std::uint64_t neutralized{0};  ///< capped at detected
  std::uint64_t escaped{0};      ///< injected - detected

  /// Sum another row into this one (aggregating runs or classes).
  CoverageRow& operator+=(const CoverageRow& other) {
    injected += other.injected;
    detected += other.detected;
    neutralized += other.neutralized;
    escaped += other.escaped;
    return *this;
  }
};

using CoverageRows = std::array<CoverageRow, kNumFaultClasses>;

/// Write `rows` into `report` as gauges
/// `fault.<class>.coverage.{injected,detected,neutralized,escaped}` — the one
/// schema for a run's ledger and for rows summed over many runs.
void add_coverage_to_report(const CoverageRows& rows, sim::RunReport& report);

/// Read-only view over a metrics registry's fault counters. Constructible
/// from a World (the usual simulator path) or from a bare registry (testnet
/// daemons, which have no World).
class CoverageLedger {
 public:
  explicit CoverageLedger(const sim::World& world);
  explicit CoverageLedger(const sim::MetricsRegistry& metrics) : metrics_{metrics} {}

  [[nodiscard]] CoverageRow row(FaultClass c) const;
  [[nodiscard]] CoverageRows rows() const;

  /// Accounting invariants, checked after a run (the chaos soak gates on
  /// this): per class, the per-node counters sum to the class total for
  /// each stage, and injected == detected + escaped in the derived row.
  [[nodiscard]] bool consistent() const;

  /// add_coverage_to_report(rows(), report): a report carries the ledger
  /// alongside (or without) the raw registry.
  void add_to_report(sim::RunReport& report) const { add_coverage_to_report(rows(), report); }

 private:
  const sim::MetricsRegistry& metrics_;
};

}  // namespace icc::fault

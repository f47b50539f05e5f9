#include "fault/ledger.hpp"

#include <algorithm>
#include <string_view>

#include "net/host.hpp"
#include "sim/report.hpp"
#include "sim/world.hpp"

namespace icc::fault {

namespace {

constexpr const char* kStageNames[] = {"injected", "detected", "neutralized"};
enum Stage : std::size_t { kInjected = 0, kDetected = 1, kNeutralized = 2 };

std::string stage_counter_name(FaultClass c, Stage stage) {
  std::string name = "fault.";
  name += fault_class_name(c);
  name += '.';
  name += kStageNames[stage];
  return name;
}

void report(net::Services& services, FaultClass c, sim::NodeId node, Stage stage,
            sim::TraceType type, std::uint64_t span, std::uint64_t parent) {
  auto& metrics = services.metrics();
  const std::string base = stage_counter_name(c, stage);
  metrics.add_named(base, 1.0);
  if (node != sim::kNoNode) {
    metrics.add_named(sim::MetricsRegistry::scoped(base, node), 1.0);
  }
  services.tracer().emit({services.now(), type, node, sim::kNoNode, 0, 0, 0.0,
                          fault_class_name(c), span, parent});
}

}  // namespace

const char* fault_class_name(FaultClass c) noexcept {
  switch (c) {
    case FaultClass::kChannel:
      return "channel";
    case FaultClass::kNode:
      return "node";
    case FaultClass::kProtocol:
      return "protocol";
    case FaultClass::kSensor:
      return "sensor";
    case FaultClass::kCount:
      break;
  }
  return "?";
}

void report_injected(net::Services& services, FaultClass c, sim::NodeId node,
                     std::uint64_t span, std::uint64_t parent) {
  report(services, c, node, kInjected, sim::TraceType::kFaultInjected, span, parent);
}

void report_detected(net::Services& services, FaultClass c, sim::NodeId node,
                     std::uint64_t span, std::uint64_t parent) {
  report(services, c, node, kDetected, sim::TraceType::kFaultDetected, span, parent);
}

void report_neutralized(net::Services& services, FaultClass c, sim::NodeId node,
                        std::uint64_t span, std::uint64_t parent) {
  report(services, c, node, kNeutralized, sim::TraceType::kFaultNeutralized, span, parent);
}

CoverageLedger::CoverageLedger(const sim::World& world) : metrics_{world.metrics()} {}

CoverageRow CoverageLedger::row(FaultClass c) const {
  const auto& metrics = metrics_;
  const auto raw = [&](Stage stage) {
    return static_cast<std::uint64_t>(metrics.counter_value(stage_counter_name(c, stage)));
  };
  CoverageRow r;
  r.injected = raw(kInjected);
  r.detected = std::min(raw(kDetected), r.injected);
  r.neutralized = std::min(raw(kNeutralized), r.detected);
  r.escaped = r.injected - r.detected;
  return r;
}

CoverageRows CoverageLedger::rows() const {
  CoverageRows out{};
  for (std::size_t c = 0; c < kNumFaultClasses; ++c) out[c] = row(static_cast<FaultClass>(c));
  return out;
}

bool CoverageLedger::consistent() const {
  for (std::size_t ci = 0; ci < kNumFaultClasses; ++ci) {
    const auto c = static_cast<FaultClass>(ci);
    for (const Stage stage : {kInjected, kDetected, kNeutralized}) {
      const std::string base = stage_counter_name(c, stage);
      const std::string node_prefix = base + ".n";
      double node_sum = 0.0;
      bool any_node = false;
      metrics_.for_each_counter([&](const std::string& name, double value) {
        if (name.size() > node_prefix.size() &&
            std::string_view{name}.substr(0, node_prefix.size()) == node_prefix) {
          node_sum += value;
          any_node = true;
        }
      });
      // Every per-node increment also bumps the class total, so the split
      // counters must sum to it exactly (reports with node == kNoNode have
      // no per-node part and only show up when nothing was attributed).
      if (any_node && node_sum != metrics_.counter_value(base)) return false;
    }
    const CoverageRow r = row(c);
    if (r.injected != r.detected + r.escaped) return false;
    if (r.neutralized > r.detected) return false;
  }
  return true;
}

void add_coverage_to_report(const CoverageRows& rows, sim::RunReport& report) {
  for (std::size_t ci = 0; ci < kNumFaultClasses; ++ci) {
    const CoverageRow& r = rows[ci];
    std::string base = "fault.";
    base += fault_class_name(static_cast<FaultClass>(ci));
    base += ".coverage.";
    report.add_gauge(base + "injected", static_cast<double>(r.injected));
    report.add_gauge(base + "detected", static_cast<double>(r.detected));
    report.add_gauge(base + "neutralized", static_cast<double>(r.neutralized));
    report.add_gauge(base + "escaped", static_cast<double>(r.escaped));
  }
}

}  // namespace icc::fault

// Suspicions Manager (§4, component 2).
//
// A node p suspects node q *permanently* only with provable evidence of
// misbehavior (e.g., a properly signed message with an invalid field or one
// that violates the executing protocol); otherwise suspicion is temporary.
// The Inner-circle Interceptor consults this list to suppress traffic from
// suspected nodes.
#pragma once

#include <map>
#include <string>
#include <vector>

#include "sim/types.hpp"

namespace icc::core {

/// Strike-based escalation: repeated temporary suspicions of one node
/// within a sliding window harden into a conviction. The paper reserves
/// convictions for provable evidence; escalation extends that to attackers
/// whose individual actions each look merely dubious (a cooperative
/// blackhole pair splits the evidence across two nodes, so neither ever
/// produces one provably bad message) but whose *pattern* is damning.
struct EscalationParams {
  /// Suspicions within the window needed to convict; 0 disables escalation
  /// entirely, preserving the paper's evidence-only conviction rule.
  int strike_threshold{0};
  sim::Time strike_window{60.0};
  /// Colluders fall together: once one node has been convicted by
  /// escalation, later nodes convict at half the threshold — the first
  /// conviction is the hard part, its partner inherits the distrust.
  bool convict_partners{false};
};

class SuspicionsManager {
 public:
  /// Default temporary-suspicion duration ("a few minutes" in the paper).
  explicit SuspicionsManager(sim::Time temporary_duration = 120.0)
      : temporary_duration_{temporary_duration} {}

  void set_escalation(EscalationParams params) { escalation_ = params; }
  [[nodiscard]] std::size_t escalated_convictions() const noexcept {
    return escalated_convictions_;
  }

  /// Evidence-free suspicion: expires after the configured duration. With
  /// escalation armed, also records a strike and may convict (see
  /// EscalationParams).
  void suspect_temporarily(sim::NodeId id, sim::Time now, const std::string& reason);

  /// Provable misbehavior: permanent conviction. A conviction never expires
  /// and overrides any temporary entry.
  void convict(sim::NodeId id, const std::string& evidence);

  [[nodiscard]] bool suspected(sim::NodeId id, sim::Time now) const;
  [[nodiscard]] bool convicted(sim::NodeId id) const;

  /// All currently suspected nodes (tests / tracing).
  [[nodiscard]] std::vector<sim::NodeId> suspects(sim::Time now) const;
  [[nodiscard]] std::size_t conviction_count() const { return convicted_.size(); }

 private:
  struct TempEntry {
    sim::Time until;
    std::string reason;
  };

  sim::Time temporary_duration_;
  EscalationParams escalation_{};
  std::size_t escalated_convictions_{0};
  // Ordered deliberately: suspects() iterates both maps and its output can
  // steer interception decisions, so the walk must not depend on hash-table
  // layout (DESIGN.md §9).
  std::map<sim::NodeId, TempEntry> temporary_;
  std::map<sim::NodeId, std::string> convicted_;
  std::map<sim::NodeId, std::vector<sim::Time>> strikes_;
};

}  // namespace icc::core

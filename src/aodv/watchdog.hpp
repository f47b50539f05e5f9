// Watchdog / pathrater: the detection-based routing-misbehavior defense of
// Marti et al. [28] — the baseline the paper's §6 contrasts inner-circle
// masking against.
//
// After handing a data packet to a next hop that must forward it further,
// the watchdog listens promiscuously for that hop's retransmission of the
// same packet; a hop that repeatedly fails to forward is blacklisted
// locally (pathrater): its existing routes are invalidated and its future
// RREPs ignored. Detection-based defenses have inherent detection latency
// and per-observer state, which is exactly what gray hole attackers and
// roaming attackers exploit (§6) — bench/grayhole_sweep quantifies this
// against the masking inner-circle approach.
#pragma once

#include <set>
#include <unordered_map>
#include <vector>

#include "aodv/aodv.hpp"
#include "sim/metrics.hpp"

namespace icc::aodv {

class Watchdog {
 public:
  struct Params {
    /// How long the next hop has to retransmit before a failure is charged.
    sim::Time overhear_timeout{0.25};
    /// Forwarding failures before a node is blacklisted.
    int tolerance{4};
    /// Sliding window: failures older than this are forgiven (bounds false
    /// positives from transient collisions).
    sim::Time failure_window{30.0};
  };

  Watchdog(Aodv& aodv, Params params);

  [[nodiscard]] bool blacklisted(sim::NodeId id) const { return blacklist_.count(id) != 0; }
  [[nodiscard]] std::size_t blacklist_size() const noexcept { return blacklist_.size(); }
  [[nodiscard]] std::uint64_t failures_charged() const noexcept { return failures_charged_; }

 private:
  void on_outbound_data(const sim::Packet& packet, sim::NodeId next_hop);
  void on_overheard(const sim::Frame& frame);
  void check_pending(std::uint64_t uid);
  /// `watched_span` is the uid of the packet the suspect failed to forward —
  /// the accusation's lineage parent.
  void charge_failure(sim::NodeId suspect, std::uint64_t watched_span);

  struct Pending {
    sim::NodeId next_hop{sim::kNoNode};
    sim::Time deadline{0.0};
  };

  Aodv& aodv_;
  Params params_;
  std::unordered_map<std::uint64_t, Pending> pending_;  ///< packet uid -> watch
  std::unordered_map<sim::NodeId, std::vector<sim::Time>> failures_;
  std::set<sim::NodeId> blacklist_;
  std::uint64_t failures_charged_{0};
  // Interned once so the hot paths (every charge / suppressed RREP) skip the
  // registry's name lookup, and so these counters share the registry that
  // the coverage ledger and experiment tables read.
  sim::MetricId m_failures_;
  sim::MetricId m_blacklisted_;
  sim::MetricId m_rrep_suppressed_;
};

}  // namespace icc::aodv

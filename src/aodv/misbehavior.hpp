// Insider protocol misbehavior (§5.1, generalized): one attacker
// implementation driven by a declarative fault::ProtocolFault spec.
//
// The paper's black hole — advertise the freshest route to anything
// (sequence-number inflation), then silently drop the attracted data — is
// fault::black_hole(node); the gray hole is the same spec on a periodic
// Schedule. The same machinery also expresses selective forwarding
// (drop_prob < 1 without route attraction), data delay, RREP replay, and
// RREQ flooding, so every §5.1-style adversary is a plan, not a subclass.
//
// The zoo variants ride the same spec:
//   partner          cooperative blackhole — attract routes, then *forward*
//                    the attracted data to a colluding dropper. The watchdog
//                    hears a genuine retransmission and clears the charge;
//                    the packet still dies, one hop later, out of sight.
//   forge_next_hop   attract routes, then misroute data to a ghost node.
//                    Again a real retransmission (watchdog-clean), but
//                    addressed to nobody: the frame dies unacked on the air.
//   rush_seq_bump    answer RREQs immediately with a small, plausible
//                    dest_seq bump — winning the reply race instead of the
//                    freshness contest (the rushing attack on discovery).
//   replay_seq_bump  each periodic replay re-inflates the captured RREP's
//                    dest_seq, so every copy looks fresher than the last
//                    (the AODVSEC target forgery).
//
// Specs whose AttackKind is a zoo extension additionally book a
// "fault.kind.<name>" counter per injected action, which the defense-matrix
// bench reads; the paper-era attackers do not (attack_kind_booked), keeping
// legacy runs' metric registries byte-identical.
#pragma once

#include <optional>

#include "aodv/aodv.hpp"
#include "fault/plan.hpp"

namespace icc::aodv {

class MisbehaviorAodv final : public Aodv {
 public:
  MisbehaviorAodv(net::Host& node, Params params, fault::ProtocolFault spec);

  [[nodiscard]] const fault::ProtocolFault& spec() const noexcept { return spec_; }
  /// Data packets this attacker dropped (from the interned per-node
  /// counter, so the experiment tables and the coverage ledger agree).
  [[nodiscard]] std::uint64_t packets_dropped() const;

 protected:
  void handle_rreq(const RreqMsg& rreq, sim::NodeId from) override;
  void handle_rrep(const RrepMsg& rrep, sim::NodeId from) override;
  void forward_data(const sim::Packet& packet, const DataMsg& data) override;

 private:
  [[nodiscard]] bool active() const;
  void replay_tick();
  void flood_tick();
  /// Books the spec's "fault.kind.<name>" counter when its kind is a zoo
  /// extension; no-op (and no interned counter) for the paper-era attackers.
  void book_kind();

  fault::ProtocolFault spec_;
  sim::Rng attack_rng_;
  std::optional<std::pair<RrepMsg, sim::NodeId>> last_rrep_;  ///< replay ammo
  sim::MetricId m_rrep_forged_;
  sim::MetricId m_data_dropped_;
  sim::MetricId m_data_dropped_node_;
  sim::MetricId m_kind_{};  ///< interned only when kind_booked_
  bool kind_booked_{false};
};

}  // namespace icc::aodv

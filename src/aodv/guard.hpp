// AODV inner-circle callbacks (Fig 6): wires an AODV agent to the
// inner-circle framework so that every RREP is validated by the sender's
// one-hop neighborhood before it can propagate.
//
// Each node maintains the mapping fw : (dest, dest_seq) -> set of nodes
// allowed to forward RREPs for that route. The deterministic-voting check
// accepts a proposed RREP only if the proposing center is the route's
// destination or is in fw; agreed messages extend fw with the center and its
// designated next hop, and inject the RREP into the next hop's local AODV.
//
// Guarantee (§5.1): with dependability level L chosen so that at least one
// inner-circle node besides the center is non-Byzantine (T >= 1), a
// malicious node that is not on a path to D cannot diffuse a RREP for D.
//
// SecParams layers AODVSEC-style *semantic* verification on top of the
// membership check: the fw-map answers "may this node forward RREPs for this
// route?", while the plausibility rules answer "could this RREP possibly be
// true?" — a destination sequence number leaping further than max_seq_jump
// past anything this node has heard, an impossible hop count, or a
// designated next hop outside the world all mark the claim forged
// regardless of who proposes it. That is exactly the surface the forgery
// attackers (rrep_forge_seq, rushed_rrep, rrep_forge_next_hop) exploit.
#pragma once

#include <map>
#include <set>

#include "aodv/aodv.hpp"
#include "core/framework.hpp"

namespace icc::aodv {

/// AODVSEC-style RREP plausibility verification (off by default: the base
/// Fig 6 guard stays byte-identical to the paper's behavior).
struct SecParams {
  bool verify{false};  ///< arm the plausibility rules below
  /// Max believable dest_seq advance over this node's recorded value. Honest
  /// refreshes bump by a handful; the forgers bump by 100..1e6 per copy.
  std::uint32_t max_seq_jump{64};
  std::uint32_t max_hop_count{16};  ///< claims beyond any real path are forged
  /// Feed rejections into the suspicions manager, so repeat forgers can be
  /// convicted by strike escalation (core::EscalationParams).
  bool suspect_on_reject{false};
};

class AodvGuard {
 public:
  AodvGuard(Aodv& aodv, core::InnerCircleNode& icc, SecParams sec = {});

  /// fw-map lookup (tests / tracing).
  [[nodiscard]] bool is_valid_forwarder(sim::NodeId who, sim::NodeId dest,
                                        std::uint32_t dest_seq) const;

 private:
  [[nodiscard]] bool check(sim::NodeId center, const core::Value& value);
  /// The AODVSEC rules; true = plausible. Only consulted when sec_.verify.
  [[nodiscard]] bool sec_plausible(const RrepMsg& rrep, sim::NodeId next_hop) const;
  void on_agreed(const core::AgreedMsg& msg, bool is_center);
  void prune(sim::Time now) const;

  Aodv& aodv_;
  core::InnerCircleNode& icc_;
  SecParams sec_;
  sim::Time entry_lifetime_;

  struct FwEntry {
    std::set<sim::NodeId> forwarders;
    sim::Time updated{0.0};
  };
  mutable std::map<std::pair<sim::NodeId, std::uint32_t>, FwEntry> fw_;
};

}  // namespace icc::aodv

#include "aodv/guard.hpp"

#include "fault/ledger.hpp"

namespace icc::aodv {

AodvGuard::AodvGuard(Aodv& aodv, core::InnerCircleNode& icc, SecParams sec)
    : aodv_{aodv}, icc_{icc}, sec_{sec}, entry_lifetime_{30.0} {
  // Outgoing RREPs are redirected to deterministic voting...
  icc_.intercept_outgoing(
      [](const sim::Packet& packet, sim::NodeId) {
        return packet.port == sim::Port::kAodv && packet.body_as<RrepMsg>() != nullptr;
      },
      [](const sim::Packet& packet, sim::NodeId next_hop) {
        return RrepMsg::wire_encode(*packet.body_as<RrepMsg>(), next_hop);
      });
  // ...and raw RREPs off the air are suppressed: only agreed messages carry
  // valid route replies in a guarded network.
  icc_.suppress_incoming([](const sim::Packet& packet) {
    return packet.port == sim::Port::kAodv && packet.body_as<RrepMsg>() != nullptr;
  });

  icc_.callbacks().check = [this](sim::NodeId center, const core::Value& value) {
    return check(center, value);
  };
  icc_.callbacks().on_agreed = [this](const core::AgreedMsg& msg, bool is_center) {
    on_agreed(msg, is_center);
  };
}

void AodvGuard::prune(sim::Time now) const {
  std::erase_if(fw_, [&](const auto& kv) { return now - kv.second.updated > entry_lifetime_; });
}

bool AodvGuard::is_valid_forwarder(sim::NodeId who, sim::NodeId dest,
                                   std::uint32_t dest_seq) const {
  prune(aodv_.node().now());
  const auto it = fw_.find({dest, dest_seq});
  return it != fw_.end() && it->second.forwarders.count(who) != 0;
}

bool AodvGuard::sec_plausible(const RrepMsg& rrep, sim::NodeId next_hop) const {
  // A next hop outside the world can only be fabricated (forge_next_hop).
  if (next_hop != sim::kBroadcast &&
      next_hop >= static_cast<sim::NodeId>(aodv_.node().num_nodes())) {
    return false;
  }
  if (rrep.hop_count > sec_.max_hop_count) return false;
  // Freshness sanity: an honest destination advances its sequence number a
  // step at a time, so a claim leaping far past what this node has recorded
  // is a forgery (seq-inflation, compounded replay). An unknown destination
  // gets the benefit of the doubt — the rule needs a local anchor.
  if (const auto known = aodv_.known_dest_seq(rrep.dest)) {
    if (rrep.dest_seq > *known && rrep.dest_seq - *known > sec_.max_seq_jump) return false;
  }
  return true;
}

bool AodvGuard::check(sim::NodeId center, const core::Value& value) {
  const auto decoded = RrepMsg::wire_decode(value);
  if (sec_.verify && decoded && !sec_plausible(decoded->first, decoded->second)) {
    net::Host& host = aodv_.node();
    host.metrics().add_named("guard.sec_rejected");
    fault::report_detected(host, fault::FaultClass::kProtocol, center, 0,
                           host.lineage_parent());
    if (sec_.suspect_on_reject) {
      icc_.suspicions().suspect_temporarily(center, host.now(), "aodvsec_implausible_rrep");
    }
    return false;
  }
  // Fig 6: accept iff the center is the sought destination itself, or this
  // node already recorded it as a legitimate forwarder for (dest, dest_seq).
  const bool ok = decoded && (center == decoded->first.dest ||
                              is_valid_forwarder(center, decoded->first.dest,
                                                 decoded->first.dest_seq));
  // A rejected checkVal is the guard *detecting* an implausible route claim
  // from the center — the coverage ledger attributes it to that node. Its
  // lineage parent is whatever packet carried the claim (the propose being
  // checked, via the reception scope).
  if (!ok) {
    net::Host& host = aodv_.node();
    fault::report_detected(host, fault::FaultClass::kProtocol, center, 0,
                           host.lineage_parent());
  }
  return ok;
}

void AodvGuard::on_agreed(const core::AgreedMsg& msg, bool is_center) {
  const auto decoded = RrepMsg::wire_decode(msg.value);
  if (!decoded) return;
  const auto& [rrep, next_hop] = *decoded;

  FwEntry& entry = fw_[{rrep.dest, rrep.dest_seq}];
  entry.forwarders.insert(msg.source);
  entry.forwarders.insert(next_hop);
  entry.updated = aodv_.node().now();

  // The designated next hop hands the validated RREP to its local AODV
  // service, which continues the hop-by-hop reply towards the requester.
  if (!is_center && next_hop == aodv_.node().id()) {
    aodv_.inject_rrep(rrep, msg.source);
  }
}

}  // namespace icc::aodv

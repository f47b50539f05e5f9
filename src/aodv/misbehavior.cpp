#include "aodv/misbehavior.hpp"

#include "fault/ledger.hpp"

namespace icc::aodv {

namespace {
constexpr std::uint64_t kAttackRngSalt = 0x42484F4Cull;  // "BHOL"
}

MisbehaviorAodv::MisbehaviorAodv(net::Host& node, Params params, fault::ProtocolFault spec)
    : Aodv{node, params},
      spec_{spec},
      attack_rng_{node.fork_rng(kAttackRngSalt + node.id())},
      // The legacy metric names stay: fig7 tables, the demo, and the
      // coverage ledger all read one interned counter now.
      m_rrep_forged_{node.metrics().counter_id("blackhole.rrep_sent")},
      m_data_dropped_{node.metrics().counter_id("blackhole.data_dropped")},
      m_data_dropped_node_{
          node.metrics().node_counter_id("blackhole.data_dropped", node.id())} {
  const fault::AttackKind kind = spec_.kind();
  if (fault::attack_kind_booked(kind)) {
    kind_booked_ = true;
    m_kind_ = node.metrics().counter_id(std::string("fault.kind.") +
                                        fault::attack_kind_name(kind));
  }
  // Periodic misbehaviors schedule their ticks up front — and only when the
  // spec asks for them, so a pure black/gray hole adds zero events and zero
  // RNG draws relative to the old dedicated attacker class.
  if (spec_.replay_interval_s > 0.0) {
    node_.clock().schedule_in(spec_.replay_interval_s, [this] { replay_tick(); },
                              net::EventTag::kRouting);
  }
  if (spec_.flood_interval_s > 0.0) {
    node_.clock().schedule_in(spec_.flood_interval_s, [this] { flood_tick(); },
                              net::EventTag::kRouting);
  }
}

std::uint64_t MisbehaviorAodv::packets_dropped() const {
  return static_cast<std::uint64_t>(node_.metrics().counter(m_data_dropped_node_));
}

bool MisbehaviorAodv::active() const { return spec_.when.active_at(now()); }

void MisbehaviorAodv::book_kind() {
  if (kind_booked_) node_.metrics().add(m_kind_);
}

void MisbehaviorAodv::handle_rreq(const RreqMsg& rreq, sim::NodeId from) {
  // Route attraction: the black-hole family forges an absurdly fresh RREP
  // (seq_inflation); the rushing variant forges a merely *plausible* one
  // (rush_seq_bump) and wins by answering first instead of freshest.
  const std::uint32_t bump =
      spec_.seq_inflation != 0 ? spec_.seq_inflation : spec_.rush_seq_bump;
  if (bump == 0 || !active()) {
    Aodv::handle_rreq(rreq, from);
    return;
  }
  if (rreq.orig == node_.id()) return;
  if (!seen_rreqs_.insert(rreq_key(rreq))) return;

  // Keep the reverse route so the malicious RREP can travel back.
  update_route(from, from, 1, 0, false);
  update_route(rreq.orig, from, rreq.hop_count + 1, rreq.orig_seq, true);

  // The black hole RREP: "I have a one-hop route to the destination, and it
  // is fresher than anything you will ever hear" (Fig 6(e)). Sent raw —
  // a compromised node does not submit itself to inner-circle voting — so
  // guarded receivers will suppress it, while unguarded ones swallow it.
  RrepMsg rrep;
  rrep.dest = rreq.dest;
  rrep.dest_seq = rreq.dest_seq + bump;
  rrep.orig = rreq.orig;
  rrep.hop_count = 1;

  sim::Packet packet;
  packet.src = node_.id();
  packet.dst = rreq.orig;
  packet.port = sim::Port::kAodv;
  packet.size_bytes = RrepMsg::kWireSize;
  packet.body = std::make_shared<RrepMsg>(rrep);
  node_.metrics().add(m_rrep_forged_);
  book_kind();
  fault::report_injected(node_, fault::FaultClass::kProtocol, node_.id());
  node_.transport().send_unfiltered(std::move(packet), from);

  if (spec_.forward_rreq) {
    RreqMsg fwd = rreq;
    fwd.hop_count += 1;
    broadcast_rreq(fwd);
  }
}

void MisbehaviorAodv::handle_rrep(const RrepMsg& rrep, sim::NodeId from) {
  // Remember the last legitimate RREP that crossed this node: replay ammo.
  if (spec_.replay_interval_s > 0.0) last_rrep_ = {rrep, from};
  Aodv::handle_rrep(rrep, from);
}

void MisbehaviorAodv::forward_data(const sim::Packet& packet, const DataMsg& data) {
  if (packet.src != node_.id() && active()) {
    if (spec_.partner != sim::kNoNode) {
      // Cooperative blackhole: hand the attracted packet to the colluder.
      // The retransmission is genuine — promiscuous watchers hear it and
      // clear any pending charge — but the colluder is a plain dropper, so
      // the packet dies one hop later with nobody watching that hop.
      node_.metrics().add_named("misbehavior.data_diverted");
      book_kind();
      fault::report_injected(node_, fault::FaultClass::kProtocol, node_.id());
      send_data_packet(packet, spec_.partner);
      return;
    }
    if (spec_.forge_next_hop) {
      // Fabricated next hop: retransmit for real (watchdog-clean) but
      // address the frame to a node that does not exist. No ack ever comes;
      // the MAC exhausts its retries and the packet is gone.
      node_.metrics().add_named("misbehavior.data_misrouted");
      book_kind();
      fault::report_injected(node_, fault::FaultClass::kProtocol, node_.id());
      send_data_packet(packet, static_cast<sim::NodeId>(node_.num_nodes()));
      return;
    }
    if (spec_.drop_prob > 0.0 && attack_rng_.chance(spec_.drop_prob)) {
      node_.metrics().add(m_data_dropped_);
      node_.metrics().add(m_data_dropped_node_);
      fault::report_injected(node_, fault::FaultClass::kProtocol, node_.id());
      return;
    }
    if (spec_.delay_s > 0.0) {
      node_.metrics().add_named("misbehavior.data_delayed");
      fault::report_injected(node_, fault::FaultClass::kProtocol, node_.id());
      node_.clock().schedule_in(
          spec_.delay_s, [this, packet, data] { Aodv::forward_data(packet, data); },
          net::EventTag::kRouting);
      return;
    }
  }
  Aodv::forward_data(packet, data);
}

void MisbehaviorAodv::replay_tick() {
  if (active() && last_rrep_ && !node_.down()) {
    // Seq-inflation forgery: each replayed copy advertises a freshness the
    // destination never issued, compounding per tick so the forged route
    // outlives any honest refresh (the AODVSEC target attack). Plain replay
    // (replay_seq_bump 0) re-sends the capture verbatim.
    last_rrep_->first.dest_seq += spec_.replay_seq_bump;
    const auto& [rrep, from] = *last_rrep_;
    sim::Packet packet;
    packet.src = node_.id();
    packet.dst = rrep.orig;
    packet.port = sim::Port::kAodv;
    packet.size_bytes = RrepMsg::kWireSize;
    packet.body = std::make_shared<RrepMsg>(rrep);
    node_.metrics().add_named("misbehavior.rrep_replayed");
    book_kind();
    fault::report_injected(node_, fault::FaultClass::kProtocol, node_.id());
    // Replays go raw like every malicious RREP: a guarded receiver's
    // suppression of the stale copy is the neutralization we measure.
    node_.transport().send_unfiltered(std::move(packet), from);
  }
  node_.clock().schedule_in(spec_.replay_interval_s, [this] { replay_tick(); },
                            net::EventTag::kRouting);
}

void MisbehaviorAodv::flood_tick() {
  if (active() && !node_.down()) {
    // A forged discovery for a (likely bogus) destination: every receiver
    // refloods it, burning bandwidth and energy network-wide.
    RreqMsg rreq;
    rreq.orig = node_.id();
    rreq.rreq_id = next_rreq_id_++;
    rreq.orig_seq = own_seq_;
    rreq.dest = static_cast<sim::NodeId>(attack_rng_.uniform_int(
        0, static_cast<std::uint32_t>(node_.num_nodes() - 1)));
    rreq.hop_count = 0;
    node_.metrics().add_named("misbehavior.rreq_flooded");
    fault::report_injected(node_, fault::FaultClass::kProtocol, node_.id());
    broadcast_rreq(rreq);
  }
  node_.clock().schedule_in(spec_.flood_interval_s, [this] { flood_tick(); },
                            net::EventTag::kRouting);
}

}  // namespace icc::aodv

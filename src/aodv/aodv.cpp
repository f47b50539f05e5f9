#include "aodv/aodv.hpp"

#include <algorithm>

#include "fault/ledger.hpp"
#include "sim/check.hpp"
#include "sim/trace.hpp"

namespace icc::aodv {

namespace {
constexpr std::uint64_t kAodvRngSalt = 0x414F4456ull;  // "AODV"
constexpr std::uint32_t kDataHeaderBytes = 20;
}

Aodv::Aodv(net::Host& node, Params params)
    : node_{node},
      params_{params},
      rng_{node.fork_rng(kAodvRngSalt + node.id())},
      m_data_originated_{node.metrics().counter_id("aodv.data_originated")},
      m_data_forwarded_{node.metrics().counter_id("aodv.data_forwarded")},
      m_data_delivered_{node.metrics().counter_id("aodv.data_delivered")},
      m_data_dropped_no_route_{node.metrics().counter_id("aodv.data_dropped_no_route")},
      m_rreq_sent_{node.metrics().counter_id("aodv.rreq_sent")},
      m_rrep_sent_{node.metrics().counter_id("aodv.rrep_sent")} {
  node_.transport().register_handler(sim::Port::kAodv, [this](const sim::Packet& p, sim::NodeId from) {
    handle_packet(p, from);
  });
  node_.transport().register_handler(sim::Port::kCbr, [this](const sim::Packet& p, sim::NodeId from) {
    handle_packet(p, from);
  });
  node_.transport().set_send_failed_handler([this](const sim::Packet& p, sim::NodeId next_hop) {
    on_link_failure(p, next_hop);
  });
  schedule_seen_cache_cleanup();
}

void Aodv::schedule_seen_cache_cleanup() {
  // Every seen_cache_timeout, forget every seen RREQ at once so the cache
  // stays bounded. This is not ns-2's per-entry expiry (BCAST_ID_SAVE): a
  // flood still in flight when the clear fires is relayed a second time by
  // nodes that already relayed it (ROADMAP, the seen-cache fidelity item).
  node_.clock().schedule_in(params_.seen_cache_timeout, [this] {
    seen_rreqs_.clear();
    schedule_seen_cache_cleanup();
  }, net::EventTag::kRouting);
}

sim::Time Aodv::now() const { return node_.now(); }

bool Aodv::has_route(sim::NodeId dest) const {
  const RouteEntry* route = routes_.find(dest);
  return route != nullptr && route->valid && route->expires > now();
}

sim::NodeId Aodv::next_hop_to(sim::NodeId dest) const {
  const RouteEntry* route = routes_.find(dest);
  if (route == nullptr || !route->valid) return sim::kNoNode;
  return route->next_hop;
}

std::optional<std::uint32_t> Aodv::known_dest_seq(sim::NodeId dest) const {
  const RouteEntry* route = routes_.find(dest);
  if (route == nullptr || !route->seq_known) return std::nullopt;
  return route->dest_seq;
}

void Aodv::invalidate_routes_via(sim::NodeId via) {
  routes_.for_each_in_key_order([via](sim::NodeId, RouteEntry& entry) {
    if (entry.valid && entry.next_hop == via) entry.valid = false;
  });
}

void Aodv::update_route(sim::NodeId dest, sim::NodeId next_hop, std::uint32_t hop_count,
                        std::uint32_t seq, bool seq_known) {
  if (dest == node_.id()) return;
  RouteEntry& entry = routes_[dest];
  const bool fresher =
      !entry.valid || entry.expires <= now() ||
      (seq_known && (!entry.seq_known || seq > entry.dest_seq ||
                     (seq == entry.dest_seq && hop_count < entry.hop_count))) ||
      (!seq_known && !entry.seq_known && hop_count < entry.hop_count);
  if (!fresher) return;
  // Sequence-number monotonicity (AODV §6.2): a live, sequence-known route
  // may only be replaced by information at least as fresh.
  ICC_ASSERT(!(entry.valid && entry.expires > now() && entry.seq_known && seq_known) ||
                 seq >= entry.dest_seq,
             "route update would move a live destination sequence number backwards");
  entry.next_hop = next_hop;
  entry.hop_count = hop_count;
  if (seq_known) {
    entry.dest_seq = seq;
    entry.seq_known = true;
  }
  entry.expires = now() + params_.active_route_timeout;
  entry.valid = true;
}

// ----------------------------------------------------------- data plane

void Aodv::send_data(sim::NodeId dest, DataMsg data) {
  // Ensure end-to-end identity: the uid survives hop-by-hop forwarding so
  // promiscuous observers (watchdog) can match retransmissions.
  if (data.app_uid == 0) data.app_uid = node_.next_packet_uid();
  sim::Packet packet;
  packet.src = node_.id();
  packet.dst = dest;
  packet.port = sim::Port::kCbr;
  packet.size_bytes = data.app_bytes + kDataHeaderBytes;
  // The packet's span is the application uid, assigned here rather than at
  // first send so a buffered packet already has an identity for the
  // discovery it triggers to point back at.
  packet.uid = data.app_uid;
  // The parent is fixed at origination too: a buffered packet flushed under
  // the RREP's reception scope must not be re-parented onto the route reply
  // it waited for — that would close a lineage cycle data -> rreq -> rrep
  // -> data and leave the tree without a root.
  if (node_.lineage_parent() != packet.uid) {
    packet.parent = node_.lineage_parent();
  }
  packet.body = std::make_shared<DataMsg>(data);
  node_.metrics().add(m_data_originated_);
  forward_data(packet, data);
}

void Aodv::forward_data(const sim::Packet& packet, const DataMsg&) {
  const sim::NodeId dest = packet.dst;
  if (RouteEntry* route = routes_.find(dest);
      route != nullptr && route->valid && route->expires > now()) {
    route->expires = now() + params_.active_route_timeout;  // route in use
    send_data_packet(packet, route->next_hop);
    return;
  }
  if (packet.src == node_.id()) {
    // Source: buffer and discover.
    PendingDiscovery& pending = pending_[dest];
    if (pending.buffered.size() >= params_.buffer_capacity) {
      pending.buffered.pop_front();
      node_.metrics().add_named("aodv.buffer_overflow");
    }
    pending.buffered.push_back(packet);
    if (pending.attempts == 0) {
      // The discovery's RREQ descends from the data packet that needs it.
      net::LineageScope lineage{node_, packet.uid};
      start_discovery(dest);
    }
    return;
  }
  // Intermediate node lost the route: drop and report.
  node_.metrics().add(m_data_dropped_no_route_);
  node_.tracer().emit({now(), sim::TraceType::kPacketDrop, node_.id(), packet.src,
                               packet.uid, packet.size_bytes, 0.0, "no_route", packet.uid,
                               packet.parent});
  if (params_.send_rerr) {
    RerrMsg rerr;
    const RouteEntry* route = routes_.find(dest);
    rerr.unreachable.emplace_back(dest, route != nullptr ? route->dest_seq + 1 : 0);
    broadcast_rerr(std::move(rerr));
  }
}

void Aodv::send_data_packet(sim::Packet packet, sim::NodeId next_hop) {
  node_.metrics().add(m_data_forwarded_);
  node_.transport().send(std::move(packet), next_hop);
}

// ------------------------------------------------------- route discovery

void Aodv::start_discovery(sim::NodeId dest) {
  PendingDiscovery& pending = pending_[dest];
  pending.attempts = 1;
  originate_rreq(dest);

  pending.retry_event = node_.clock().schedule_in(
      params_.rreq_retry_interval, [this, dest] { retry_discovery(dest); },
      net::EventTag::kRouting);
}

void Aodv::retry_discovery(sim::NodeId dest) {
  const auto it = pending_.find(dest);
  if (it == pending_.end()) return;
  PendingDiscovery& pending = it->second;
  // The timer lost the lineage context; a retry RREQ still descends from the
  // oldest packet waiting on the route.
  net::LineageScope lineage{
      node_, pending.buffered.empty() ? 0 : pending.buffered.front().uid};
  if (pending.attempts > params_.rreq_retries) {
    drop_buffered(dest);
    return;
  }
  ++pending.attempts;
  originate_rreq(dest);
  pending.retry_event = node_.clock().schedule_in(
      params_.rreq_retry_interval * (1 << pending.attempts), [this, dest] {
        retry_discovery(dest);
      }, net::EventTag::kRouting);
}

void Aodv::originate_rreq(sim::NodeId dest) {
  ++own_seq_;
  RreqMsg rreq;
  rreq.orig = node_.id();
  rreq.rreq_id = next_rreq_id_++;
  rreq.orig_seq = own_seq_;
  rreq.dest = dest;
  const RouteEntry* route = routes_.find(dest);
  rreq.dest_seq_known = route != nullptr && route->seq_known;
  rreq.dest_seq = rreq.dest_seq_known ? route->dest_seq : 0;
  rreq.hop_count = 0;
  seen_rreqs_.insert(rreq_key(rreq));
  broadcast_rreq(rreq);
}

void Aodv::broadcast_rreq(const RreqMsg& rreq) {
  sim::Packet packet;
  packet.src = node_.id();
  packet.dst = sim::kBroadcast;
  packet.port = sim::Port::kAodv;
  packet.size_bytes = RreqMsg::kWireSize;
  packet.body = std::make_shared<RreqMsg>(rreq);
  // Pre-stamp so the rreq_sent event carries the same span the packet will
  // have on the air (send would only stamp it after this emit).
  packet.uid = node_.next_packet_uid();
  packet.parent = node_.lineage_parent();
  node_.metrics().add(m_rreq_sent_);
  node_.tracer().emit({now(), sim::TraceType::kRouteRreqSent, node_.id(), rreq.dest,
                               rreq.rreq_id, RreqMsg::kWireSize,
                               static_cast<double>(rreq.hop_count), nullptr, packet.uid,
                               packet.parent});
  node_.transport().send(std::move(packet), sim::kBroadcast);
}

void Aodv::flush_buffer(sim::NodeId dest) {
  const auto it = pending_.find(dest);
  if (it == pending_.end()) return;
  node_.clock().cancel(it->second.retry_event);
  std::deque<sim::Packet> buffered = std::move(it->second.buffered);
  pending_.erase(it);
  // Buffered packets carry their origination-time lineage; clear the ambient
  // context (usually the RREP that resolved the discovery) so a root packet
  // with parent 0 is not adopted by the reply it triggered.
  net::LineageScope lineage{node_, 0};
  for (sim::Packet& packet : buffered) {
    const auto* data = packet.body_as<DataMsg>();
    if (data != nullptr) forward_data(packet, *data);
  }
}

void Aodv::drop_buffered(sim::NodeId dest) {
  const auto it = pending_.find(dest);
  if (it == pending_.end()) return;
  node_.clock().cancel(it->second.retry_event);
  node_.metrics().add_named("aodv.discovery_failed");
  node_.metrics().add(m_data_dropped_no_route_,
                              static_cast<double>(it->second.buffered.size()));
  node_.tracer().emit({now(), sim::TraceType::kRouteDiscoveryFailed, node_.id(), dest,
                               0, 0, static_cast<double>(it->second.buffered.size()),
                               "retries_exhausted", 0, node_.lineage_parent()});
  pending_.erase(it);
}

// -------------------------------------------------------- control plane

void Aodv::handle_packet(const sim::Packet& packet, sim::NodeId from) {
  if (const auto* data = packet.body_as<DataMsg>()) {
    update_route(from, from, 1, 0, false);  // the sender is a live neighbor
    if (packet.dst == node_.id()) {
      node_.metrics().add(m_data_delivered_);
      if (deliver_) deliver_(*data, packet.src);
    } else {
      forward_data(packet, *data);
    }
    return;
  }
  if (const auto* rreq = packet.body_as<RreqMsg>()) {
    handle_rreq(*rreq, from);
  } else if (const auto* rrep = packet.body_as<RrepMsg>()) {
    handle_rrep(*rrep, from);
  } else if (const auto* rerr = packet.body_as<RerrMsg>()) {
    handle_rerr(*rerr, from);
  }
}

void Aodv::handle_rreq(const RreqMsg& rreq, sim::NodeId from) {
  if (rreq.orig == node_.id()) return;
  if (!seen_rreqs_.insert(rreq_key(rreq))) return;

  update_route(from, from, 1, 0, false);
  update_route(rreq.orig, from, rreq.hop_count + 1, rreq.orig_seq, true);

  if (rreq.dest == node_.id()) {
    // Destination: reply with our current sequence number (bumped so the
    // reply is at least as fresh as anything the requester has seen).
    if (rreq.dest_seq_known && rreq.dest_seq > own_seq_) own_seq_ = rreq.dest_seq;
    ++own_seq_;
    RrepMsg rrep;
    rrep.dest = node_.id();
    rrep.dest_seq = own_seq_;
    rrep.orig = rreq.orig;
    rrep.hop_count = 0;
    send_rrep_towards(rrep);
    return;
  }

  // Intermediate reply: a cached route at least as fresh as the requester's
  // knowledge answers the RREQ directly (AODV without the destination-only
  // flag).
  if (!params_.dest_only) {
    const RouteEntry* route = routes_.find(rreq.dest);
    if (route != nullptr && route->valid && route->expires > now() && route->seq_known &&
        (!rreq.dest_seq_known || route->dest_seq >= rreq.dest_seq)) {
      RrepMsg rrep;
      rrep.dest = rreq.dest;
      rrep.dest_seq = route->dest_seq;
      rrep.orig = rreq.orig;
      rrep.hop_count = route->hop_count;
      node_.metrics().add_named("aodv.intermediate_rrep");
      send_rrep_towards(rrep);
      return;
    }
  }

  // Re-flood with a small jitter to de-synchronize neighboring rebroadcasts.
  // The timer callback loses the reception scope, so capture the cause (the
  // RREQ packet we are re-flooding) and re-establish it.
  RreqMsg fwd = rreq;
  fwd.hop_count += 1;
  node_.clock().schedule_in(
      rng_.uniform(0.0, 0.01),
      [this, fwd, cause = node_.lineage_parent()] {
        net::LineageScope lineage{node_, cause};
        broadcast_rreq(fwd);
      },
      net::EventTag::kRouting);
}

void Aodv::send_rrep_towards(const RrepMsg& rrep) {
  // Unicast along the reverse route to the requester.
  const RouteEntry* route = routes_.find(rrep.orig);
  if (route == nullptr || !route->valid) {
    node_.metrics().add_named("aodv.rrep_no_reverse_route");
    return;
  }
  const sim::NodeId next_hop = route->next_hop;
  sim::Packet packet;
  packet.src = node_.id();
  packet.dst = rrep.orig;
  packet.port = sim::Port::kAodv;
  packet.size_bytes = RrepMsg::kWireSize;
  packet.body = std::make_shared<RrepMsg>(rrep);
  packet.uid = node_.next_packet_uid();
  packet.parent = node_.lineage_parent();
  node_.metrics().add(m_rrep_sent_);
  node_.tracer().emit({now(), sim::TraceType::kRouteRrepSent, node_.id(), next_hop,
                               packet.uid, RrepMsg::kWireSize,
                               static_cast<double>(rrep.hop_count), nullptr, packet.uid,
                               packet.parent});
  node_.transport().send(std::move(packet), next_hop);
}

void Aodv::handle_rrep(const RrepMsg& rrep, sim::NodeId from) {
  update_route(from, from, 1, 0, false);
  update_route(rrep.dest, from, rrep.hop_count + 1, rrep.dest_seq, true);

  if (rrep.orig == node_.id()) {
    node_.tracer().emit({now(), sim::TraceType::kRouteDiscovered, node_.id(), rrep.dest,
                                 0, 0, static_cast<double>(rrep.hop_count + 1), nullptr, 0,
                                 node_.lineage_parent()});
    flush_buffer(rrep.dest);
    return;
  }
  RrepMsg fwd = rrep;
  fwd.hop_count += 1;
  send_rrep_towards(fwd);
}

void Aodv::handle_rerr(const RerrMsg& rerr, sim::NodeId from) {
  RerrMsg propagated;
  for (const auto& [dest, seq] : rerr.unreachable) {
    RouteEntry* route = routes_.find(dest);
    if (route != nullptr && route->valid && route->next_hop == from) {
      route->valid = false;
      if (seq > route->dest_seq) route->dest_seq = seq;
      propagated.unreachable.emplace_back(dest, seq);
    }
  }
  if (!propagated.unreachable.empty() && params_.send_rerr) {
    broadcast_rerr(std::move(propagated));
  }
}

void Aodv::broadcast_rerr(RerrMsg rerr) {
  sim::Packet packet;
  packet.src = node_.id();
  packet.dst = sim::kBroadcast;
  packet.port = sim::Port::kAodv;
  packet.size_bytes = rerr.wire_size();
  packet.body = std::make_shared<RerrMsg>(std::move(rerr));
  node_.transport().send(std::move(packet), sim::kBroadcast);
}

void Aodv::on_link_failure(const sim::Packet& packet, sim::NodeId next_hop) {
  // Only react to data-plane failures; control messages have their own
  // retry/timeout logic.
  if (packet.body_as<DataMsg>() == nullptr) return;
  node_.metrics().add_named("aodv.link_failures");
  // MAC retry exhaustion arrives via timer, outside any reception scope: the
  // RERR flood and salvage rediscovery below descend from the failed packet.
  net::LineageScope lineage{node_, packet.uid};
  // The exhausted MAC retry is how a crashed/out-of-range next hop shows up
  // to routing — report it as a detected node fault (innocent mobility also
  // trips this; the ledger's capped rows absorb the over-reporting). A hop
  // outside the world (the forge_next_hop attacker's ghost) has no per-node
  // ledger row to book against, so it is skipped here; the guard layer
  // attributes that attack to the forger instead.
  if (next_hop < node_.num_nodes()) {
    fault::report_detected(node_, fault::FaultClass::kNode, next_hop, 0, packet.uid);
  }

  RerrMsg rerr;
  routes_.for_each_in_key_order([&rerr, next_hop](sim::NodeId dest, RouteEntry& entry) {
    if (entry.valid && entry.next_hop == next_hop) {
      entry.valid = false;
      entry.dest_seq += 1;
      rerr.unreachable.emplace_back(dest, entry.dest_seq);
    }
  });
  if (!rerr.unreachable.empty() && params_.send_rerr) broadcast_rerr(std::move(rerr));
  // Salvage: if we are the source of the failed packet, try to rediscover.
  if (packet.src == node_.id()) {
    const auto* data = packet.body_as<DataMsg>();
    if (data != nullptr) forward_data(packet, *data);
  }
}

}  // namespace icc::aodv

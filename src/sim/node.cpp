#include "sim/node.hpp"

#include "sim/world.hpp"

namespace icc::sim {

Node::Node(World& world, NodeId id, std::unique_ptr<Mobility> mobility,
           MacParams mac_params)
    : world_{world},
      id_{id},
      mobility_{std::move(mobility)},
      mac_{std::make_unique<Mac>(world, *this, mac_params)},
      outbound_dropped_id_{world.metrics().counter_id("node.outbound_dropped")},
      inbound_dropped_id_{world.metrics().counter_id("node.inbound_dropped")} {}

Vec2 Node::position() const { return mobility_->position(world_.now()); }

MetricsRegistry& Node::metrics() noexcept { return world_.metrics(); }
Tracer& Node::tracer() noexcept { return world_.tracer(); }
Time Node::now() const noexcept { return world_.now(); }
Rng Node::fork_rng(std::uint64_t salt) { return world_.fork_rng(salt); }
std::uint64_t Node::next_packet_uid() noexcept { return world_.next_packet_uid(); }
std::uint64_t Node::next_span() noexcept { return world_.next_span(); }
std::uint64_t Node::lineage_parent() const noexcept { return world_.lineage_parent(); }
void Node::set_lineage_parent(std::uint64_t span) noexcept {
  world_.set_lineage_parent(span);
}
std::size_t Node::num_nodes() const noexcept { return world_.num_nodes(); }
net::Clock& Node::clock() noexcept { return world_.sched(); }

void Node::link_send(Packet packet, NodeId next_hop) {
  if (down_) return;
  // Stamp identity before the filters run: observers (watchdog, voting
  // interception) see the same uid/parent the packet will carry on the air.
  stamp_lineage(packet);
  for (const OutboundFilter& filter : outbound_filters_) {
    switch (filter(packet, next_hop)) {
      case FilterVerdict::kPass:
        break;
      case FilterVerdict::kDrop:
        world_.metrics().add(outbound_dropped_id_);
        world_.tracer().emit({world_.now(), TraceType::kPacketDrop, id_, next_hop,
                              packet.uid, packet.size_bytes, 0.0, "outbound_filter",
                              packet.uid, packet.parent});
        return;
      case FilterVerdict::kConsumed:
        return;
    }
  }
  link_send_unfiltered(std::move(packet), next_hop);
}

void Node::stamp_lineage(Packet& packet) {
  if (packet.uid == 0) packet.uid = world_.next_packet_uid();
  // A forwarded packet keeps its original parent; inside its own reception
  // scope the context equals its uid, which must not become a self-loop.
  if (packet.parent == 0 && world_.lineage_parent() != packet.uid) {
    packet.parent = world_.lineage_parent();
  }
}

void Node::link_send_unfiltered(Packet packet, NodeId next_hop) {
  if (down_) return;
  stamp_lineage(packet);
  // The wire-codec parity hook (World::set_packet_transform) sits exactly at
  // the transport boundary: identity/lineage are final, the MAC has not yet
  // seen the packet.
  if (const World::PacketTransform& transform = world_.packet_transform()) {
    packet = transform(std::move(packet), id_, next_hop);
  }
  mac_->enqueue(std::move(packet), next_hop);
}

void Node::register_handler(Port port, Handler handler) {
  handlers_.at(static_cast<std::size_t>(port)) = std::move(handler);
}

void Node::frame_overheard(const Frame& frame) {
  if (down_) return;
  for (const PromiscuousListener& listener : promiscuous_) listener(frame);
}

void Node::frame_received(const Frame& frame) {
  if (down_) return;
  const Packet& packet = frame.packet;
  // Everything done while processing this packet — filters, handlers, any
  // packets they originate — is causally downstream of it.
  LineageScope lineage{world_, packet.uid};
  for (const InboundFilter& filter : inbound_filters_) {
    switch (filter(packet, frame.tx)) {
      case FilterVerdict::kPass:
        break;
      case FilterVerdict::kDrop:
        world_.metrics().add(inbound_dropped_id_);
        world_.tracer().emit({world_.now(), TraceType::kPacketDrop, id_, frame.tx,
                              packet.uid, packet.size_bytes, 0.0, "inbound_filter",
                              packet.uid, packet.parent});
        return;
      case FilterVerdict::kConsumed:
        return;
    }
  }
  const Handler& handler = handlers_.at(static_cast<std::size_t>(packet.port));
  if (handler) handler(packet, frame.tx);
}

}  // namespace icc::sim

#include "sim/node.hpp"

#include "sim/world.hpp"

namespace icc::sim {

Node::Node(World& world, NodeId id, std::unique_ptr<Mobility> mobility,
           MacParams mac_params)
    : world_{world},
      id_{id},
      mobility_{std::move(mobility)},
      mac_{std::make_unique<Mac>(world, *this, mac_params)},
      stack_{world, world.lineage_slot(), id} {}

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
std::uint64_t& Node::lineage_slot() noexcept { return world_.lineage_slot(); }
std::size_t Node::num_nodes() const noexcept { return world_.num_nodes(); }
net::Clock& Node::clock() noexcept { return world_.sched(); }

void Node::send(Packet packet, NodeId next_hop) {
  // A down node's filters never run: the interceptor cannot start a voting
  // round for a crashed radio.
  if (down_) return;
  if (stack_.admit(packet, next_hop)) send_unfiltered(std::move(packet), next_hop);
}

void Node::send_unfiltered(Packet packet, NodeId next_hop) {
  if (down_) return;
  stack_.stamp(packet);
  // The wire-codec parity hook (World::set_packet_transform) sits exactly at
  // the transport boundary: identity/lineage are final, the MAC has not yet
  // seen the packet.
  if (const World::PacketTransform& transform = world_.packet_transform()) {
    packet = transform(std::move(packet), id_, next_hop);
  }
  mac_->enqueue(std::move(packet), next_hop);
}

}  // namespace icc::sim

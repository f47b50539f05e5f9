#include "sensor/diffusion.hpp"

#include "sim/trace.hpp"

namespace icc::sensor {

namespace {
constexpr std::uint64_t kDiffRngSalt = 0xD1FFull;
}

Diffusion::Diffusion(net::Host& node, sim::NodeId sink, Params params)
    : node_{node},
      sink_{sink},
      params_{params},
      rng_{node.fork_rng(kDiffRngSalt + node.id())} {
  node_.transport().register_handler(sim::Port::kDiffusion,
                                     [this](const sim::Packet& p, sim::NodeId from) {
                                       handle_packet(p, from);
                                     });
  if (node_.id() == sink_) {
    node_.clock().schedule_in(params_.first_interest, [this] { flood_interest(); },
                              net::EventTag::kSensor);
  }
}

bool Diffusion::has_gradient() const {
  return node_.id() == sink_ ||
         (parent_ != sim::kNoNode &&
          node_.now() - gradient_time_ <= params_.gradient_lifetime);
}

void Diffusion::flood_interest() {
  auto interest = std::make_shared<InterestMsg>();
  interest->sink = node_.id();
  interest->seq = ++interest_seq_;
  interest->hops = 0;

  sim::Packet packet;
  packet.src = node_.id();
  packet.dst = sim::kBroadcast;
  packet.port = sim::Port::kDiffusion;
  packet.size_bytes = InterestMsg::kWireSize;
  packet.body = std::move(interest);
  node_.transport().send(std::move(packet), sim::kBroadcast);
  node_.metrics().add_named("diff.interests_sent");

  node_.clock().schedule_in(params_.interest_period, [this] { flood_interest(); },
                            net::EventTag::kSensor);
}

void Diffusion::handle_packet(const sim::Packet& packet, sim::NodeId from) {
  if (const auto* interest = packet.body_as<InterestMsg>()) {
    if (node_.id() == sink_ || interest->sink != sink_) return;
    const bool fresher = interest->seq > best_seq_;
    const bool better = interest->seq == best_seq_ && interest->hops + 1 < best_hops_;
    if (!fresher && !better) return;
    best_seq_ = interest->seq;
    best_hops_ = interest->hops + 1;
    parent_ = from;
    gradient_time_ = node_.now();

    auto fwd = std::make_shared<InterestMsg>(*interest);
    fwd->hops += 1;
    sim::Packet p;
    p.src = node_.id();
    p.dst = sim::kBroadcast;
    p.port = sim::Port::kDiffusion;
    p.size_bytes = InterestMsg::kWireSize;
    p.body = std::move(fwd);
    // Jitter the re-flood so neighboring rebroadcasts do not collide.
    node_.clock().schedule_in(rng_.uniform(0.0, 0.02), [this, p = std::move(p)] {
      node_.transport().send(sim::Packet{p}, sim::kBroadcast);
    }, net::EventTag::kSensor);
    return;
  }
  if (const auto* notification = packet.body_as<NotificationMsg>()) {
    if (node_.id() == sink_) {
      node_.metrics().add_named("diff.notifications_delivered");
      if (sink_handler_) sink_handler_(*notification, from);
    } else {
      forward(*notification);
    }
  }
}

void Diffusion::send_to_sink(std::vector<std::uint8_t> data) {
  auto msg = std::make_shared<NotificationMsg>();
  msg->origin = node_.id();
  msg->uid = next_uid_++;
  msg->data = std::move(data);
  node_.metrics().add_named("diff.notifications_sent");
  forward(*msg);
}

void Diffusion::forward(const NotificationMsg& msg) {
  if (!has_gradient()) {
    node_.metrics().add_named("diff.no_gradient_drop");
    node_.tracer().emit({node_.now(), sim::TraceType::kPacketDrop, node_.id(),
                         sink_, msg.uid, 0, 0.0, "no_gradient"});
    return;
  }
  auto body = std::make_shared<NotificationMsg>(msg);
  sim::Packet packet;
  packet.src = msg.origin;
  packet.dst = sink_;
  packet.port = sim::Port::kDiffusion;
  packet.size_bytes = body->wire_size();
  packet.body = std::move(body);
  node_.transport().send(std::move(packet), parent_);
}

}  // namespace icc::sensor

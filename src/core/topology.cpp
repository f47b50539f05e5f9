#include "core/topology.hpp"

#include <algorithm>

namespace icc::core {

namespace {
constexpr std::uint64_t kStsRngSalt = 0x53545300ull;  // "STS"
}

SecureTopologyService::SecureTopologyService(net::Host& node, Params params,
                                             const crypto::AsymmetricCipher& cipher)
    : node_{node},
      params_{params},
      cipher_{cipher},
      rng_{node.fork_rng(kStsRngSalt + node.id())} {
  if (params_.period <= 0.0) params_.period = 0.45 * params_.delta_sts;
}

sim::Time SecureTopologyService::now() const { return node_.now(); }

void SecureTopologyService::start() {
  // Desynchronize the first beacon across nodes.
  const sim::Time window =
      params_.initial_beacon_delay > 0.0 ? params_.initial_beacon_delay : params_.period;
  node_.clock().schedule_in(rng_.uniform(0.0, window), [this] { send_beacon(); },
                            net::EventTag::kVoting);
}

std::vector<sim::NodeId> SecureTopologyService::inner_circle() const {
  std::vector<sim::NodeId> out;
  out.reserve(peers_.size());
  const sim::Time t = now();
  for (const auto& [id, peer] : peers_) {
    if (peer.authenticated && t - peer.last_heard <= params_.delta_sts) out.push_back(id);
  }
  return out;
}

bool SecureTopologyService::is_neighbor(sim::NodeId q) const {
  const auto it = peers_.find(q);
  return it != peers_.end() && it->second.authenticated &&
         now() - it->second.last_heard <= params_.delta_sts;
}

std::vector<sim::NodeId> SecureTopologyService::neighbors_of(sim::NodeId q) const {
  const auto it = peers_.find(q);
  if (it == peers_.end() || !it->second.authenticated) return {};
  if (now() - it->second.claim_time > params_.delta_sts) return {};
  return it->second.claimed_neighbors;
}

bool SecureTopologyService::is_within_two_hops(sim::NodeId q) const {
  if (q == node_.id()) return false;
  if (is_neighbor(q)) return true;
  for (const sim::NodeId n : inner_circle()) {
    const auto claimed = neighbors_of(n);
    if (std::find(claimed.begin(), claimed.end(), q) != claimed.end()) return true;
  }
  return false;
}

std::vector<sim::NodeId> SecureTopologyService::two_hop_circle() const {
  const std::vector<sim::NodeId> direct = inner_circle();
  std::vector<sim::NodeId> out = direct;
  for (const sim::NodeId n : direct) {
    for (const sim::NodeId q : neighbors_of(n)) {
      if (q == node_.id()) continue;
      if (std::find(out.begin(), out.end(), q) == out.end()) out.push_back(q);
    }
  }
  return out;
}

std::optional<sim::Vec2> SecureTopologyService::position_of(sim::NodeId q) const {
  const auto it = peers_.find(q);
  if (it == peers_.end() || !it->second.pos_known) return std::nullopt;
  return it->second.pos;
}

const crypto::SessionKey* SecureTopologyService::session_with(sim::NodeId q) const {
  const auto it = peers_.find(q);
  if (it == peers_.end() || !it->second.authenticated) return nullptr;
  return &it->second.key;
}

crypto::Nonce SecureTopologyService::fresh_nonce() {
  crypto::Nonce n{};
  for (std::size_t i = 0; i < n.size(); i += 4) {
    const std::uint32_t r = rng_.uniform_int(0, 0xFFFFFFFFu);
    for (std::size_t b = 0; b < 4; ++b) n[i + b] = static_cast<std::uint8_t>(r >> (8 * b));
  }
  return n;
}

void SecureTopologyService::send_beacon() {
  const sim::Time t = now();
  auto beacon = std::make_shared<StsBeacon>();
  beacon->origin = node_.id();
  beacon->seq = ++beacon_seq_;
  beacon->pos = node_.position();

  beacon->neighbors.reserve(peers_.size());
  for (const auto& [id, peer] : peers_) {
    if (peer.authenticated && t - peer.last_heard <= params_.delta_sts) {
      beacon->neighbors.push_back(id);
    }
  }
  const auto auth = StsBeacon::auth_bytes(beacon->origin, beacon->seq, beacon->pos,
                                          beacon->neighbors);
  beacon->tags.reserve(beacon->neighbors.size());
  for (const sim::NodeId id : beacon->neighbors) {
    beacon->tags.push_back(peers_.at(id).tag_key.mac(auth));
  }

  sim::Packet packet;
  packet.src = node_.id();
  packet.dst = sim::kBroadcast;
  packet.port = sim::Port::kSts;
  packet.size_bytes = static_cast<std::uint32_t>(24 + 36 * beacon->neighbors.size());
  packet.body = beacon;
  node_.transport().send_unfiltered(std::move(packet), sim::kBroadcast);
  node_.metrics().add_named("sts.beacons_sent");

  const double jitter = rng_.uniform(0.9, 1.1);
  node_.clock().schedule_in(params_.period * jitter, [this] { send_beacon(); },
                            net::EventTag::kVoting);
}

void SecureTopologyService::handle_packet(const sim::Packet& packet, sim::NodeId from) {
  if (const auto* beacon = packet.body_as<StsBeacon>()) {
    handle_beacon(*beacon, from);
  } else if (const auto* nsl = packet.body_as<NslMsg>()) {
    handle_nsl(*nsl, from);
  }
}

void SecureTopologyService::handle_beacon(const StsBeacon& beacon, sim::NodeId /*from*/) {
  // Deliberately ignore the link-layer sender: radio source addresses are
  // spoofable, so beacon authenticity rests solely on the per-neighbor tag.
  if (beacon.origin == node_.id()) return;
  PeerState& peer = peers_[beacon.origin];

  if (!peer.authenticated) {
    // Record a provisional position and bootstrap authentication.
    peer.pos = beacon.pos;
    peer.pos_known = true;
    maybe_begin_handshake(beacon.origin);
    return;
  }

  // Find our own tag: it authenticates the beacon and the adjacency claim.
  const auto auth = StsBeacon::auth_bytes(beacon.origin, beacon.seq, beacon.pos,
                                          beacon.neighbors);
  bool verified = false;
  for (std::size_t i = 0; i < beacon.neighbors.size() && i < beacon.tags.size(); ++i) {
    if (beacon.neighbors[i] == node_.id()) {
      verified = crypto::digest_equal(beacon.tags[i], peer.tag_key.mac(auth));
      break;
    }
  }
  if (!verified) {
    // Authenticated peer but no valid tag for us: either it has not yet seen
    // our first post-handshake beacon (benign race), the handshake completed
    // only on our side (lost message 3), or the beacon is forged. Keep the
    // link but do not refresh it from this beacon; once the link has gone
    // stale, restart authentication from scratch.
    node_.metrics().add_named("sts.beacons_unverified");
    if (now() - peer.last_heard > params_.delta_sts) {
      peer.authenticated = false;
      peer.handshake.reset();
      maybe_begin_handshake(beacon.origin);
    }
    return;
  }
  peer.last_heard = now();
  peer.pos = beacon.pos;
  peer.pos_known = true;
  peer.claimed_neighbors = beacon.neighbors;
  peer.claim_time = now();
  node_.metrics().add_named("sts.beacons_accepted");
}

void SecureTopologyService::maybe_begin_handshake(sim::NodeId peer_id) {
  PeerState& peer = peers_[peer_id];
  if (peer.authenticated) return;
  // Lower id initiates, so exactly one handshake runs per pair.
  if (node_.id() >= peer_id) return;
  const sim::Time t = now();
  if (peer.handshake && t - peer.handshake_started < params_.handshake_retry) return;
  peer.handshake = crypto::NslSession::initiate(node_.id(), peer_id, fresh_nonce());
  peer.handshake_started = t;
  send_nsl(peer_id, 1, peer.handshake->message1(cipher_));
}

void SecureTopologyService::send_nsl(sim::NodeId to, int phase, crypto::Ciphertext ct) {
  auto msg = std::make_shared<NslMsg>();
  msg->phase = phase;
  msg->ct = std::move(ct);

  sim::Packet packet;
  packet.src = node_.id();
  packet.dst = to;
  packet.port = sim::Port::kSts;
  packet.size_bytes = static_cast<std::uint32_t>(12 + msg->ct.data.size() + 36);
  packet.body = std::move(msg);
  node_.transport().send_unfiltered(std::move(packet), to);
  node_.metrics().add_named("sts.nsl_sent");
}

void SecureTopologyService::complete_handshake(PeerState& peer, crypto::SessionKey key,
                                               sim::Time t) {
  peer.authenticated = true;
  // The beacon tags' key schedule is rebuilt with every session key: a
  // re-keyed link must not keep tagging under the old one.
  peer.key = key;
  peer.tag_key = crypto::HmacKey{key};
  peer.last_heard = t;  // the handshake itself is authenticated contact
  peer.handshake.reset();
  node_.metrics().add_named("sts.handshakes_completed");
}

void SecureTopologyService::handle_nsl(const NslMsg& msg, sim::NodeId from) {
  const sim::Time t = now();
  switch (msg.phase) {
    case 1: {
      auto session = crypto::NslSession::respond(node_.id(), msg.ct, fresh_nonce(), cipher_);
      if (!session || session->peer() != from) return;
      PeerState& peer = peers_[from];
      // Accept a fresh message 1 even when already authenticated: the
      // initiator restarts the handshake when its side of the link expired
      // (e.g., our message 3 was lost). The existing session key stays
      // valid until the new handshake completes.
      peer.handshake = std::move(*session);
      peer.handshake_started = t;
      send_nsl(from, 2, peer.handshake->message2(cipher_));
      break;
    }
    case 2: {
      const auto it = peers_.find(from);
      if (it == peers_.end() || !it->second.handshake) return;
      PeerState& peer = it->second;
      const auto msg3 = peer.handshake->on_message2(msg.ct, cipher_);
      if (!msg3) return;
      send_nsl(from, 3, *msg3);
      complete_handshake(peer, peer.handshake->session_key(), t);
      break;
    }
    case 3: {
      const auto it = peers_.find(from);
      if (it == peers_.end() || !it->second.handshake) return;
      PeerState& peer = it->second;
      if (!peer.handshake->on_message3(msg.ct, cipher_)) return;
      complete_handshake(peer, peer.handshake->session_key(), t);
      break;
    }
    default:
      break;
  }
}

}  // namespace icc::core

#include "core/voting.hpp"

#include <algorithm>

#include "sim/check.hpp"
#include "sim/trace.hpp"

namespace icc::core {

namespace {

// The SuspicionsManager is world-agnostic, so the trace record of a
// suspicion/conviction is emitted here at the decision site. Each gets its
// own span; the parent is the packet being processed (the lineage scope the
// inbound handler established), i.e. the evidence.
void trace_suspicion(net::Services& services, sim::NodeId accuser, sim::NodeId suspect,
                     sim::TraceType type, const char* reason) {
  services.tracer().emit({services.now(), type, accuser, suspect, 0, 0, 0.0, reason,
                          services.next_span(), services.lineage_parent()});
}

}  // namespace

IvsService::IvsService(net::Host& node, Params params, SecureTopologyService& sts,
                       SuspicionsManager& suspicions, crypto::ThresholdScheme& scheme,
                       std::unique_ptr<crypto::ThresholdSigner> signer, crypto::Pki& pki,
                       std::unique_ptr<crypto::NodeSigner> node_signer, Callbacks& callbacks)
    : node_{node},
      params_{params},
      sts_{sts},
      suspicions_{suspicions},
      scheme_{scheme},
      signer_{std::move(signer)},
      pki_{pki},
      node_signer_{std::move(node_signer)},
      callbacks_{callbacks} {}

sim::Time IvsService::now() const { return node_.now(); }

void IvsService::charge_crypto(sim::Time) {
  node_.energy().charge_extra(params_.cost.energy_per_op_j);
  node_.tracer().emit({now(), sim::TraceType::kEnergyCharge, node_.id(), sim::kNoNode,
                               0, 0, params_.cost.energy_per_op_j, "crypto"});
}

void IvsService::broadcast(std::shared_ptr<const sim::Payload> body, std::uint32_t size) {
  sim::Packet packet;
  packet.src = node_.id();
  packet.dst = sim::kBroadcast;
  packet.port = sim::Port::kIvs;
  packet.size_bytes = size;
  packet.body = std::move(body);
  node_.transport().send_unfiltered(std::move(packet), sim::kBroadcast);
}

void IvsService::unicast(sim::NodeId to, std::shared_ptr<const sim::Payload> body,
                         std::uint32_t size) {
  sim::Packet packet;
  packet.src = node_.id();
  packet.dst = to;
  packet.port = sim::Port::kIvs;
  packet.size_bytes = size;
  packet.body = std::move(body);
  node_.transport().send_unfiltered(std::move(packet), to);
}

Value IvsService::fuse_sorted(std::vector<ValueMsg> evidence) const {
  std::sort(evidence.begin(), evidence.end(),
            [](const ValueMsg& a, const ValueMsg& b) { return a.sender < b.sender; });
  std::vector<std::pair<sim::NodeId, Value>> values;
  values.reserve(evidence.size());
  for (ValueMsg& msg : evidence) values.emplace_back(msg.sender, std::move(msg.value));
  return callbacks_.fuse(values);
}

// ------------------------------------------------------------- center side

std::uint64_t IvsService::initiate(VotingMode mode, int level, Value value,
                                   std::uint64_t parent_span) {
  const std::uint64_t round_id = next_round_++;
  Round& round = rounds_[round_id];
  round.mode = mode;
  round.level = level;
  round.center_value = std::move(value);
  round.span = node_.next_span();
  node_.metrics().add_named("ivs.rounds_started");
  node_.tracer().emit({now(), sim::TraceType::kVoteRoundStart, node_.id(), sim::kNoNode,
                               round_id, 0, static_cast<double>(level),
                               mode == VotingMode::kDeterministic ? "deterministic"
                                                                  : "statistical",
                               round.span, parent_span});

  const auto circle =
      params_.circle_hops >= 2 ? sts_.two_hop_circle() : sts_.inner_circle();
  if (circle.size() < static_cast<std::size_t>(level)) {
    // Not enough (discovered) neighbors to ever reach L acks: abort now.
    abort_round(round_id);
    return round_id;
  }

  if (mode == VotingMode::kDeterministic) {
    round.agreed_value = round.center_value;
    begin_propose_phase(round_id, round);
  } else {
    round.phase = Phase::kSoliciting;
    // The center's own observation participates in the fusion.
    ValueMsg own;
    own.sender = node_.id();
    own.center = node_.id();
    own.round = round_id;
    own.value = round.center_value;
    charge_crypto(params_.cost.sign_delay);
    own.sig = node_signer_->sign(
        ValueMsg::value_bytes(node_.id(), round_id, node_.id(), own.value));
    round.evidence.push_back(std::move(own));
    round.value_senders.insert(node_.id());

    auto solicit = std::make_shared<SolicitMsg>();
    solicit->center = node_.id();
    solicit->round = round_id;
    solicit->level = level;
    solicit->ttl = params_.circle_hops;
    solicit->topic = round.center_value;
    broadcast(solicit, static_cast<std::uint32_t>(20 + solicit->topic.size()));
    arm_timeout(round_id, round);
  }
  return round_id;
}

void IvsService::begin_propose_phase(std::uint64_t round_id, Round& round) {
  // Round state machine: deterministic rounds propose immediately;
  // statistical rounds may enter the propose phase only out of soliciting.
  ICC_ASSERT(round.mode == VotingMode::kDeterministic || round.phase == Phase::kSoliciting,
             "a statistical round must gather values before proposing");
  ICC_ASSERT(round.partials.empty() && round.partial_senders.empty(),
             "a round must enter the propose phase with no collected partials");
  round.phase = Phase::kProposing;

  auto propose = std::make_shared<ProposeMsg>();
  propose->center = node_.id();
  propose->round = round_id;
  propose->level = round.level;
  propose->ttl = params_.circle_hops;
  propose->mode = round.mode;
  propose->value = round.agreed_value;
  propose->evidence = round.evidence;
  charge_crypto(params_.cost.sign_delay);
  propose->center_sig = node_signer_->sign(ProposeMsg::propose_bytes(
      node_.id(), round_id, round.level, round.mode, round.agreed_value));

  std::uint32_t size = static_cast<std::uint32_t>(21 + propose->value.size() +
                                                  pki_.signature_bytes());
  for (const ValueMsg& ev : propose->evidence) {
    size += static_cast<std::uint32_t>(16 + ev.value.size() + ev.sig.size());
  }

  // The center contributes its own partial signature (L+1 cooperating nodes
  // total, including the center — §2).
  charge_crypto(params_.cost.sign_delay);
  round.partials.push_back(signer_->partial_sign(
      round.level,
      AgreedMsg::signed_bytes(node_.id(), round_id, round.level, round.agreed_value)));
  round.partial_senders.insert(node_.id());

  broadcast(propose, size);
  arm_timeout(round_id, round);
}

void IvsService::arm_timeout(std::uint64_t round_id, Round& round) {
  node_.clock().cancel(round.timeout);
  round.timeout = node_.clock().schedule_in(
      params_.vote_timeout, [this, round_id] { abort_round(round_id); },
      net::EventTag::kVoting);
}

void IvsService::abort_round(std::uint64_t round_id) {
  const auto it = rounds_.find(round_id);
  if (it == rounds_.end()) return;
  node_.clock().cancel(it->second.timeout);
  const Value value = std::move(it->second.center_value);
  const std::uint64_t round_span = it->second.span;
  rounds_.erase(it);
  node_.metrics().add_named("ivs.rounds_aborted");
  node_.tracer().emit({now(), sim::TraceType::kVoteVerdict, node_.id(), sim::kNoNode,
                               round_id, 0, 0.0, "aborted", round_span, 0});
  if (callbacks_.on_abort) callbacks_.on_abort(round_id, value);
}

void IvsService::handle_value(const ValueMsg& msg, sim::NodeId from) {
  if (msg.center != node_.id()) {
    // Two-hop circles: direct neighbors of the center relay replies from
    // two-hop members (one forwarding step, deduplicated).
    if (params_.circle_hops >= 2 && sts_.is_neighbor(msg.center) &&
        !suspicions_.suspected(msg.center, now()) &&
        forwarded_.emplace(msg.center, msg.round, msg.sender, 0).second) {
      const auto size = static_cast<std::uint32_t>(20 + msg.value.size() + msg.sig.size());
      unicast(msg.center, std::make_shared<ValueMsg>(msg), size);
    }
    return;
  }
  const auto it = rounds_.find(msg.round);
  if (it == rounds_.end()) return;
  Round& round = it->second;
  if (round.mode != VotingMode::kStatistical || round.phase != Phase::kSoliciting) return;
  if (suspicions_.suspected(msg.sender, now())) return;
  if (params_.circle_hops >= 2 ? !sts_.is_within_two_hops(msg.sender)
                               : !sts_.is_neighbor(msg.sender)) {
    return;
  }
  if (round.value_senders.count(msg.sender) != 0) return;

  charge_crypto(params_.cost.verify_delay);
  if (!pki_.verify(msg.sender,
                   ValueMsg::value_bytes(node_.id(), msg.round, msg.sender, msg.value),
                   msg.sig)) {
    suspicions_.suspect_temporarily(from, now(), "bad value signature");
    trace_suspicion(node_, node_.id(), from, sim::TraceType::kSuspect,
                    "bad_value_signature");
    return;
  }

  round.value_senders.insert(msg.sender);
  round.evidence.push_back(msg);
  ICC_ASSERT(round.evidence.size() == round.value_senders.size(),
             "every piece of evidence must come from a distinct sender");

  // Center's own value is in the evidence, so L others makes L+1 total.
  if (round.value_senders.size() >= static_cast<std::size_t>(round.level) + 1) {
    round.agreed_value = fuse_sorted(round.evidence);
    // Optional application acceptance test on the fused value (e.g., the
    // fused energy still clears the detection threshold).
    if (callbacks_.check && !callbacks_.check(node_.id(), round.agreed_value)) {
      abort_round(msg.round);
      return;
    }
    begin_propose_phase(msg.round, round);
  }
}

void IvsService::handle_ack(const AckMsg& msg, sim::NodeId from) {
  if (msg.center != node_.id()) {
    if (params_.circle_hops >= 2 && sts_.is_neighbor(msg.center) &&
        !suspicions_.suspected(msg.center, now()) &&
        forwarded_.emplace(msg.center, msg.round, msg.sender, 1).second) {
      const auto size = static_cast<std::uint32_t>(20 + scheme_.partial_sig_bytes());
      unicast(msg.center, std::make_shared<AckMsg>(msg), size);
    }
    return;
  }
  const auto it = rounds_.find(msg.round);
  if (it == rounds_.end()) return;
  Round& round = it->second;
  if (round.phase != Phase::kProposing) return;
  if (suspicions_.suspected(msg.sender, now())) return;
  if (round.partial_senders.count(msg.sender) != 0) return;

  const auto signed_bytes =
      AgreedMsg::signed_bytes(node_.id(), msg.round, round.level, round.agreed_value);
  charge_crypto(params_.cost.verify_delay);
  if (!scheme_.verify_partial(signed_bytes, msg.psig)) {
    suspicions_.suspect_temporarily(msg.sender, now(), "bad partial signature");
    trace_suspicion(node_, node_.id(), msg.sender, sim::TraceType::kSuspect,
                    "bad_partial_signature");
    return;
  }
  (void)from;

  round.partial_senders.insert(msg.sender);
  round.partials.push_back(msg.psig);
  ICC_ASSERT(round.partials.size() == round.partial_senders.size(),
             "every partial signature must come from a distinct sender");
  if (round.partial_senders.size() >= static_cast<std::size_t>(round.level) + 1) {
    complete_round(msg.round, round);
  }
}

void IvsService::complete_round(std::uint64_t round_id, Round& round) {
  // Agreement precondition (§4.2): completion requires L+1 distinct
  // approvals (the center's own partial plus L acks), in the propose phase.
  ICC_ASSERT(round.phase == Phase::kProposing, "only a proposed round can complete");
  ICC_ASSERT(round.partial_senders.size() >= static_cast<std::size_t>(round.level) + 1,
             "completing a round requires L+1 distinct partial signatures");
  const auto signed_bytes =
      AgreedMsg::signed_bytes(node_.id(), round_id, round.level, round.agreed_value);
  charge_crypto(params_.cost.combine_delay);
  auto sig = scheme_.combine(round.level, signed_bytes, round.partials);
  if (!sig) {
    abort_round(round_id);
    return;
  }

  auto agreed = std::make_shared<AgreedMsg>();
  agreed->source = node_.id();
  agreed->round = round_id;
  agreed->level = round.level;
  agreed->ttl = params_.circle_hops;
  agreed->value = round.agreed_value;
  agreed->sig = std::move(*sig);

  node_.clock().cancel(round.timeout);
  // `round` references the map node: copy everything the emit needs before
  // erase invalidates it.
  const int level = round.level;
  const std::uint64_t round_span = round.span;
  rounds_.erase(round_id);
  node_.metrics().add_named("ivs.rounds_completed");
  node_.tracer().emit({now(), sim::TraceType::kVoteVerdict, node_.id(), sim::kNoNode,
                               round_id, 0, static_cast<double>(level), "completed",
                               round_span, 0});

  // "c assembles an agreed message and sends it to all its inner-circle
  // nodes" — participants learn the outcome (Fig 6's onAgreed updates).
  broadcast(agreed, agreed->wire_size());
  if (callbacks_.on_agreed) callbacks_.on_agreed(*agreed, /*is_center=*/true);
}

// -------------------------------------------------------- participant side

void IvsService::handle_solicit(const SolicitMsg& msg, sim::NodeId from) {
  if (msg.center == node_.id()) return;
  if (suspicions_.suspected(msg.center, now()) || suspicions_.suspected(from, now())) return;

  const bool direct = sts_.is_neighbor(msg.center);
  // Two-hop circles: the center's direct neighbors re-broadcast the solicit
  // once so two-hop members hear it.
  if (msg.ttl > 1 && direct && params_.circle_hops >= 2 &&
      relayed_.emplace(msg.center, msg.round, 0).second) {
    auto relay = std::make_shared<SolicitMsg>(msg);
    relay->ttl = msg.ttl - 1;
    broadcast(relay, static_cast<std::uint32_t>(20 + relay->topic.size()));
  }

  if (!direct && !(params_.circle_hops >= 2 && sts_.is_within_two_hops(msg.center))) return;
  if (!callbacks_.get_value) return;
  if (!value_replied_.emplace(msg.center, msg.round).second) return;

  const auto value = callbacks_.get_value(msg.center, msg.topic);
  if (!value) return;

  auto reply = std::make_shared<ValueMsg>();
  reply->sender = node_.id();
  reply->center = msg.center;
  reply->round = msg.round;
  reply->value = *value;
  charge_crypto(params_.cost.sign_delay);
  reply->sig = node_signer_->sign(
      ValueMsg::value_bytes(msg.center, msg.round, node_.id(), *value));
  const auto size = static_cast<std::uint32_t>(20 + reply->value.size() + reply->sig.size());

  // Replies route directly to a neighboring center, or back through the
  // relay that delivered the solicit. Crypto latency: the reply leaves
  // after the signing delay.
  const sim::NodeId next_hop = direct ? msg.center : from;
  node_.clock().schedule_in(params_.cost.sign_delay, [this, next_hop, reply, size] {
    unicast(next_hop, reply, size);
  }, net::EventTag::kVoting);
}

void IvsService::handle_propose(const ProposeMsg& msg, sim::NodeId from) {
  if (msg.center == node_.id()) return;
  if (suspicions_.suspected(msg.center, now()) || suspicions_.suspected(from, now())) return;
  if (msg.level < 1 || msg.level > scheme_.max_level()) return;

  const bool direct = sts_.is_neighbor(msg.center);
  if (msg.ttl > 1 && direct && params_.circle_hops >= 2 &&
      relayed_.emplace(msg.center, msg.round, 1).second) {
    auto relay = std::make_shared<ProposeMsg>(msg);
    relay->ttl = msg.ttl - 1;
    std::uint32_t relay_size = static_cast<std::uint32_t>(21 + relay->value.size() +
                                                          relay->center_sig.size());
    for (const ValueMsg& ev : relay->evidence) {
      relay_size += static_cast<std::uint32_t>(16 + ev.value.size() + ev.sig.size());
    }
    broadcast(relay, relay_size);
  }

  if (!direct && !(params_.circle_hops >= 2 && sts_.is_within_two_hops(msg.center))) return;
  if (!acked_.emplace(msg.center, msg.round).second) return;

  charge_crypto(params_.cost.verify_delay);
  const bool center_sig_ok = pki_.verify(
      msg.center,
      ProposeMsg::propose_bytes(msg.center, msg.round, msg.level, msg.mode, msg.value),
      msg.center_sig);
  if (!center_sig_ok) {
    suspicions_.suspect_temporarily(from, now(), "bad propose signature");
    trace_suspicion(node_, node_.id(), from, sim::TraceType::kSuspect,
                    "bad_propose_signature");
    return;
  }

  if (msg.mode == VotingMode::kDeterministic) {
    // Application-aware check (Fig 3a / Fig 6). A failed check only
    // withholds this node's approval: the check can be subjective (this
    // node may simply lack state a correct center legitimately has, e.g. a
    // missed fw-map update), so it is not treated as evidence of
    // misbehavior — the dependability level L is what stops an invalid
    // value from gathering enough approvals.
    if (callbacks_.check && !callbacks_.check(msg.center, msg.value)) {
      node_.metrics().add_named("ivs.check_rejected");
      return;
    }
  } else {
    if (!callbacks_.fuse) return;
    // Validate the evidence: individually signed observations from distinct
    // senders, including the center's own, all bound to this round.
    if (msg.evidence.size() < static_cast<std::size_t>(msg.level) + 1) return;
    std::set<sim::NodeId> senders;
    bool center_present = false;
    for (const ValueMsg& ev : msg.evidence) {
      if (ev.round != msg.round) return;
      if (!senders.insert(ev.sender).second) return;
      charge_crypto(params_.cost.verify_delay);
      if (!pki_.verify(ev.sender,
                       ValueMsg::value_bytes(msg.center, msg.round, ev.sender, ev.value),
                       ev.sig)) {
        return;
      }
      if (ev.sender == msg.center) center_present = true;
    }
    if (!center_present) return;

    // Recompute the fusion: a mismatch under a valid center signature is
    // provable misbehavior -> permanent conviction (§4, Suspicions Manager).
    const Value recomputed = fuse_sorted(msg.evidence);
    if (recomputed != msg.value) {
      suspicions_.convict(msg.center, "statistical fusion mismatch");
      trace_suspicion(node_, node_.id(), msg.center, sim::TraceType::kConvict,
                      "fusion_mismatch");
      node_.metrics().add_named("ivs.fusion_rejected");
      return;
    }
    if (callbacks_.check && !callbacks_.check(msg.center, msg.value)) {
      node_.metrics().add_named("ivs.check_rejected");
      return;
    }
  }

  send_ack(msg.center, direct ? msg.center : from, msg.round, msg.level, msg.value);
}

void IvsService::send_ack(sim::NodeId center, sim::NodeId next_hop, std::uint64_t round,
                          int level, const Value& value) {
  auto ack = std::make_shared<AckMsg>();
  ack->sender = node_.id();
  ack->center = center;
  ack->round = round;
  charge_crypto(params_.cost.sign_delay);
  ack->psig = signer_->partial_sign(level, AgreedMsg::signed_bytes(center, round, level, value));
  const auto size = static_cast<std::uint32_t>(20 + scheme_.partial_sig_bytes());
  node_.clock().schedule_in(params_.cost.sign_delay, [this, next_hop, ack, size] {
    unicast(next_hop, ack, size);
  }, net::EventTag::kVoting);
  node_.metrics().add_named("ivs.acks_sent");
}

void IvsService::handle_agreed(const AgreedMsg& msg, sim::NodeId from) {
  (void)from;
  if (msg.source == node_.id()) return;
  if (msg.ttl > 1 && sts_.is_neighbor(msg.source) && params_.circle_hops >= 2 &&
      relayed_.emplace(msg.source, msg.round, 2).second) {
    auto relay = std::make_shared<AgreedMsg>(msg);
    relay->ttl = msg.ttl - 1;
    broadcast(relay, relay->wire_size());
  }
  if (!delivered_.emplace(msg.source, msg.round).second) return;
  charge_crypto(params_.cost.verify_delay);
  if (!verify_agreed(msg)) {
    suspicions_.suspect_temporarily(from, now(), "invalid agreed signature");
    trace_suspicion(node_, node_.id(), from, sim::TraceType::kSuspect,
                    "invalid_agreed_signature");
    node_.metrics().add_named("ivs.agreed_rejected");
    return;
  }
  node_.metrics().add_named("ivs.agreed_delivered");
  if (callbacks_.on_agreed) callbacks_.on_agreed(msg, /*is_center=*/false);
}

bool IvsService::verify_agreed(const AgreedMsg& msg) const {
  if (msg.sig.level != msg.level) return false;
  return scheme_.verify(AgreedMsg::signed_bytes(msg.source, msg.round, msg.level, msg.value),
                        msg.sig);
}

void IvsService::handle_packet(const sim::Packet& packet, sim::NodeId from) {
  if (const auto* solicit = packet.body_as<SolicitMsg>()) {
    handle_solicit(*solicit, from);
  } else if (const auto* value = packet.body_as<ValueMsg>()) {
    handle_value(*value, from);
  } else if (const auto* propose = packet.body_as<ProposeMsg>()) {
    handle_propose(*propose, from);
  } else if (const auto* ack = packet.body_as<AckMsg>()) {
    handle_ack(*ack, from);
  } else if (const auto* agreed = packet.body_as<AgreedMsg>()) {
    handle_agreed(*agreed, from);
  }
}

}  // namespace icc::core

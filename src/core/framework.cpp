#include "core/framework.hpp"

#include "fault/ledger.hpp"
#include "sim/trace.hpp"

namespace icc::core {

InnerCircleNode::InnerCircleNode(net::Host& node, InnerCircleConfig config,
                                 crypto::ThresholdScheme& scheme, crypto::Pki& pki,
                                 const crypto::AsymmetricCipher& cipher)
    : node_{node},
      config_{[&config] {
        InnerCircleConfig c = config;
        c.ivs.circle_hops = c.circle_hops;
        return c;
      }()},
      suspicions_{config.suspicion_duration},
      sts_{node, config.sts, cipher},
      ivs_{node,          config_.ivs,       sts_,
           suspicions_,   scheme,            scheme.issue_signer(node.id()),
           pki,           pki.issue_signer(node.id()),
           callbacks_} {
  node_.transport().register_handler(sim::Port::kSts, [this](const sim::Packet& p, sim::NodeId from) {
    sts_.handle_packet(p, from);
  });
  node_.transport().register_handler(sim::Port::kIvs, [this](const sim::Packet& p, sim::NodeId from) {
    ivs_.handle_packet(p, from);
  });
  node_.transport().add_inbound_filter([this](const sim::Packet& p, sim::NodeId from) {
    return filter_inbound(p, from);
  });
  node_.transport().add_outbound_filter([this](const sim::Packet& p, sim::NodeId next_hop) {
    return filter_outbound(p, next_hop);
  });
}

void InnerCircleNode::start() { sts_.start(); }

void InnerCircleNode::intercept_outgoing(Matcher match, Extractor extract) {
  outgoing_rules_.push_back(InterceptRule{std::move(match), std::move(extract)});
}

void InnerCircleNode::suppress_incoming(IncomingMatcher match) {
  incoming_rules_.push_back(std::move(match));
}

std::optional<AgreedMsg> InnerCircleNode::verify_agreed_bytes(
    std::span<const std::uint8_t> bytes) const {
  auto msg = AgreedMsg::deserialize(bytes);
  if (!msg) return std::nullopt;
  if (!ivs_.verify_agreed(*msg)) return std::nullopt;
  return msg;
}

net::FilterVerdict InnerCircleNode::filter_outbound(const sim::Packet& packet,
                                                    sim::NodeId next_hop) {
  for (const InterceptRule& rule : outgoing_rules_) {
    if (rule.match(packet, next_hop)) {
      // Redirect to the voting service (Fig 1: matching outgoing messages
      // are handed to the inner-circle services instead of the link layer).
      node_.metrics().add_named("icc.outgoing_intercepted");
      // The voting round descends from the intercepted packet (its uid is
      // already stamped: send stamps before the filter chain runs).
      ivs_.initiate(config_.mode, config_.level, rule.extract(packet, next_hop),
                    packet.uid);
      return net::FilterVerdict::kConsumed;
    }
  }
  return net::FilterVerdict::kPass;
}

net::FilterVerdict InnerCircleNode::filter_inbound(const sim::Packet& packet,
                                                   sim::NodeId from) {
  const sim::Time now = node_.now();
  // Convicted nodes are cut off entirely; temporarily suspected nodes only
  // lose access to the inner-circle services and guarded templates.
  if (suspicions_.convicted(from)) {
    node_.metrics().add_named("icc.suppressed_convicted");
    node_.tracer().emit({now, sim::TraceType::kPacketDrop, node_.id(), from,
                                 packet.uid, packet.size_bytes, 0.0, "suppressed_convicted",
                                 packet.uid, packet.parent});
    fault::report_neutralized(node_, fault::FaultClass::kProtocol, from, 0,
                              packet.uid);
    return net::FilterVerdict::kDrop;
  }
  const bool suspected = suspicions_.suspected(from, now);
  if (suspected && packet.port == sim::Port::kIvs) {
    node_.metrics().add_named("icc.suppressed_suspected");
    node_.tracer().emit({now, sim::TraceType::kPacketDrop, node_.id(), from,
                                 packet.uid, packet.size_bytes, 0.0, "suppressed_suspected",
                                 packet.uid, packet.parent});
    return net::FilterVerdict::kDrop;
  }
  for (const IncomingMatcher& match : incoming_rules_) {
    if (match(packet)) {
      // Guarded template: the raw protocol message must never be accepted
      // off the air — only its agreed, signature-checked form is.
      node_.metrics().add_named("icc.suppressed_raw");
      node_.tracer().emit({now, sim::TraceType::kPacketDrop, node_.id(), from,
                                   packet.uid, packet.size_bytes, 0.0, "suppressed_raw",
                                   packet.uid, packet.parent});
      // Discarding the raw template message is both the detection (the
      // template violation is the observed symptom) and the masking
      // neutralization (§3): a forged RREP never reaches the routing
      // service. Attributed to the sender — for the black hole that is the
      // attacker itself.
      fault::report_detected(node_, fault::FaultClass::kProtocol, from, 0,
                             packet.uid);
      fault::report_neutralized(node_, fault::FaultClass::kProtocol, from, 0,
                                packet.uid);
      return net::FilterVerdict::kDrop;
    }
  }
  return net::FilterVerdict::kPass;
}

}  // namespace icc::core

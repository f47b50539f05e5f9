// The inner-circle consistency node architecture (§4, Fig 1): composes the
// Secure Topology Service, Inner-circle Voting Service, Suspicions Manager,
// and the Inner-circle Interceptor on top of a simulated wireless node.
//
// Applications attach to it by (1) configuring dependability level L and the
// voting mode, (2) registering message templates describing which of their
// messages must be checked (outgoing templates are redirected to voting,
// matching raw incoming messages are suppressed), and (3) supplying the
// Inner-circle Callbacks.
#pragma once

#include <functional>
#include <memory>
#include <vector>

#include "core/callbacks.hpp"
#include "core/messages.hpp"
#include "core/suspicions.hpp"
#include "core/topology.hpp"
#include "core/voting.hpp"
#include "crypto/ns_lowe.hpp"
#include "crypto/pki.hpp"
#include "crypto/scheme.hpp"
#include "net/host.hpp"

namespace icc::core {

struct InnerCircleConfig {
  int level{1};                                       ///< dependability level L
  VotingMode mode{VotingMode::kDeterministic};
  /// Inner-circle radius in hops: 1 = the paper's default; 2 = the §3
  /// "larger inner-circle" extension (relayed rounds, bigger N, larger
  /// tolerable F at the cost of more round traffic).
  int circle_hops{1};
  SecureTopologyService::Params sts{};
  IvsService::Params ivs{};
  sim::Time suspicion_duration{120.0};
};

class InnerCircleNode {
 public:
  /// Matches a packet the application wants checked; `next_hop` is the
  /// link-layer destination the application chose.
  using Matcher = std::function<bool(const sim::Packet& packet, sim::NodeId next_hop)>;
  /// Serializes a matched outgoing packet into the Value submitted to voting.
  using Extractor = std::function<Value(const sim::Packet& packet, sim::NodeId next_hop)>;
  /// Matches incoming packets that must only ever arrive as agreed messages.
  using IncomingMatcher = std::function<bool(const sim::Packet& packet)>;

  InnerCircleNode(net::Host& node, InnerCircleConfig config,
                  crypto::ThresholdScheme& scheme, crypto::Pki& pki,
                  const crypto::AsymmetricCipher& cipher);

  /// Begin STS beaconing. Call once after all registration is done.
  void start();

  /// Outgoing interception: matching packets are consumed and submitted to
  /// an inner-circle voting round at the configured mode/level.
  void intercept_outgoing(Matcher match, Extractor extract);

  /// Incoming suppression: matching raw packets are dropped — their content
  /// is only accepted when it arrives inside a valid agreed message.
  void suppress_incoming(IncomingMatcher match);

  /// Directly start a voting round (applications that do not go through the
  /// packet filter, e.g. sensor apps voting on local readings).
  std::uint64_t initiate(Value value) {
    return ivs_.initiate(config_.mode, config_.level, std::move(value));
  }
  std::uint64_t initiate(VotingMode mode, int level, Value value) {
    return ivs_.initiate(mode, level, std::move(value));
  }

  /// Remote-recipient helper: parse + verify an embedded agreed message.
  [[nodiscard]] std::optional<AgreedMsg> verify_agreed_bytes(
      std::span<const std::uint8_t> bytes) const;

  Callbacks& callbacks() noexcept { return callbacks_; }
  SecureTopologyService& sts() noexcept { return sts_; }
  IvsService& ivs() noexcept { return ivs_; }
  SuspicionsManager& suspicions() noexcept { return suspicions_; }
  [[nodiscard]] const InnerCircleConfig& config() const noexcept { return config_; }
  [[nodiscard]] net::Host& node() noexcept { return node_; }

 private:
  struct InterceptRule {
    Matcher match;
    Extractor extract;
  };

  net::FilterVerdict filter_outbound(const sim::Packet& packet, sim::NodeId next_hop);
  net::FilterVerdict filter_inbound(const sim::Packet& packet, sim::NodeId from);

  net::Host& node_;
  InnerCircleConfig config_;
  Callbacks callbacks_;
  SuspicionsManager suspicions_;
  SecureTopologyService sts_;
  IvsService ivs_;
  std::vector<InterceptRule> outgoing_rules_;
  std::vector<IncomingMatcher> incoming_rules_;
};

}  // namespace icc::core

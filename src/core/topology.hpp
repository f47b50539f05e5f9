// Secure Topology Service (§4.1).
//
// Discovers and authenticates bidirectional links up to two hops away.
// Implementation follows the paper: periodic broadcast beacons (period
// tau < Delta_STS / 2) carrying the origin's authenticated neighbor list,
// with link authentication bootstrapped by the (fixed) Needham–Schroeder–
// Lowe handshake; each listed neighbor gets an HMAC tag under the pairwise
// session key so it can verify both the beacon's origin and the mutuality
// of the adjacency claim.
//
// Properties (§4.1), exercised by tests/core/topology_test.cpp:
//  * Completeness  — links silent for Delta_STS drop out of the view.
//  * One-Hop Accuracy — a timely, authenticated neighbor appears in the view.
//  * Two-Hop Accuracy — a correct neighbor's own neighbors become visible.
#pragma once

#include <map>
#include <optional>
#include <vector>

#include "core/messages.hpp"
#include "crypto/hmac.hpp"
#include "crypto/ns_lowe.hpp"
#include "net/host.hpp"
#include "sim/rng.hpp"

namespace icc::core {

// icc:affinity(node)
class SecureTopologyService {
 public:
  struct Params {
    sim::Time delta_sts{2.0};  ///< freshness window Delta_STS
    sim::Time period{0.0};     ///< beacon period tau; 0 => 0.45 * delta_sts
    sim::Time handshake_retry{1.0};
    /// Upper bound on the random delay before the first beacon; 0 => one
    /// full period. Lowering it speeds up cold-start link discovery when
    /// Delta_STS is large (the sensor study uses Delta_STS = 100 s).
    sim::Time initial_beacon_delay{0.0};
  };

  SecureTopologyService(net::Host& node, Params params,
                        const crypto::AsymmetricCipher& cipher);

  /// Begin beaconing. Call once after construction.
  void start();

  /// The node's inner circle: fresh, authenticated one-hop neighbors.
  [[nodiscard]] std::vector<sim::NodeId> inner_circle() const;
  [[nodiscard]] bool is_neighbor(sim::NodeId q) const;
  /// Two-hop view: `q`'s own (claimed, tag-authenticated to q's neighbors)
  /// neighbor list, if q's claim is fresh.
  [[nodiscard]] std::vector<sim::NodeId> neighbors_of(sim::NodeId q) const;
  /// Is `q` reachable within two hops — i.e. a fresh direct neighbor, or
  /// listed in a fresh direct neighbor's claimed neighbor set? Used by
  /// two-hop inner circles (§3) to validate center eligibility.
  [[nodiscard]] bool is_within_two_hops(sim::NodeId q) const;
  /// All nodes within two hops (the §3 "larger inner-circle" membership).
  [[nodiscard]] std::vector<sim::NodeId> two_hop_circle() const;
  [[nodiscard]] std::optional<sim::Vec2> position_of(sim::NodeId q) const;
  [[nodiscard]] const crypto::SessionKey* session_with(sim::NodeId q) const;

  /// Packet entry point (Port::kSts), wired up by the framework.
  void handle_packet(const sim::Packet& packet, sim::NodeId from);

  [[nodiscard]] const Params& params() const noexcept { return params_; }

 private:
  struct PeerState {
    bool authenticated{false};
    crypto::SessionKey key{};
    crypto::HmacKey tag_key;  ///< key's schedule, set with it by complete_handshake
    sim::Time last_heard{-1e18};  ///< last authenticated contact
    sim::Vec2 pos;
    bool pos_known{false};
    std::vector<sim::NodeId> claimed_neighbors;
    sim::Time claim_time{-1e18};
    std::optional<crypto::NslSession> handshake;
    sim::Time handshake_started{-1e18};
  };

  void send_beacon();
  void handle_beacon(const StsBeacon& beacon, sim::NodeId from);
  void handle_nsl(const NslMsg& msg, sim::NodeId from);
  void complete_handshake(PeerState& peer, crypto::SessionKey key, sim::Time t);
  void maybe_begin_handshake(sim::NodeId peer);
  void send_nsl(sim::NodeId to, int phase, crypto::Ciphertext ct);
  [[nodiscard]] crypto::Nonce fresh_nonce();
  [[nodiscard]] sim::Time now() const;

  net::Host& node_;
  Params params_;
  const crypto::AsymmetricCipher& cipher_;
  sim::Rng rng_;
  std::uint64_t beacon_seq_{0};
  // Ordered deliberately: send_beacon iterates peers_ to assemble the
  // beacon's neighbor list (wire bytes) and inner_circle feeds voting-round
  // membership, so iteration order is simulation-affecting. std::map keys
  // both walks on NodeId instead of hash-table layout (DESIGN.md §9).
  std::map<sim::NodeId, PeerState> peers_;
};

}  // namespace icc::core

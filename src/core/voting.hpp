// Inner-circle Voting Service (§4.2, Fig 3).
//
// Deterministic voting: the center proposes its value; each inner-circle
// node that accepts it (application `check`) replies with a partial
// threshold signature; L acks plus the center's own partial combine into a
// self-checking agreed message.
//
// Statistical voting: the center solicits observations, fuses L of them with
// its own through the application's fault-tolerant fusion function (§4.3),
// and proposes the fused value together with the signed observations as
// evidence; participants recompute the fusion before acking.
//
// Properties (§4.2): Agreement — a valid level-L agreed message requires
// approval from T = L - F_B non-Byzantine nodes; Integrity — remote
// recipients can rely on a verifying agreed message; Termination — a round
// started by a correct center completes or aborts by its timeout.
#pragma once

#include <cstdint>
#include <map>
#include <memory>
#include <set>
#include <tuple>

#include "core/callbacks.hpp"
#include "core/messages.hpp"
#include "core/suspicions.hpp"
#include "core/topology.hpp"
#include "crypto/pki.hpp"
#include "crypto/scheme.hpp"
#include "net/host.hpp"

namespace icc::core {

class IvsService {
 public:
  struct Params {
    sim::Time vote_timeout{0.25};  ///< per-phase deadline at the center
    CryptoCostModel cost{};
    /// Inner-circle radius in hops (§3): 1 = the paper's default one-hop
    /// circles; 2 = the "larger inner-circle" extension, where direct
    /// neighbors of the center relay round traffic to/from two-hop members.
    int circle_hops{1};
  };

  IvsService(net::Host& node, Params params, SecureTopologyService& sts,
             SuspicionsManager& suspicions, crypto::ThresholdScheme& scheme,
             std::unique_ptr<crypto::ThresholdSigner> signer, crypto::Pki& pki,
             std::unique_ptr<crypto::NodeSigner> node_signer, Callbacks& callbacks);

  /// Center API: start a voting round over `value` (deterministic) or with
  /// `value` as the solicit topic / own observation (statistical). Returns
  /// the round id. The round resolves through on_agreed / on_abort.
  /// `parent_span` optionally links the round to the packet (or other trace
  /// span) that caused it, so lineage reconstruction can walk from an
  /// intercepted packet to the round's verdict.
  std::uint64_t initiate(VotingMode mode, int level, Value value,
                         std::uint64_t parent_span = 0);

  /// Packet entry point (Port::kIvs), wired up by the framework.
  void handle_packet(const sim::Packet& packet, sim::NodeId from);

  /// Verify an agreed message against the threshold scheme (Integrity).
  [[nodiscard]] bool verify_agreed(const AgreedMsg& msg) const;

  [[nodiscard]] const Params& params() const noexcept { return params_; }
  [[nodiscard]] std::size_t active_rounds() const noexcept { return rounds_.size(); }

 private:
  enum class Phase { kSoliciting, kProposing };

  struct Round {
    VotingMode mode{VotingMode::kDeterministic};
    int level{1};
    Phase phase{Phase::kProposing};
    Value center_value;
    Value agreed_value;  ///< = center_value (det) or fused value (stat)
    std::vector<crypto::PartialSig> partials;
    std::set<sim::NodeId> partial_senders;
    std::vector<ValueMsg> evidence;  ///< statistical: signed observations
    std::set<sim::NodeId> value_senders;
    net::TimerId timeout{net::kNoTimer};
    std::uint64_t span{0};  ///< lineage span naming this round in the trace
  };

  // --- center side ---
  void begin_propose_phase(std::uint64_t round_id, Round& round);
  void handle_value(const ValueMsg& msg, sim::NodeId from);
  void handle_ack(const AckMsg& msg, sim::NodeId from);
  void complete_round(std::uint64_t round_id, Round& round);
  void abort_round(std::uint64_t round_id);
  void arm_timeout(std::uint64_t round_id, Round& round);

  // --- participant side ---
  void handle_solicit(const SolicitMsg& msg, sim::NodeId from);
  void handle_propose(const ProposeMsg& msg, sim::NodeId from);
  void handle_agreed(const AgreedMsg& msg, sim::NodeId from);
  void send_ack(sim::NodeId center, sim::NodeId next_hop, std::uint64_t round,
                int level, const Value& value);

  // --- helpers ---
  void broadcast(std::shared_ptr<const sim::Payload> body, std::uint32_t size);
  void unicast(sim::NodeId to, std::shared_ptr<const sim::Payload> body, std::uint32_t size);
  void charge_crypto(sim::Time delay_unused_for_energy_only);
  [[nodiscard]] Value fuse_sorted(std::vector<ValueMsg> evidence) const;
  [[nodiscard]] sim::Time now() const;

  net::Host& node_;
  Params params_;
  SecureTopologyService& sts_;
  SuspicionsManager& suspicions_;
  crypto::ThresholdScheme& scheme_;
  std::unique_ptr<crypto::ThresholdSigner> signer_;
  crypto::Pki& pki_;
  std::unique_ptr<crypto::NodeSigner> node_signer_;
  Callbacks& callbacks_;

  std::uint64_t next_round_{1};
  /// Rounds we center. Keyed access only, but ordered so any future sweep
  /// (abort-all, diagnostics dumps) visits rounds in id order instead of
  /// hash order (DESIGN.md §9).
  std::map<std::uint64_t, Round> rounds_;

  // Participant-side dedup: rounds we already contributed a value / ack to,
  // and agreed messages already delivered, keyed by (center, round).
  std::set<std::pair<sim::NodeId, std::uint64_t>> value_replied_;
  std::set<std::pair<sim::NodeId, std::uint64_t>> acked_;
  std::set<std::pair<sim::NodeId, std::uint64_t>> delivered_;
  // Relay dedup for two-hop circles: (center, round, message kind).
  std::set<std::tuple<sim::NodeId, std::uint64_t, int>> relayed_;
  // Reply-forwarding dedup: (center, round, original sender, message kind).
  std::set<std::tuple<sim::NodeId, std::uint64_t, sim::NodeId, int>> forwarded_;
};

}  // namespace icc::core

// Payload types exchanged by the inner-circle services (STS + IVS), plus the
// canonical byte strings they sign.
#pragma once

#include <cstddef>
#include <cstdint>
#include <optional>
#include <span>
#include <tuple>
#include <vector>

#include "core/wire.hpp"
#include "crypto/ns_lowe.hpp"
#include "crypto/scheme.hpp"
#include "crypto/sha256.hpp"
#include "sim/packet.hpp"
#include "sim/types.hpp"
#include "sim/vec2.hpp"

namespace icc::core {

/// Application value carried through voting: opaque bytes, serialized and
/// interpreted by the Inner-circle Callbacks.
using Value = std::vector<std::uint8_t>;

/// Which IVS algorithm a round runs (Fig 3).
enum class VotingMode : std::uint8_t { kDeterministic = 0, kStatistical = 1 };
template <>
inline constexpr std::size_t kWireEnumCount<VotingMode> = 2;

// --------------------------------------------------------------------- STS

/// Periodic Secure Topology Service beacon. `neighbors[i]` is a neighbor the
/// origin has authenticated (via NS-Lowe); `tags[i]` is
/// HMAC(session(origin, neighbors[i]), auth_bytes(...)) so that each listed
/// neighbor can verify the beacon really comes from origin and that the
/// adjacency claim is mutual.
struct StsBeacon final : sim::PayloadBase<StsBeacon> {
  static constexpr const char* kTag = "sts.beacon";
  sim::NodeId origin{sim::kNoNode};
  std::uint64_t seq{0};
  sim::Vec2 pos;
  std::vector<sim::NodeId> neighbors;
  std::vector<crypto::Digest> tags;
  static auto fields(auto& m) {
    return std::tie(m.origin, m.seq, m.pos.x, m.pos.y, m.neighbors, m.tags);
  }

  /// The beacon content covered by each per-neighbor tag.
  [[nodiscard]] static std::vector<std::uint8_t> auth_bytes(
      sim::NodeId origin, std::uint64_t seq, sim::Vec2 pos,
      const std::vector<sim::NodeId>& neighbors) {
    std::vector<std::uint8_t> buf;
    buf.reserve(32 + 4 * neighbors.size());  // the exact length written below
    WireWriter w{std::move(buf)};
    w.u32(origin);
    w.u64(seq);
    w.f64(pos.x);
    w.f64(pos.y);
    w.u32(static_cast<std::uint32_t>(neighbors.size()));
    for (const sim::NodeId n : neighbors) w.u32(n);
    return std::move(w).take();
  }
};

/// NS-Lowe handshake transport (phases 1-3), unicast between neighbors.
struct NslMsg final : sim::PayloadBase<NslMsg> {
  // Tag is per-type now; the handshake phase rides in the `phase` field
  // (the old dynamic "sts.nsl<phase>" string had no readers).
  static constexpr const char* kTag = "sts.nsl";
  int phase{0};
  crypto::Ciphertext ct;
  static auto fields(auto& m) { return std::tie(m.phase, m.ct.to, m.ct.data); }
};

// --------------------------------------------------------------------- IVS

/// Statistical voting, step 1: the center solicits values (Fig 3b). `topic`
/// carries the center's own observation / round context for getVal.
struct SolicitMsg final : sim::PayloadBase<SolicitMsg> {
  static constexpr const char* kTag = "ivs.solicit";
  sim::NodeId center{sim::kNoNode};
  std::uint64_t round{0};
  int level{1};
  int ttl{1};  ///< remaining relay hops (2 for two-hop inner circles, §3)
  Value topic;
  static auto fields(auto& m) { return std::tie(m.center, m.round, m.level, m.ttl, m.topic); }
};

/// Statistical voting, step 2: a participant's observation, individually
/// signed so it can be forwarded as evidence inside the propose message.
struct ValueMsg final : sim::PayloadBase<ValueMsg> {
  static constexpr const char* kTag = "ivs.value";
  sim::NodeId sender{sim::kNoNode};
  sim::NodeId center{sim::kNoNode};  ///< routing target (relayed in 2-hop circles)
  std::uint64_t round{0};
  Value value;
  std::vector<std::uint8_t> sig;  ///< PKI signature over value_bytes(...)
  static auto fields(auto& m) { return std::tie(m.sender, m.center, m.round, m.value, m.sig); }
  [[nodiscard]] static std::vector<std::uint8_t> value_bytes(sim::NodeId center,
                                                             std::uint64_t round,
                                                             sim::NodeId sender,
                                                             const Value& value) {
    WireWriter w;
    w.u32(center);
    w.u64(round);
    w.u32(sender);
    w.bytes(value);
    return std::move(w).take();
  }
};

/// Voting propose: deterministic rounds open with it; statistical rounds use
/// it to distribute the fused value plus the evidence it was fused from.
struct ProposeMsg final : sim::PayloadBase<ProposeMsg> {
  static constexpr const char* kTag = "ivs.propose";
  sim::NodeId center{sim::kNoNode};
  std::uint64_t round{0};
  int level{1};
  int ttl{1};  ///< remaining relay hops (2 for two-hop inner circles, §3)
  VotingMode mode{VotingMode::kDeterministic};
  Value value;
  std::vector<ValueMsg> evidence;      ///< statistical only; includes center's own
  std::vector<std::uint8_t> center_sig;  ///< PKI signature (conviction evidence)
  static auto fields(auto& m) {
    return std::tie(m.center, m.round, m.level, m.ttl, m.mode, m.value, m.evidence,
                    m.center_sig);
  }
  [[nodiscard]] static std::vector<std::uint8_t> propose_bytes(sim::NodeId center,
                                                               std::uint64_t round, int level,
                                                               VotingMode mode,
                                                               const Value& value) {
    WireWriter w;
    w.u32(center);
    w.u64(round);
    w.u32(static_cast<std::uint32_t>(level));
    w.u8(static_cast<std::uint8_t>(mode));
    w.bytes(value);
    return std::move(w).take();
  }
};

/// A participant's approval: its partial threshold signature over the agreed
/// content.
struct AckMsg final : sim::PayloadBase<AckMsg> {
  static constexpr const char* kTag = "ivs.ack";
  sim::NodeId sender{sim::kNoNode};
  sim::NodeId center{sim::kNoNode};  ///< routing target (relayed in 2-hop circles)
  std::uint64_t round{0};
  crypto::PartialSig psig;
  static auto fields(auto& m) {
    return std::tie(m.sender, m.center, m.round, m.psig.signer, m.psig.level, m.psig.data);
  }
};

/// The self-checking output of a completed round (§3): value + combined
/// threshold signature. Broadcast to the circle and embeddable (serialized)
/// in any application message for multi-hop propagation.
struct AgreedMsg final : sim::PayloadBase<AgreedMsg> {
  static constexpr const char* kTag = "ivs.agreed";
  sim::NodeId source{sim::kNoNode};
  std::uint64_t round{0};
  int level{1};
  int ttl{1};  ///< transient relay budget; NOT part of the signed content
  Value value;
  crypto::ThresholdSignature sig;
  /// The wire-frame body. ttl is transient relay state, but a frame is a
  /// snapshot in flight: the receiver must see the ttl the sender put on
  /// this hop.
  static auto fields(auto& m) {
    return std::tie(m.source, m.round, m.level, m.ttl, m.value, m.sig.level, m.sig.data);
  }
  /// The embedded form (serialize/deserialize): signed content plus the
  /// signature, without the per-hop ttl.
  static auto embedded_fields(auto& m) {
    return std::tie(m.source, m.round, m.level, m.value, m.sig.level, m.sig.data);
  }
  /// The bytes covered by the threshold signature.
  [[nodiscard]] static std::vector<std::uint8_t> signed_bytes(sim::NodeId source,
                                                              std::uint64_t round, int level,
                                                              const Value& value) {
    WireWriter w;
    w.u32(source);
    w.u64(round);
    w.u32(static_cast<std::uint32_t>(level));
    w.bytes(value);
    return std::move(w).take();
  }

  [[nodiscard]] std::vector<std::uint8_t> serialize() const {
    return to_bytes(embedded_fields(*this));
  }

  [[nodiscard]] static std::optional<AgreedMsg> deserialize(
      std::span<const std::uint8_t> bytes) {
    AgreedMsg m;
    if (!from_bytes(bytes, embedded_fields(m))) return std::nullopt;
    return m;
  }

  /// Modeled on-air size.
  [[nodiscard]] std::uint32_t wire_size() const {
    return static_cast<std::uint32_t>(20 + value.size() + sig.data.size());
  }
};

}  // namespace icc::core

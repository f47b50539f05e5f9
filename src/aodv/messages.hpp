// AODV protocol messages [2] (simplified subset, see DESIGN.md) plus the
// application data envelope routed over AODV paths.
#pragma once

#include <cstdint>
#include <optional>
#include <span>
#include <tuple>
#include <utility>
#include <vector>

#include "core/wire.hpp"
#include "sim/packet.hpp"
#include "sim/types.hpp"

namespace icc::aodv {

/// Route request, flooded network-wide by a source needing a route.
struct RreqMsg final : sim::PayloadBase<RreqMsg> {
  static constexpr const char* kTag = "aodv.rreq";
  sim::NodeId orig{sim::kNoNode};
  std::uint32_t rreq_id{0};
  std::uint32_t orig_seq{0};
  sim::NodeId dest{sim::kNoNode};
  std::uint32_t dest_seq{0};      ///< last known destination sequence number
  bool dest_seq_known{false};
  std::uint32_t hop_count{0};
  static constexpr std::uint32_t kWireSize = 24;
  static auto fields(auto& m) {
    return std::tie(m.orig, m.rreq_id, m.orig_seq, m.dest, m.dest_seq, m.dest_seq_known,
                    m.hop_count);
  }
};

/// Route reply, unicast hop-by-hop back along the reverse path. The
/// destination sequence number is what a black hole attacker inflates.
struct RrepMsg final : sim::PayloadBase<RrepMsg> {
  static constexpr const char* kTag = "aodv.rrep";
  sim::NodeId dest{sim::kNoNode};   ///< route destination (route_dst in Fig 6)
  std::uint32_t dest_seq{0};
  sim::NodeId orig{sim::kNoNode};   ///< route requester the reply travels to
  std::uint32_t hop_count{0};
  static constexpr std::uint32_t kWireSize = 20;
  static auto fields(auto& m) { return std::tie(m.dest, m.dest_seq, m.orig, m.hop_count); }

  /// Canonical byte form used as the inner-circle voting value; the chosen
  /// next hop rides along so on_agreed can identify the designated receiver.
  [[nodiscard]] static std::vector<std::uint8_t> wire_encode(const RrepMsg& rrep,
                                                             sim::NodeId next_hop) {
    return core::to_bytes(std::forward_as_tuple(fields(rrep), next_hop));
  }

  [[nodiscard]] static std::optional<std::pair<RrepMsg, sim::NodeId>> wire_decode(
      std::span<const std::uint8_t> bytes) {
    std::pair<RrepMsg, sim::NodeId> out;
    if (!core::from_bytes(bytes, std::forward_as_tuple(fields(out.first), out.second))) {
      return std::nullopt;
    }
    return out;
  }
};

/// Route error: destinations no longer reachable via the sender.
struct RerrMsg final : sim::PayloadBase<RerrMsg> {
  static constexpr const char* kTag = "aodv.rerr";
  std::vector<std::pair<sim::NodeId, std::uint32_t>> unreachable;  ///< (dest, seq)
  static auto fields(auto& m) { return std::tie(m.unreachable); }
  [[nodiscard]] std::uint32_t wire_size() const {
    return static_cast<std::uint32_t>(8 + 8 * unreachable.size());
  }
};

/// Application data carried over an AODV route. The payload itself is
/// opaque; `app_bytes` models its size and `app_uid` identifies it for
/// throughput accounting.
struct DataMsg final : sim::PayloadBase<DataMsg> {
  static constexpr const char* kTag = "aodv.data";
  std::uint64_t app_uid{0};
  std::uint32_t app_bytes{512};
  sim::Time sent_at{0.0};  ///< origination time (latency accounting only)
  static auto fields(auto& m) { return std::tie(m.app_uid, m.app_bytes, m.sent_at); }
};

}  // namespace icc::aodv

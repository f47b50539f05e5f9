// Directed-diffusion-style sink routing [14] (simplified; DESIGN.md §3).
//
// The base station periodically floods an interest; each node keeps a
// gradient towards the neighbor it first heard the lowest-hop interest from.
// Data notifications climb the gradient tree hop by hop to the sink. This
// reproduces the role diffusion plays in the paper's sensor study —
// multi-hop transport of target notifications to the base station — at the
// same hop-count and energy behaviour for a static field.
#pragma once

#include <functional>
#include <tuple>
#include <vector>

#include "net/host.hpp"
#include "sim/packet.hpp"
#include "sim/rng.hpp"

namespace icc::sensor {

/// Interest flood establishing the gradient.
struct InterestMsg final : sim::PayloadBase<InterestMsg> {
  static constexpr const char* kTag = "diff.interest";
  sim::NodeId sink{sim::kNoNode};
  std::uint32_t seq{0};
  std::uint32_t hops{0};
  static constexpr std::uint32_t kWireSize = 16;
  static auto fields(auto& m) { return std::tie(m.sink, m.seq, m.hops); }
};

/// A notification travelling up the tree. The payload is opaque bytes —
/// a raw Reading (centralized mode) or a serialized AgreedMsg (inner-circle
/// mode).
struct NotificationMsg final : sim::PayloadBase<NotificationMsg> {
  static constexpr const char* kTag = "diff.notification";
  sim::NodeId origin{sim::kNoNode};
  std::uint64_t uid{0};
  std::vector<std::uint8_t> data;
  static auto fields(auto& m) { return std::tie(m.origin, m.uid, m.data); }
  [[nodiscard]] std::uint32_t wire_size() const {
    return static_cast<std::uint32_t>(16 + data.size());
  }
};

/// Per-node diffusion agent. The node designated `sink` floods interests;
/// everyone else forwards notifications along its gradient.
class Diffusion {
 public:
  struct Params {
    sim::Time interest_period{50.0};
    sim::Time first_interest{0.5};
    sim::Time gradient_lifetime{120.0};
  };

  /// Sink-side handler for arrived notifications.
  using SinkHandler = std::function<void(const NotificationMsg&, sim::NodeId from)>;

  Diffusion(net::Host& node, sim::NodeId sink, Params params);

  /// Send opaque `data` towards the sink.
  void send_to_sink(std::vector<std::uint8_t> data);

  void set_sink_handler(SinkHandler h) { sink_handler_ = std::move(h); }

  [[nodiscard]] bool has_gradient() const;
  [[nodiscard]] sim::NodeId parent() const noexcept { return parent_; }

 private:
  void flood_interest();
  void handle_packet(const sim::Packet& packet, sim::NodeId from);
  void forward(const NotificationMsg& msg);

  net::Host& node_;
  sim::NodeId sink_;
  Params params_;
  sim::Rng rng_;
  SinkHandler sink_handler_;

  std::uint32_t interest_seq_{0};       ///< sink: next seq to flood
  std::uint32_t best_seq_{0};           ///< non-sink: freshest seq seen
  std::uint32_t best_hops_{0xFFFFFFFF};
  sim::NodeId parent_{sim::kNoNode};
  sim::Time gradient_time_{-1e18};
  std::uint64_t next_uid_{1};
};

}  // namespace icc::sensor

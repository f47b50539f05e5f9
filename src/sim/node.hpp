// A simulated wireless node: position (mobility), radio energy meter, MAC,
// and a demultiplexed stack of protocol handlers.
//
// The node also hosts the filter chains the Inner-circle Interceptor (paper
// §4, Fig 1) hooks into: outbound filters run between the network layer and
// the MAC, inbound filters run between the MAC and the protocol handlers.
#pragma once

#include <array>
#include <functional>
#include <memory>
#include <vector>

#include "net/clock.hpp"
#include "net/host.hpp"
#include "sim/energy.hpp"
#include "sim/mac.hpp"
#include "sim/metrics.hpp"
#include "sim/mobility.hpp"
#include "sim/packet.hpp"
#include "sim/types.hpp"

namespace icc::sim {

class World;

/// Historical spellings: the interceptor vocabulary now lives with the
/// Transport interface (net/transport.hpp) so both the simulated radio and
/// the UDP deployment transport share it.
using FilterVerdict = net::FilterVerdict;

class Node final : public net::Host, public net::Transport {
 public:
  /// Handler for packets delivered to a port: (packet, link-level sender).
  using Handler = net::Handler;
  /// Promiscuous listener: sees every frame this radio decodes, including
  /// traffic addressed to other nodes (watchdog-style overhearing).
  using PromiscuousListener = net::PromiscuousListener;
  using InboundFilter = net::InboundFilter;
  /// Outbound filters may inspect the packet and the chosen next hop.
  using OutboundFilter = net::OutboundFilter;

  Node(World& world, NodeId id, std::unique_ptr<Mobility> mobility, MacParams mac_params);

  [[nodiscard]] NodeId id() const noexcept override { return id_; }
  [[nodiscard]] Vec2 position() const override;
  [[nodiscard]] World& world() noexcept { return world_; }

  // net::Host implementation — the node is the protocol stack's window onto
  // its world (out of line: World is incomplete here).
  MetricsRegistry& metrics() noexcept override;
  Tracer& tracer() noexcept override;
  [[nodiscard]] Time now() const noexcept override;
  [[nodiscard]] Rng fork_rng(std::uint64_t salt) override;
  std::uint64_t next_packet_uid() noexcept override;
  std::uint64_t next_span() noexcept override;
  [[nodiscard]] std::uint64_t lineage_parent() const noexcept override;
  void set_lineage_parent(std::uint64_t span) noexcept override;
  [[nodiscard]] std::size_t num_nodes() const noexcept override;
  net::Clock& clock() noexcept override;
  net::Transport& transport() noexcept override { return *this; }

  Mac& mac() noexcept { return *mac_; }
  EnergyMeter& energy() noexcept override { return energy_; }
  [[nodiscard]] const EnergyMeter& energy() const noexcept { return energy_; }
  Mobility& mobility() noexcept { return *mobility_; }
  [[nodiscard]] const Mobility& mobility() const noexcept { return *mobility_; }

  /// Send `packet` to link neighbor `next_hop` (kBroadcast for a one-hop
  /// broadcast). Runs the outbound filter chain first.
  void link_send(Packet packet, NodeId next_hop);

  /// Bypass the outbound filters — used by the inner-circle services
  /// themselves (their own traffic must not be re-intercepted).
  void link_send_unfiltered(Packet packet, NodeId next_hop);

  // net::Transport implementation (link_send keeps its historical name for
  // simulator-internal call sites).
  void send(Packet packet, NodeId next_hop) override {
    link_send(std::move(packet), next_hop);
  }
  void send_unfiltered(Packet packet, NodeId next_hop) override {
    link_send_unfiltered(std::move(packet), next_hop);
  }

  void register_handler(Port port, Handler handler) override;
  void add_promiscuous_listener(PromiscuousListener l) override {
    promiscuous_.push_back(std::move(l));
  }
  void add_inbound_filter(InboundFilter f) override {
    inbound_filters_.push_back(std::move(f));
  }
  void add_outbound_filter(OutboundFilter f) override {
    outbound_filters_.push_back(std::move(f));
  }

  void set_send_failed_handler(Mac::SendFailedHandler h) override {
    mac_->set_send_failed_handler(std::move(h));
  }

  /// Crash-failure switch: a down node neither sends nor receives.
  void set_down(bool down) noexcept { down_ = down; }
  [[nodiscard]] bool down() const noexcept override { return down_; }

  /// MAC -> node: a decoded frame addressed to us (or broadcast).
  void frame_received(const Frame& frame);
  /// MAC -> node: a decoded frame addressed to someone else (promiscuous).
  void frame_overheard(const Frame& frame);
  [[nodiscard]] bool promiscuous() const noexcept { return !promiscuous_.empty(); }

 private:
  /// Assign a uid if missing and inherit the current lineage context as the
  /// packet's parent (idempotent; see Packet::parent).
  void stamp_lineage(Packet& packet);

  World& world_;
  NodeId id_;
  std::unique_ptr<Mobility> mobility_;
  EnergyMeter energy_;
  std::unique_ptr<Mac> mac_;
  bool down_{false};
  MetricId outbound_dropped_id_;
  MetricId inbound_dropped_id_;

  std::array<Handler, kNumPorts> handlers_{};
  std::vector<PromiscuousListener> promiscuous_;
  std::vector<InboundFilter> inbound_filters_;
  std::vector<OutboundFilter> outbound_filters_;
};

}  // namespace icc::sim

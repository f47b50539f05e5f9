// A simulated wireless node: position (mobility), radio energy meter, MAC,
// and the interceptor stack (net/stack.hpp) between its protocol handlers
// and the MAC.
#pragma once

#include <memory>
#include <utility>

#include "net/clock.hpp"
#include "net/host.hpp"
#include "net/stack.hpp"
#include "sim/energy.hpp"
#include "sim/mac.hpp"
#include "sim/metrics.hpp"
#include "sim/mobility.hpp"
#include "sim/packet.hpp"
#include "sim/types.hpp"

namespace icc::sim {

class World;

class Node final : public net::Host, public net::Transport {
 public:
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
  /// The world's lineage slot (World::lineage_slot): a node has none of
  /// its own.
  std::uint64_t& lineage_slot() noexcept;
  [[nodiscard]] std::size_t num_nodes() const noexcept override;
  net::Clock& clock() noexcept override;
  net::Transport& transport() noexcept override { return *this; }

  Mac& mac() noexcept { return *mac_; }
  EnergyMeter& energy() noexcept override { return energy_; }
  [[nodiscard]] const EnergyMeter& energy() const noexcept { return energy_; }
  Mobility& mobility() noexcept { return *mobility_; }
  [[nodiscard]] const Mobility& mobility() const noexcept { return *mobility_; }

  // net::Transport implementation.
  void send(Packet packet, NodeId next_hop) override;
  void send_unfiltered(Packet packet, NodeId next_hop) override;
  void register_handler(Port port, net::Handler handler) override {
    stack_.register_handler(port, std::move(handler));
  }
  void add_promiscuous_listener(net::PromiscuousListener l) override {
    stack_.add_promiscuous_listener(std::move(l));
  }
  void add_inbound_filter(net::InboundFilter f) override {
    stack_.add_inbound_filter(std::move(f));
  }
  void add_outbound_filter(net::OutboundFilter f) override {
    stack_.add_outbound_filter(std::move(f));
  }
  void set_send_failed_handler(net::SendFailedHandler h) override {
    mac_->set_send_failed_handler(std::move(h));
  }

  /// Crash-failure switch: a down node neither sends nor receives.
  void set_down(bool down) noexcept { down_ = down; }
  [[nodiscard]] bool down() const noexcept override { return down_; }

  /// MAC -> node: a decoded data frame, whoever it is addressed to.
  void frame_received(const Frame& frame) { stack_.receive(frame, down_); }

 private:
  World& world_;
  NodeId id_;
  std::unique_ptr<Mobility> mobility_;
  EnergyMeter energy_;
  std::unique_ptr<Mac> mac_;
  bool down_{false};
  net::Stack stack_;
};

}  // namespace icc::sim

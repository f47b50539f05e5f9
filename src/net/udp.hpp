// UDP deployment mode: one process per node, loopback sockets as the radio.
//
// The testnet emulates the simulator's single broadcast domain: every
// encoded frame is sent to every peer (as a shared-medium radio would). A
// receiver drops its own echo and hands every other frame to the same
// interceptor stack the simulated node uses (net/stack.hpp), which decides
// between delivery and promiscuous overhearing (what the watchdog lives on).
//
// UdpHost implements the same net::Host / net::Transport surface as the
// simulator's Node, so the AODV agent, the inner-circle framework, the
// watchdog, and the sensor stack run on it without modification. Time comes
// from SteadyClock, identity/lineage uids from a per-origin counter
// namespace ((id+1) << 40 | n) that never collides across processes.
#pragma once

#include <atomic>
#include <cstdint>
#include <utility>
#include <vector>

#include "net/host.hpp"
#include "net/stack.hpp"
#include "net/steady_clock.hpp"
#include "sim/metrics.hpp"
#include "sim/rng.hpp"
#include "sim/trace.hpp"

namespace icc::net {

struct UdpConfig {
  sim::NodeId id{0};
  std::size_t num_nodes{1};
  std::uint16_t base_port{47000};  ///< node i binds 127.0.0.1:base_port+i
  std::uint64_t seed{1};           ///< run seed; RNG forks derive from it
  std::int64_t epoch_unix_us{0};   ///< shared run epoch for SteadyClock
  Vec2 position{};                 ///< static position from the scenario spec
  /// Link impairment in [0, 1] (tools/icnode fills both from ICC_NET_LOSS /
  /// ICC_NET_REORDER): per-peer Bernoulli datagram loss and
  /// one-datagram-delay reordering. Loopback UDP is too perfect a radio —
  /// these let the testnet rehearse the packet weather the protocols were
  /// built for.
  double fault_loss{0.0};
  double fault_reorder{0.0};
};

class UdpHost final : public Host, public Transport {
 public:
  explicit UdpHost(UdpConfig config);
  ~UdpHost() override;
  UdpHost(const UdpHost&) = delete;
  UdpHost& operator=(const UdpHost&) = delete;

  // --- Services ---
  MetricsRegistry& metrics() noexcept override { return metrics_; }
  Tracer& tracer() noexcept override { return tracer_; }
  [[nodiscard]] Time now() const noexcept override { return clock_.now(); }
  [[nodiscard]] Rng fork_rng(std::uint64_t salt) override { return rng_.fork(salt); }
  std::uint64_t next_packet_uid() noexcept override { return next_uid_++; }
  std::uint64_t next_span() noexcept override { return next_uid_++; }
  [[nodiscard]] std::uint64_t lineage_parent() const noexcept override {
    return lineage_parent_;
  }
  void set_lineage_parent(std::uint64_t span) noexcept override { lineage_parent_ = span; }
  /// This run's one lineage slot (the daemon is its own run).
  std::uint64_t& lineage_slot() noexcept { return lineage_parent_; }
  [[nodiscard]] std::size_t num_nodes() const noexcept override { return config_.num_nodes; }

  // --- Host ---
  [[nodiscard]] sim::NodeId id() const noexcept override { return config_.id; }
  [[nodiscard]] Vec2 position() const override { return config_.position; }
  [[nodiscard]] bool down() const noexcept override { return false; }
  EnergyMeter& energy() noexcept override { return energy_; }
  Clock& clock() noexcept override { return clock_; }
  Transport& transport() noexcept override { return *this; }

  // --- Transport ---
  void send(sim::Packet packet, sim::NodeId next_hop) override;
  void send_unfiltered(sim::Packet packet, sim::NodeId next_hop) override;
  void register_handler(sim::Port port, Handler handler) override {
    stack_.register_handler(port, std::move(handler));
  }
  void add_promiscuous_listener(PromiscuousListener listener) override {
    stack_.add_promiscuous_listener(std::move(listener));
  }
  void add_inbound_filter(InboundFilter filter) override {
    stack_.add_inbound_filter(std::move(filter));
  }
  void add_outbound_filter(OutboundFilter filter) override {
    stack_.add_outbound_filter(std::move(filter));
  }
  /// Loopback UDP has no per-frame acks, so no send ever reports a failure.
  void set_send_failed_handler(SendFailedHandler /*handler*/) override {}

  // --- run loop ---
  /// Poll sockets and fire timers until the clock passes `until` or
  /// request_stop() is called. Returns the clock value at exit.
  Time run_until(Time until);
  /// Stop the run loop at the next iteration. Safe to call from a signal
  /// handler (single relaxed atomic store).
  void request_stop() noexcept { stop_.store(true, std::memory_order_relaxed); }
  [[nodiscard]] bool stop_requested() const noexcept {
    return stop_.load(std::memory_order_relaxed);
  }

 private:
  void broadcast_bytes(const std::vector<std::uint8_t>& bytes);
  /// sendto with bounded exponential backoff on transient errors (EAGAIN /
  /// ENOBUFS / EINTR): a full socket buffer under load must not silently
  /// erase a frame the way the old fire-and-forget sendto did.
  void send_datagram(std::size_t peer, const std::vector<std::uint8_t>& bytes);
  void drain_socket();
  void dispatch(const sim::Frame& frame);

  UdpConfig config_;
  SteadyClock clock_;
  sim::MetricsRegistry metrics_;
  sim::Tracer tracer_;
  sim::Rng rng_;
  EnergyMeter energy_;
  std::uint64_t next_uid_;
  std::uint64_t lineage_parent_{0};

  int fd_{-1};
  std::vector<std::uint8_t> tx_scratch_;
  std::vector<std::uint8_t> rx_scratch_;

  // Impairment state. The fault RNG is forked from the host stream only when
  // a knob is nonzero, so impairment-free runs keep the exact RNG genealogy
  // (and therefore byte-identical traces) they had before the knobs existed.
  sim::Rng fault_rng_{0};
  std::vector<std::uint8_t> held_datagram_;  ///< one-slot reorder buffer
  std::size_t held_peer_{0};
  bool holding_{false};

  std::atomic<bool> stop_{false};

  Stack stack_;
  sim::MetricId tx_frames_id_;
  sim::MetricId rx_frames_id_;
  sim::MetricId rx_rejected_id_;
};

}  // namespace icc::net

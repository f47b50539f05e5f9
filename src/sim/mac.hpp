// Simplified IEEE 802.11 DCF MAC.
//
// Models the mechanisms that shape the paper's results — carrier sensing,
// random backoff with exponential contention-window growth, collisions,
// unicast acknowledgements with retransmission, and per-frame airtime/energy
// — without the full DCF state machine (no RTS/CTS, no NAV). See DESIGN.md §3.
#pragma once

#include <cstdint>
#include <deque>
#include <vector>

#include "net/transport.hpp"
#include "sim/frame.hpp"
#include "sim/rng.hpp"
#include "sim/scheduler.hpp"
#include "sim/types.hpp"

namespace icc::sim {

class Node;
class World;

struct MacParams {
  double bitrate{2e6};        ///< 2 Mb/s, the classic ns-2 default
  double slot{20e-6};
  double sifs{10e-6};
  double difs{50e-6};
  double preamble{192e-6};    ///< PHY preamble + PLCP header at 1 Mb/s
  std::uint32_t header_bytes{34};  ///< MAC framing added to each packet
  std::uint32_t ack_bytes{14};
  int cw_min{31};
  int cw_max{1023};
  int retry_limit{4};
};

/// Per-node MAC entity. Owns the transmit queue and the reception state.
class Mac {
 public:
  Mac(World& world, Node& node, MacParams params);

  /// Queue a packet for transmission to link neighbor `next_hop`
  /// (kBroadcast for one-hop broadcast).
  void enqueue(Packet packet, NodeId next_hop);

  /// Medium -> MAC: a frame starts arriving; `duration` is its airtime and
  /// `corrupted` marks payload damage injected on the way (CRC failure at
  /// the end). Returns whether an end_reception is owed at now + duration:
  /// false when the node is down or transmitting.
  [[nodiscard]] bool begin_reception(const Frame& frame, double duration, bool corrupted);

  /// Medium -> MAC: the reception begin_reception recorded for `frame` ends
  /// now; hands the frame up unless it was corrupted on the way.
  void end_reception(const Frame& frame);

  /// Invoked when a unicast frame exhausted its retries.
  void set_send_failed_handler(net::SendFailedHandler h) { on_send_failed_ = std::move(h); }

  /// On-air duration for a payload of `bytes` (MAC header added here).
  [[nodiscard]] double frame_airtime(std::uint32_t bytes) const noexcept {
    return params_.preamble +
           static_cast<double>(bytes + params_.header_bytes) * 8.0 / params_.bitrate;
  }

  [[nodiscard]] bool transmitting(Time now) const noexcept { return tx_until_ > now; }
  [[nodiscard]] std::size_t queue_depth() const noexcept { return queue_.size(); }
  [[nodiscard]] std::uint64_t unicast_failures() const noexcept { return unicast_failures_; }

 private:
  struct Reception {
    NodeId tx{kNoNode};
    std::uint64_t frame_id{0};
    Time end{0.0};
    bool corrupted{false};
  };

  void kick();                    ///< start an attempt if idle and queue nonempty
  void schedule_attempt();        ///< DIFS + random backoff, then try_transmit
  void try_transmit();
  void transmit_current();
  void on_tx_done();              ///< the head-of-queue frame left the air
  void finish_current(bool success);
  void on_ack_timeout();
  void handle_frame_arrival(const Frame& frame);
  void send_ack(const Frame& data_frame);

  World& world_;
  Node& node_;
  MacParams params_;
  Rng rng_;

  std::deque<Frame> queue_;
  bool in_progress_{false};  ///< head-of-queue frame currently being attempted
  int retries_{0};
  int cw_{31};
  Scheduler::EventId attempt_event_{Scheduler::kNoEvent};
  Scheduler::EventId ack_timeout_event_{Scheduler::kNoEvent};
  std::uint64_t awaiting_ack_id_{0};

  Time tx_until_{-1.0};
  std::vector<Reception> receptions_;
  std::uint64_t next_frame_id_{1};
  std::uint64_t unicast_failures_{0};

  net::SendFailedHandler on_send_failed_;
};

}  // namespace icc::sim

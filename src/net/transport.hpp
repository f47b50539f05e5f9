// Pluggable link transport: how the protocol stack sends and receives.
//
// The interface mirrors a one-hop broadcast radio: send to a link neighbor
// (or kBroadcast), receive demultiplexed by Port, optionally overhear
// frames addressed to other nodes (watchdog-style promiscuous mode). It
// also hosts the filter chains the Inner-circle Interceptor (paper §4,
// Fig 1) hooks into: outbound filters run before the frame leaves, inbound
// filters run before a received packet reaches its handler.
//
// Implementations: the simulated radio node (sim/node.hpp) and the UDP
// shared-medium emulation (net/udp.hpp). Both keep only their link code and
// delegate the filters, handlers and listeners to one net::Stack
// (net/stack.hpp).
#pragma once

#include <functional>

#include "sim/frame.hpp"
#include "sim/packet.hpp"
#include "sim/types.hpp"

namespace icc::net {

// Vocabulary types shared with the simulator. sim/{types,packet,frame}.hpp
// are plain value types with no scheduler or medium dependencies; they are
// the wire-level nouns of the whole system, not simulator internals.
using sim::Frame;
using sim::kBroadcast;
using sim::kNoNode;
using sim::NodeId;
using sim::Packet;
using sim::Port;

/// Result of running a packet through an interceptor filter.
enum class FilterVerdict {
  kPass,      ///< continue down/up the stack
  kDrop,      ///< silently discard (e.g., suspected sender, bad signature)
  kConsumed,  ///< the filter took over delivery (e.g., redirected to voting)
};

/// Handler for packets delivered to a port: (packet, link-level sender).
using Handler = std::function<void(const Packet&, NodeId from)>;
/// Promiscuous listener: sees every frame this radio decodes, including
/// traffic addressed to other nodes (watchdog-style overhearing).
using PromiscuousListener = std::function<void(const Frame& frame)>;
using InboundFilter = std::function<FilterVerdict(const Packet&, NodeId from)>;
/// Outbound filters may inspect the packet and the chosen next hop.
using OutboundFilter = std::function<FilterVerdict(const Packet&, NodeId next_hop)>;
/// Invoked when the link layer gives up delivering to a next hop.
using SendFailedHandler = std::function<void(const Packet&, NodeId next_hop)>;

class Transport {
 public:
  virtual ~Transport() = default;

  /// Send `packet` to link neighbor `next_hop` (kBroadcast for a one-hop
  /// broadcast). Runs the outbound filter chain first.
  virtual void send(Packet packet, NodeId next_hop) = 0;

  /// Bypass the outbound filters — used by the inner-circle services
  /// themselves (their own traffic must not be re-intercepted).
  virtual void send_unfiltered(Packet packet, NodeId next_hop) = 0;

  virtual void register_handler(Port port, Handler handler) = 0;
  virtual void add_promiscuous_listener(PromiscuousListener l) = 0;
  virtual void add_inbound_filter(InboundFilter f) = 0;
  virtual void add_outbound_filter(OutboundFilter f) = 0;
  virtual void set_send_failed_handler(SendFailedHandler h) = 0;
};

}  // namespace icc::net

// The interceptor stack: everything a host does between the protocol stack
// and its link.
//
// The Inner-circle Interceptor (paper §4, Fig 1) hooks in here: outbound
// filters run between the network layer and the link, inbound filters run
// between the link and the port handlers. The stack also stamps packet
// lineage, counts and traces filter drops, and feeds promiscuous listeners
// (the watchdog's overhearing). The simulated node (sim/node.hpp) and the
// UDP host (net/udp.hpp) each own one and keep only their link code, so
// both run the same interception, dispatch and lineage rules.
#pragma once

#include <array>
#include <cstddef>
#include <cstdint>
#include <utility>
#include <vector>

#include "net/host.hpp"
#include "net/transport.hpp"
#include "sim/metrics.hpp"
#include "sim/trace.hpp"

namespace icc::net {

class Stack {
 public:
  /// `services` is the run the host belongs to: the World for a simulated
  /// node, the host itself in deployment mode. `lineage` is that run's
  /// lineage slot (its lineage_slot()), read and scoped without a virtual
  /// call on every packet.
  Stack(Services& services, std::uint64_t& lineage, NodeId id)
      : services_{services},
        lineage_{lineage},
        tracer_{services.tracer()},
        id_{id},
        outbound_dropped_id_{services.metrics().counter_id("node.outbound_dropped")},
        inbound_dropped_id_{services.metrics().counter_id("node.inbound_dropped")} {}

  void register_handler(Port port, Handler handler) {
    handlers_.at(static_cast<std::size_t>(port)) = std::move(handler);
  }
  void add_promiscuous_listener(PromiscuousListener l) { promiscuous_.push_back(std::move(l)); }
  void add_inbound_filter(InboundFilter f) { inbound_filters_.push_back(std::move(f)); }
  void add_outbound_filter(OutboundFilter f) { outbound_filters_.push_back(std::move(f)); }

  /// Assign a uid if missing and inherit the current lineage context as the
  /// packet's parent (idempotent; see Packet::parent). A forwarded packet
  /// keeps its original parent; inside its own reception scope the context
  /// equals its uid, which must not become a self-loop.
  void stamp(Packet& packet) {
    if (packet.uid == 0) packet.uid = services_.next_packet_uid();
    if (packet.parent != 0) return;
    if (lineage_ != packet.uid) packet.parent = lineage_;
  }

  /// Stamp `packet`, then run the outbound filters. Stamping comes first so
  /// observers (watchdog, voting interception) see the uid and parent the
  /// packet will carry on the link. True: hand the packet to the link.
  [[nodiscard]] bool admit(Packet& packet, NodeId next_hop) {
    stamp(packet);
    for (const OutboundFilter& filter : outbound_filters_) {
      switch (filter(packet, next_hop)) {
        case FilterVerdict::kPass:
          break;
        case FilterVerdict::kDrop:
          drop(packet, next_hop, outbound_dropped_id_, "outbound_filter");
          return false;
        case FilterVerdict::kConsumed:
          return false;
      }
    }
    return true;
  }

  /// A decoded data frame. Addressed elsewhere: promiscuous listeners only.
  /// Addressed here or broadcast: trace the reception, then run the inbound
  /// filters and the port handler inside the packet's lineage scope, so
  /// anything they originate is causally downstream of it. A down host
  /// still traces the reception but runs no filter, handler or listener.
  void receive(const Frame& frame, bool down) {
    if (frame.rx != id_ && frame.rx != kBroadcast) {
      if (down) return;
      for (const PromiscuousListener& listener : promiscuous_) listener(frame);
      return;
    }
    const Packet& packet = frame.packet;
    // Guarded: reading the clock through Services costs a virtual call on
    // every reception.
    if (tracer_.enabled(sim::TraceType::kPacketRx)) {
      tracer_.emit({services_.now(), sim::TraceType::kPacketRx, id_, frame.tx, packet.uid,
                    packet.size_bytes, 0.0, nullptr, packet.uid, packet.parent});
    }
    if (down) return;
    LineageScope lineage{lineage_, packet.uid};
    for (const InboundFilter& filter : inbound_filters_) {
      switch (filter(packet, frame.tx)) {
        case FilterVerdict::kPass:
          break;
        case FilterVerdict::kDrop:
          drop(packet, frame.tx, inbound_dropped_id_, "inbound_filter");
          return;
        case FilterVerdict::kConsumed:
          return;
      }
    }
    const Handler& handler = handlers_.at(static_cast<std::size_t>(packet.port));
    if (handler) handler(packet, frame.tx);
  }

 private:
  void drop(const Packet& packet, NodeId peer, sim::MetricId counter, const char* reason) {
    services_.metrics().add(counter);
    tracer_.emit({services_.now(), sim::TraceType::kPacketDrop, id_, peer, packet.uid,
                  packet.size_bytes, 0.0, reason, packet.uid, packet.parent});
  }

  Services& services_;
  std::uint64_t& lineage_;
  sim::Tracer& tracer_;  ///< services_.tracer(), which outlives the stack
  NodeId id_;
  sim::MetricId outbound_dropped_id_;
  sim::MetricId inbound_dropped_id_;
  std::array<Handler, sim::kNumPorts> handlers_{};
  std::vector<PromiscuousListener> promiscuous_;
  std::vector<InboundFilter> inbound_filters_;
  std::vector<OutboundFilter> outbound_filters_;
};

}  // namespace icc::net

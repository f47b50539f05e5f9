// The run-scoped services and per-node facade the protocol stack lives on.
//
// Services is everything a protocol object may ask of "the run" it belongs
// to: metrics, tracing, time, deterministic RNG forks, the packet-uid /
// lineage-span counter, and the lineage context. Host adds the per-node
// view: identity, (static or current) position, liveness, and the node's
// Clock and Transport. The simulator's World/Node implement these; the UDP
// deployment mode implements them over real sockets and a steady clock
// (net/udp.hpp). Protocol code written against Host runs unmodified in
// both worlds — that is the whole point.
#pragma once

#include <cstddef>
#include <cstdint>

#include "net/clock.hpp"
#include "net/transport.hpp"
#include "sim/energy.hpp"
#include "sim/metrics.hpp"
#include "sim/rng.hpp"
#include "sim/trace.hpp"
#include "sim/vec2.hpp"

namespace icc::net {

using sim::EnergyMeter;
using sim::MetricsRegistry;
using sim::Rng;
using sim::Tracer;
using sim::Vec2;
// exists for perfbench, goes with the next benchmark change
using Stats = sim::MetricsRegistry;

/// Run-scoped services shared by every node of one run (one simulated world,
/// or one daemon process in deployment mode).
class Services {
 public:
  virtual ~Services() = default;

  /// The run's metrics: cold sites update by name, per-packet sites by an
  /// interned id.
  virtual MetricsRegistry& metrics() noexcept = 0;
  // exists for perfbench, goes with the next benchmark change
  virtual MetricsRegistry& stats() noexcept { return metrics(); }
  /// Structured event tracing.
  virtual Tracer& tracer() noexcept = 0;

  [[nodiscard]] virtual Time now() const noexcept = 0;

  /// Independent RNG stream; `salt` should identify the consumer.
  [[nodiscard]] virtual Rng fork_rng(std::uint64_t salt) = 0;

  virtual std::uint64_t next_packet_uid() noexcept = 0;

  /// Lineage span ids share the packet-uid namespace (a packet's span IS its
  /// uid), so non-packet causes — watchdog accusations, voting rounds, fault
  /// injections — get ids that never collide with packet uids. Spans are
  /// burned unconditionally (never gated on tracing being enabled) so the id
  /// stream is identical whether or not anyone is watching.
  virtual std::uint64_t next_span() noexcept = 0;

  /// The span of the event being causally processed right now — the uid of
  /// the packet whose reception is being handled, or a cause explicitly
  /// scoped by protocol code (LineageScope). Packets originated inside the
  /// scope inherit it as their parent automatically. 0 = no known cause.
  [[nodiscard]] virtual std::uint64_t lineage_parent() const noexcept = 0;
  virtual void set_lineage_parent(std::uint64_t span) noexcept = 0;

  /// Number of nodes participating in the run (the deployment mode learns
  /// this from its scenario spec).
  [[nodiscard]] virtual std::size_t num_nodes() const noexcept = 0;
};

/// A protocol object's view of the node it runs on.
class Host : public Services {
 public:
  [[nodiscard]] virtual NodeId id() const noexcept = 0;

  /// Physical position of this node. Simulated nodes evaluate their
  /// mobility model; deployment-mode nodes report the static position from
  /// their scenario spec.
  [[nodiscard]] virtual Vec2 position() const = 0;

  /// Crash-failure switch: a down node neither sends nor receives.
  [[nodiscard]] virtual bool down() const noexcept = 0;

  /// Energy accounting: the radio meter plus non-radio charges (crypto ops).
  virtual EnergyMeter& energy() noexcept = 0;

  virtual Clock& clock() noexcept = 0;
  virtual Transport& transport() noexcept = 0;
};

/// RAII lineage context: packets originated while the scope is alive inherit
/// `span` as their parent (unless protocol code already set one). Used where
/// causality crosses a scheduling boundary — a buffered data packet
/// triggering a discovery, a jittered RREQ re-flood, a delayed vote reply —
/// and by net::Stack around each delivered packet.
class LineageScope {
 public:
  /// Scopes the run's one lineage slot directly, with no virtual call: the
  /// World, a sim::Node (its world's slot) and a UdpHost hand it out with
  /// lineage_slot().
  LineageScope(std::uint64_t& slot, std::uint64_t span) noexcept : slot_{&slot}, prev_{slot} {
    slot = span;
  }
  /// Scopes through the Services interface, for protocol code that holds
  /// only a Host.
  LineageScope(Services& services, std::uint64_t span) noexcept
      : services_{&services}, prev_{services.lineage_parent()} {
    services.set_lineage_parent(span);
  }
  ~LineageScope() {
    if (slot_ != nullptr) {
      *slot_ = prev_;
    } else {
      services_->set_lineage_parent(prev_);
    }
  }
  LineageScope(const LineageScope&) = delete;
  LineageScope& operator=(const LineageScope&) = delete;

 private:
  std::uint64_t* slot_{nullptr};
  Services* services_{nullptr};
  std::uint64_t prev_;
};

}  // namespace icc::net

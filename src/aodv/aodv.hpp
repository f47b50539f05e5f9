// Ad hoc On-demand Distance Vector routing [2].
//
// Implements the subset the paper's evaluation exercises: on-demand route
// discovery (RREQ flooding with duplicate suppression and retries),
// destination-generated RREPs with sequence numbers, hop-by-hop reverse-path
// RREP forwarding, route expiry/refresh, data forwarding with source-side
// buffering during discovery, and RERR-based invalidation on link failures
// (driven by MAC-level transmission-failure feedback).
//
// Intermediate-node RREPs ("gratuitous" replies from nodes with cached
// routes) are off by default — the destination-only flag — which the
// inner-circle guard assumes (see guard.hpp and DESIGN.md).
#pragma once

#include <deque>
#include <functional>
#include <map>
#include <optional>

#include "aodv/flat_table.hpp"
#include "aodv/messages.hpp"
#include "net/host.hpp"
#include "sim/metrics.hpp"
#include "sim/rng.hpp"

namespace icc::aodv {

class Aodv {
 public:
  struct Params {
    sim::Time active_route_timeout{10.0};
    sim::Time rreq_retry_interval{1.0};
    int rreq_retries{2};
    sim::Time seen_cache_timeout{5.0};
    std::size_t buffer_capacity{64};
    bool send_rerr{true};
    /// Destination-only flag ('D' in the AODV spec): when false,
    /// intermediate nodes holding a fresh-enough cached route answer RREQs
    /// themselves. The inner-circle guard covers both cases — an
    /// intermediate replier passes the Fig 6 check only if it is already a
    /// recorded forwarder for (dest, dest_seq).
    bool dest_only{true};
  };

  /// Handler invoked when a data packet addressed to this node arrives.
  using DeliverHandler = std::function<void(const DataMsg& data, sim::NodeId src)>;

  Aodv(net::Host& node, Params params);
  virtual ~Aodv() = default;

  /// Application entry point: route `data` to `dest`, discovering a route
  /// first if necessary.
  void send_data(sim::NodeId dest, DataMsg data);

  void set_deliver_handler(DeliverHandler h) { deliver_ = std::move(h); }

  /// Inject a RREP as if received from `from` — used by the inner-circle
  /// guard to hand over the RREP carried inside a verified agreed message.
  void inject_rrep(const RrepMsg& rrep, sim::NodeId from) { handle_rrep(rrep, from); }

  [[nodiscard]] net::Host& node() noexcept { return node_; }
  [[nodiscard]] std::uint32_t own_seq() const noexcept { return own_seq_; }

  /// Whether a valid route to `dest` currently exists (tests).
  [[nodiscard]] bool has_route(sim::NodeId dest) const;
  [[nodiscard]] sim::NodeId next_hop_to(sim::NodeId dest) const;

  /// Last sequence number this node has recorded for `dest`, if any —
  /// the guard's AODVSEC check compares an incoming RREP's claim against it.
  [[nodiscard]] std::optional<std::uint32_t> known_dest_seq(sim::NodeId dest) const;

  /// Invalidate every route whose next hop is `via` (used by the watchdog's
  /// pathrater and available to other link-quality monitors).
  void invalidate_routes_via(sim::NodeId via);

 protected:
  // Fields ordered widest first: 24 bytes, so a route-table slot is 32.
  struct RouteEntry {
    sim::Time expires{0.0};
    sim::NodeId next_hop{sim::kNoNode};
    std::uint32_t hop_count{0};
    std::uint32_t dest_seq{0};
    bool seq_known{false};
    bool valid{false};
  };

  // Virtual so attacker variants (misbehavior.hpp) can subvert exactly the
  // steps a compromised implementation would.
  virtual void handle_rreq(const RreqMsg& rreq, sim::NodeId from);
  virtual void handle_rrep(const RrepMsg& rrep, sim::NodeId from);
  virtual void handle_rerr(const RerrMsg& rerr, sim::NodeId from);
  virtual void forward_data(const sim::Packet& packet, const DataMsg& data);

  void handle_packet(const sim::Packet& packet, sim::NodeId from);
  void update_route(sim::NodeId dest, sim::NodeId next_hop, std::uint32_t hop_count,
                    std::uint32_t seq, bool seq_known);
  void send_rrep_towards(const RrepMsg& rrep);  ///< unicast along reverse path
  void start_discovery(sim::NodeId dest);
  void retry_discovery(sim::NodeId dest);
  void flush_buffer(sim::NodeId dest);
  void drop_buffered(sim::NodeId dest);
  /// A fresh RREQ for `dest` under a new own sequence number, marked seen
  /// and flooded: every discovery attempt, first or retry.
  void originate_rreq(sim::NodeId dest);
  void broadcast_rreq(const RreqMsg& rreq);
  void broadcast_rerr(RerrMsg rerr);
  void send_data_packet(sim::Packet packet, sim::NodeId next_hop);
  void on_link_failure(const sim::Packet& packet, sim::NodeId next_hop);
  void schedule_seen_cache_cleanup();
  [[nodiscard]] sim::Time now() const;

  net::Host& node_;
  Params params_;
  sim::Rng rng_;
  DeliverHandler deliver_;

  // Interned ids for the data-plane counters hit on every packet.
  sim::MetricId m_data_originated_;
  sim::MetricId m_data_forwarded_;
  sim::MetricId m_data_delivered_;
  sim::MetricId m_data_dropped_no_route_;
  sim::MetricId m_rreq_sent_;
  sim::MetricId m_rrep_sent_;

  /// The seen-cache key of a RREQ: (orig, rreq_id) packed into 64 bits.
  [[nodiscard]] static std::uint64_t rreq_key(const RreqMsg& rreq) noexcept {
    return (std::uint64_t{rreq.orig} << 32) | rreq.rreq_id;
  }

  std::uint32_t own_seq_{1};
  std::uint32_t next_rreq_id_{1};
  // Route entries are invalidated, never erased. on_link_failure walks the
  // table to assemble RERR payloads, so walk order reaches packet contents:
  // the table's only walk is in ascending NodeId order, never slot layout,
  // keeping the wire bytes a pure function of protocol state (DESIGN.md §9).
  FlatTable<sim::NodeId, RouteEntry> routes_;
  FlatTable<std::uint64_t> seen_rreqs_;  ///< rreq_key of every RREQ handled

  struct PendingDiscovery {
    int attempts{0};
    net::TimerId retry_event{net::kNoTimer};
    std::deque<sim::Packet> buffered;
  };
  // Keyed access only, and touched once per discovery by originators alone,
  // so it stays a std::map: a flat table would buy nothing here, and the
  // map's order keeps any future sweep (e.g. buffer-expiry reporting) off
  // hash layout.
  std::map<sim::NodeId, PendingDiscovery> pending_;
};

}  // namespace icc::aodv

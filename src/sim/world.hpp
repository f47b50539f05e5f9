// The simulation world: scheduler + medium + nodes + deterministic RNG
// streams + run-level statistics. Equivalent in role to an ns-2 Simulator
// instance.
#pragma once

#include <cstdint>
#include <memory>
#include <vector>

#include "net/host.hpp"
#include "sim/energy.hpp"
#include "sim/grid.hpp"
#include "sim/mac.hpp"
#include "sim/medium.hpp"
#include "sim/metrics.hpp"
#include "sim/node.hpp"
#include "sim/rng.hpp"
#include "sim/scheduler.hpp"
#include "sim/trace.hpp"
#include "sim/types.hpp"

namespace icc::sim {

struct WorldConfig {
  double width{1000.0};
  double height{1000.0};
  double tx_range{250.0};
  /// Carrier-sense range as a multiple of tx_range (ns-2 default ≈ 2.2).
  double cs_range_factor{2.2};
  MacParams mac{};
  EnergyParams energy{};
  std::uint64_t seed{1};
  /// Answer radio neighbor queries from the uniform-grid spatial index
  /// (sim/grid.hpp) instead of a brute-force all-nodes scan. Results are
  /// bit-for-bit identical either way (the grid applies the same exact
  /// distance predicate in the same NodeId order); the flag exists so
  /// equivalence tests can use the scan as an oracle. Carrier sense always
  /// reads the medium's position-sharded air table.
  bool spatial_grid{true};
  int sim_threads{0};  ///< unread; exists for perfbench, goes with the next benchmark change
};

class World final : public net::Services {
 public:
  explicit World(WorldConfig config);

  // Non-copyable, non-movable: nodes hold references into the world.
  World(const World&) = delete;
  World& operator=(const World&) = delete;

  /// Create a node with the given mobility model; ids are dense from 0.
  Node& add_node(std::unique_ptr<Mobility> mobility);

  [[nodiscard]] Node& node(NodeId id) { return *nodes_.at(id); }
  [[nodiscard]] const Node& node(NodeId id) const { return *nodes_.at(id); }
  [[nodiscard]] std::size_t num_nodes() const noexcept override { return nodes_.size(); }

  Scheduler& sched() noexcept { return sched_; }
  Medium& medium() noexcept { return medium_; }
  MetricsRegistry& metrics() noexcept override { return metrics_; }
  [[nodiscard]] const MetricsRegistry& metrics() const noexcept { return metrics_; }
  /// Structured event tracing (configured from ICC_TRACE at construction).
  Tracer& tracer() noexcept override { return tracer_; }
  [[nodiscard]] const Tracer& tracer() const noexcept { return tracer_; }
  [[nodiscard]] const WorldConfig& config() const noexcept { return config_; }

  [[nodiscard]] Time now() const noexcept override { return sched_.now(); }
  /// Run the simulation to `end`.
  void run_until(Time end) { sched_.run_until(end); }

  /// Echoes config().sim_threads; exists for perfbench, goes with the next benchmark change.
  [[nodiscard]] int exec_threads() const noexcept { return config_.sim_threads; }

  /// Independent RNG stream; `salt` should identify the consumer.
  [[nodiscard]] Rng fork_rng(std::uint64_t salt) override { return rng_.fork(salt); }
  Rng& rng() noexcept { return rng_; }

  std::uint64_t next_packet_uid() noexcept override { return next_uid_++; }

  /// Lineage span ids share the packet-uid namespace (a packet's span IS its
  /// uid), so non-packet causes — watchdog accusations, voting rounds, fault
  /// injections — get ids that never collide with packet uids. Spans are
  /// burned unconditionally (never gated on tracing being enabled) so the id
  /// stream is identical whether or not anyone is watching.
  std::uint64_t next_span() noexcept override { return next_packet_uid(); }

  /// The span of the event being causally processed right now — the uid of
  /// the packet whose reception is being handled (set by net::Stack::
  /// receive), or a cause explicitly scoped by protocol code
  /// (LineageScope). Packets originated inside the scope inherit it as
  /// their parent automatically. 0 = no known cause (timer-driven work).
  [[nodiscard]] std::uint64_t lineage_parent() const noexcept override {
    return lineage_parent_;
  }
  void set_lineage_parent(std::uint64_t span) noexcept override { lineage_parent_ = span; }
  /// The run's one lineage slot, for net::LineageScope and net::Stack to
  /// use without a virtual call; every node's lineage_slot() is this one.
  std::uint64_t& lineage_slot() noexcept { return lineage_parent_; }

  /// Optional hook applied to every packet as it enters the link layer
  /// (Node::send_unfiltered, after lineage stamping, before the MAC).
  /// Used by net::attach_sim_codec to round-trip every transmitted packet
  /// through the wire codec, proving sim/wire parity; unset (the default)
  /// costs one branch per send. The hook must be deterministic and must
  /// return a packet equivalent to its input for protocol behavior to be
  /// preserved.
  using PacketTransform = std::function<Packet(Packet&&, NodeId tx, NodeId rx)>;
  void set_packet_transform(PacketTransform t) { packet_transform_ = std::move(t); }
  [[nodiscard]] const PacketTransform& packet_transform() const noexcept {
    return packet_transform_;
  }

  /// Ground-truth one-hop neighbors (within tx_range) of `id` right now, in
  /// ascending NodeId order. Used by tests and by the dealer for oracle
  /// checks — never by protocol code, which must rely on the Secure
  /// Topology Service. `live_only` (the default, and the historical
  /// behavior) excludes crashed nodes — a down() radio is a physical
  /// neighbor but not a reachable one; pass false to get every node in
  /// range regardless of up/down state (e.g. to reason about where a
  /// crashed node sits in the topology).
  [[nodiscard]] std::vector<NodeId> true_neighbors(NodeId id, bool live_only = true) const;

  /// Append to `out` every node (up or down, including any node at `center`
  /// itself) whose current position is within `radius` of `center`, in
  /// ascending NodeId order. Served by the spatial index when
  /// config().spatial_grid is set, by a brute-force scan otherwise —
  /// byte-identical results either way. `out` is cleared first.
  void nodes_within(Vec2 center, double radius, std::vector<NodeId>& out) const;

  /// Monotone counter identifying the current "position regime". The
  /// spatial index rebuilds when it changes. World bumps it when nodes are
  /// added; code that moves nodes outside their Mobility contract (e.g. a
  /// test double teleporting mid-run or tightening max_speed) must call
  /// bump_position_epoch() itself.
  [[nodiscard]] std::uint64_t position_epoch() const noexcept { return position_epoch_; }
  void bump_position_epoch() noexcept { ++position_epoch_; }

  /// Average per-node energy, in joules, consumed so far.
  [[nodiscard]] double mean_energy_joules() const;

 private:
  /// Periodic health sampler (ICC_TRACE_HEALTH): emits queue depth, executed
  /// events, air-table occupancy and energy as health-category trace events.
  /// Self-rescheduling, so it is armed only when the env knob asks for it.
  void health_sample();
  WorldConfig config_;
  Scheduler sched_;
  Medium medium_;
  Rng rng_;
  MetricsRegistry metrics_;
  Tracer tracer_;
  std::vector<std::unique_ptr<Node>> nodes_;
  PacketTransform packet_transform_;
  std::uint64_t next_uid_{1};
  std::uint64_t lineage_parent_{0};
  std::uint64_t position_epoch_{1};
  Time health_interval_{0.0};
  bool health_per_node_{false};
  std::uint64_t health_last_executed_{0};
  /// Lazily maintained cache over node positions; mutable because refreshing
  /// it is logically const (queries through it are pure reads of the world).
  mutable SpatialGrid grid_;
};

/// RAII lineage context; the implementation lives with the Services
/// interface (net/host.hpp) so protocol code scopes lineage identically in
/// the simulator and in deployment mode.
using LineageScope = net::LineageScope;

}  // namespace icc::sim

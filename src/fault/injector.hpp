// The injection engine: turns the channel, node, and wormhole specs of a
// FaultPlan into live hooks on a world.
//
//   ChannelFault  -> Medium delivery filter (per-receiver loss / burst loss /
//                    payload corruption / budgeted adversarial noise),
//                    drawing from one dedicated Rng stream forked off the
//                    world seed
//   NodeFault     -> scheduled crash/recover edges on Node::set_down, plus a
//                    Scheduler timer warp stretching protocol timers while a
//                    slow-timer window is active
//   WormholeFault -> delivery-filter tap at either endpoint plus a scheduled
//                    out-of-band replay at the far endpoint: frames an
//                    endpoint hears reappear latency_s later around its
//                    colluder, so distant nodes look like one-hop neighbors.
//                    The replay radio is out-of-band by construction — it
//                    hands frames straight to the victims' MACs without
//                    occupying the shared air table, exactly the private
//                    channel the attack presumes.
//
// Protocol and sensor specs are *not* the engine's job: insider misbehavior
// needs protocol context (MisbehaviorAodv consumes ProtocolFault specs) and
// sensor faults live in the measurement path (SensorApp consumes
// SensorFault specs). Experiments hand the same plan to all three, so one
// FaultPlan describes the whole adversary.
//
// The constructor refuses an invalid plan (FaultPlan::validate) with a
// printed message and an abort: a malformed plan must die at setup, not
// corrupt a run.
//
// Determinism: the engine forks exactly one RNG stream, and only when the
// plan has channel specs; wormholes draw no randomness at all, and a plan
// without channel/node/wormhole faults installs no hooks. Running with an
// empty plan is therefore bit-identical to not constructing an engine.
//
// Ledger semantics (see ledger.hpp):
//   lost frame        injected(channel @ receiver); detected(channel @
//                     sender) when the frame was unicast — the ack machinery
//                     notices, retries, and eventually reports the failure —
//                     while a lost broadcast escapes silently
//   corrupted frame   injected + detected (channel @ receiver): the CRC
//                     catches it at the end of the reception, always —
//                     adversarial noise books the same way, plus the
//                     fault.kind.noise counter and a budget-used gauge
//   crash edge        injected(node); detection comes from the protocols
//                     (AODV link-failure handling) when traffic notices
//   slow-timer edge   injected(node); granularity is the world's protocol
//                     timers (the scheduler does not know which node an
//                     event belongs to), attribution is to the spec's node
//   tunneled frame    injected(protocol @ capturing endpoint); detected when
//                     the geographic leash (options.geo_leash) rejects the
//                     replay — otherwise the tunnel escapes unless a
//                     downstream defense catches its consequences
#pragma once

#include <vector>

#include "fault/plan.hpp"
#include "sim/medium.hpp"
#include "sim/metrics.hpp"
#include "sim/rng.hpp"
#include "sim/types.hpp"
#include "sim/vec2.hpp"

namespace icc::sim {
class World;
}  // namespace icc::sim

namespace icc::fault {

/// Defense toggles that live in the injection layer (everything protocol-
/// level lives with the protocols). geo_leash arms the geographic packet
/// leash against wormhole replays: a receiver rejects frames whose claimed
/// transmitter is too far away to be physically audible.
struct InjectionOptions {
  bool geo_leash{false};
};

class InjectionEngine {
 public:
  /// Installs hooks for `plan` on `world`. Construct after every node has
  /// been added (node and wormhole specs address nodes by id) and keep alive
  /// until the run ends; the destructor removes the hooks. Aborts with a
  /// message when the plan fails FaultPlan::validate().
  InjectionEngine(sim::World& world, FaultPlan plan, InjectionOptions options = {});
  ~InjectionEngine();

  InjectionEngine(const InjectionEngine&) = delete;
  InjectionEngine& operator=(const InjectionEngine&) = delete;

  [[nodiscard]] const FaultPlan& plan() const noexcept { return plan_; }

 private:
  struct BurstState {
    bool started{false};
    bool bad{false};
    sim::Time until{0.0};
  };
  /// Per-spec adversarial-noise accounting against the corruption budget.
  struct NoiseState {
    std::uint64_t seen{0};
    std::uint64_t corrupted{0};
  };

  [[nodiscard]] sim::DeliveryVerdict on_delivery(const sim::Frame& frame, sim::NodeId rx,
                                                 sim::Time now);
  [[nodiscard]] bool burst_bad(std::size_t spec, sim::Time now);
  void apply_down(std::size_t spec);
  void schedule_down_edges(std::size_t spec);
  void apply_slow(std::size_t spec);
  void schedule_slow_edges(std::size_t spec);
  void tunnel_frame(std::size_t spec, const sim::Frame& frame, sim::NodeId near_end,
                    sim::NodeId far_end, sim::Time now);
  void replay_at(const sim::Frame& frame, sim::NodeId near_end, sim::NodeId far_end,
                 sim::Vec2 origin, std::uint64_t inj_span);

  sim::World& world_;
  FaultPlan plan_;
  InjectionOptions options_;
  sim::Rng channel_rng_;
  std::vector<BurstState> burst_;
  std::vector<NoiseState> noise_;
  /// Replay receiver candidates; member so the per-frame path does not
  /// allocate.
  std::vector<sim::NodeId> wormhole_scratch_;
  // Interned only when the plan carries the matching specs, so legacy plans
  // leave the metric registry — and frozen run reports — untouched.
  sim::MetricId m_noise_seen_{};
  sim::MetricId m_noise_corrupted_{};
  sim::MetricId m_kind_noise_{};
  sim::MetricId m_noise_budget_used_{};
  sim::MetricId m_wormhole_tunneled_{};
  sim::MetricId m_kind_wormhole_{};
};

}  // namespace icc::fault

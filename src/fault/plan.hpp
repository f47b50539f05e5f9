// Declarative fault plans: WHAT goes wrong, WHERE, and WHEN — separated
// from the injection machinery (injector.hpp) that makes it happen.
//
// A FaultPlan is plain data: five vectors of typed specs, one per fault
// class (wormholes are a protocol-class fault with their own spec shape).
// Experiments construct plans directly (or via the black_hole / gray_hole /
// coop_blackhole_pair / ... helpers that reproduce the paper's §5.1
// attackers and the zoo extensions), campaigns vary them as grid axes, and
// the chaos soak draws seeded random plans from FaultPlan::randomized.
// Because a plan is data, the same plan can be attached to any experiment
// and serialized into its report metadata.
#pragma once

#include <cstdint>
#include <optional>
#include <string>
#include <string_view>
#include <vector>

#include "fault/schedule.hpp"
#include "fault/sensor_fault.hpp"
#include "sim/types.hpp"

namespace icc::sim {
class Rng;
}  // namespace icc::sim

namespace icc::fault {

/// The attack families a plan can express, by name. The names are the
/// registry every surface shares: ProtocolFault::kind() classifies a spec
/// into one of these, parse_attack_kind() turns a CLI/env string into one
/// (rejecting unknown strings at parse time), the per-kind ledger counters
/// are "fault.kind.<name>", and bench/defense_matrix sweeps over them.
enum class AttackKind : std::uint8_t {
  kBlackHole,         ///< §5.1: seq inflation + drop everything
  kGrayHole,          ///< black hole on a periodic duty cycle
  kSelectiveForward,  ///< probabilistic dropper, no route attraction
  kDataDelay,         ///< hold attracted data instead of forwarding
  kRrepReplay,        ///< re-send an overheard RREP verbatim
  kRreqFlood,         ///< forged-discovery resource exhaustion
  kCoopBlackhole,     ///< attractor diverts to a colluding dropper
  kRrepForgeSeq,      ///< replayed RREP with re-inflated dest_seq
  kRrepForgeNextHop,  ///< attract, then misroute data to a ghost hop
  kRushedRrep,        ///< immediate small-bump RREP to win the reply race
  kWormhole,          ///< out-of-band tunnel between two colluders
  kNoise,             ///< adversarial channel corruption (budgeted)
  kCount
};

inline constexpr std::size_t kNumAttackKinds = static_cast<std::size_t>(AttackKind::kCount);

[[nodiscard]] const char* attack_kind_name(AttackKind k) noexcept;
/// Whether this kind books a per-kind ledger counter ("fault.kind.<name>").
/// Only the zoo extensions do; the paper's original attackers predate the
/// per-kind counters and keeping them unbooked keeps legacy runs' metric
/// registries — and their frozen default-seed outputs — byte-identical.
[[nodiscard]] bool attack_kind_booked(AttackKind k) noexcept;
/// Strict parse of an attack-kind name; std::nullopt for unknown strings so
/// callers (defense_matrix's ICC_DEFENSE_ATTACKS, plan loaders) can abort
/// with a message instead of running a misconfigured campaign.
[[nodiscard]] std::optional<AttackKind> parse_attack_kind(std::string_view name) noexcept;

/// Link-level fault on the path tx -> rx. kNoNode on either side is a
/// wildcard, so {tx=3, rx=kNoNode} degrades everything node 3 sends while
/// {tx=kNoNode, rx=3} degrades everything node 3 hears — an asymmetric
/// link is one directional spec without its mirror.
struct ChannelFault {
  sim::NodeId tx{sim::kNoNode};
  sim::NodeId rx{sim::kNoNode};
  double loss_prob{0.0};      ///< independent Bernoulli frame loss
  /// Burst (Gilbert-Elliott) loss: alternate good/bad periods with the
  /// given mean durations (seconds, exponentially distributed); every frame
  /// arriving during a bad period is lost. Zero mean_bad_s disables bursts.
  double mean_good_s{0.0};
  double mean_bad_s{0.0};
  double bitflip_prob{0.0};   ///< payload damage: delivered but CRC-dead
  double truncate_prob{0.0};  ///< cut short on the air: same receiver fate
  /// Adversarial noise (Hoza–Schulman model): an active jammer corrupts
  /// matching frames with this probability, but only while its corruption
  /// budget lasts. Unlike bitflip_prob (environmental, unbounded), the
  /// adversary is rate-limited: it may corrupt at most noise_budget of the
  /// frames it observes — the interactive-coding threshold says a protocol
  /// can tolerate corruption only below a constant fraction, so the budget
  /// is the knob that sweeps across that boundary.
  double noise_prob{0.0};
  double noise_budget{0.25};  ///< max corrupted fraction; <= 0 = unbounded
  Schedule when{Schedule::always()};
};

/// Whole-node fault: crash/recover churn and/or slowed protocol timers.
struct NodeFault {
  sim::NodeId node{sim::kNoNode};
  /// The node is down (crashed) whenever this schedule is active.
  Schedule down{Schedule::never()};
  /// While `slow` is active, the node's routing/traffic/voting/sensor
  /// timers stretch by this factor (a stuck timer is a large factor). MAC
  /// and mobility timing stay untouched: a slow *process* still obeys the
  /// channel's physics.
  double timer_slow_factor{1.0};
  Schedule slow{Schedule::never()};
};

/// Insider misbehavior of an AODV node (§5.1 generalized): any combination
/// of route-attraction (seq_inflation), data-plane drops or delays,
/// RREP replay, and RREQ flooding, gated on one schedule. The paper's black
/// hole is {seq_inflation, drop_prob 1, always}; the gray hole is the same
/// with a periodic schedule. The zoo fields extend the same spec shape:
/// partner turns the dropper into a cooperative pair, rush_seq_bump /
/// replay_seq_bump / forge_next_hop select the RREP-forgery variants.
struct ProtocolFault {
  sim::NodeId node{sim::kNoNode};
  std::uint32_t seq_inflation{0};  ///< >0: forge a fresher-than-anything RREP
  double drop_prob{0.0};           ///< selective forwarding (1.0 = drop all)
  bool forward_rreq{false};        ///< stealthier if true (also re-floods)
  sim::Time delay_s{0.0};          ///< hold attracted data this long instead
                                   ///  of forwarding it promptly
  sim::Time replay_interval_s{0.0};  ///< >0: re-send the last overheard RREP
                                     ///  raw every interval (replay attack)
  sim::Time flood_interval_s{0.0};   ///< >0: forge a broadcast RREQ every
                                     ///  interval (resource-consumption DoS)
  /// Cooperative blackhole: instead of dropping attracted data, forward it
  /// to this colluder — the watchdog sees a legitimate-looking
  /// retransmission and clears the charge, while the partner (a plain
  /// dropper nobody handed the packet to under watch) destroys it.
  sim::NodeId partner{sim::kNoNode};
  /// Rushed RREP: answer RREQs immediately with a *small*, plausible
  /// dest_seq bump (instead of seq_inflation's absurd one), winning the
  /// reply race against the real destination while staying under naive
  /// freshness-sanity radars.
  std::uint32_t rush_seq_bump{0};
  /// Seq-inflation replay: each replay_interval_s replay re-inflates the
  /// captured RREP's dest_seq by this much, so every copy looks fresher
  /// than the last (the AODVSEC target attack).
  std::uint32_t replay_seq_bump{0};
  /// Fabricated next hop: attract routes, then misroute attracted data to a
  /// nonexistent hop. The retransmission is real — the watchdog clears the
  /// charge — but the packet is addressed to nobody and dies on the air.
  bool forge_next_hop{false};
  Schedule when{Schedule::always()};

  /// Which attack family this spec expresses (most specific field wins).
  [[nodiscard]] AttackKind kind() const noexcept;
};

/// Out-of-band wormhole tunnel between two colluders (a, b): every frame
/// one endpoint hears on the radio is replayed, latency_s later, out of the
/// far endpoint's position — so distant nodes appear to be one-hop
/// neighbors and routes collapse through the tunnel. The rushing variant
/// (control_only) tunnels only AODV control traffic: RREQs race through
/// the tunnel ahead of the legitimate flood, capturing route discovery
/// without ever carrying data.
struct WormholeFault {
  sim::NodeId a{sim::kNoNode};
  sim::NodeId b{sim::kNoNode};
  sim::Time latency_s{0.0005};  ///< tunnel traversal time
  bool control_only{false};     ///< rushing: tunnel routing control only
  Schedule when{Schedule::always()};
};

/// A faulty sensor (§5.2): one of the paper's four measurement fault models.
struct SensorFault {
  sim::NodeId node{sim::kNoNode};
  SensorFaultType type{SensorFaultType::kNone};
  SensorFaultParams params{};
  Schedule when{Schedule::always()};
};

/// Bounds for FaultPlan::randomized. Node ids are drawn from [0, num_nodes);
/// schedules from {always, periodic, window} with durations up to sim_time.
struct RandomPlanParams {
  int num_nodes{16};
  sim::Time sim_time{15.0};
  int max_channel{2};
  int max_node{2};
  int max_protocol{2};
  int max_sensor{2};
  int max_wormhole{1};
};

struct FaultPlan {
  std::vector<ChannelFault> channel;
  std::vector<NodeFault> node;
  std::vector<ProtocolFault> protocol;
  std::vector<WormholeFault> wormhole;
  std::vector<SensorFault> sensor;

  [[nodiscard]] bool empty() const noexcept {
    return channel.empty() && node.empty() && protocol.empty() && wormhole.empty() &&
           sensor.empty();
  }

  /// One-line summary ("2ch 1nd 1pr 1wh 0sn") for logs and report metadata.
  [[nodiscard]] std::string summary() const;

  /// Validates every spec: probabilities in [0,1], non-negative times,
  /// well-formed schedules, at most one protocol personality per node, no
  /// overlapping down-windows on one node, distinct wormhole endpoints.
  /// Returns an empty string when the plan is sound, otherwise a one-line
  /// description of the first problem. require_valid_plan() is the gate
  /// that refuses to run a plan this rejects.
  [[nodiscard]] std::string validate() const;

  /// Seeded random plan for the chaos soak: same seed, same plan, always.
  /// Every spec's parameters come from a private SplitMix64-derived stream
  /// keyed on (seed, section, index), and each spec's attack-kind choice
  /// from yet another — so growing the attack-kind rotation changes which
  /// kind a spec gets but never reshuffles the other specs' parameters.
  [[nodiscard]] static FaultPlan randomized(std::uint64_t seed, const RandomPlanParams& params);
};

/// The one fault-plan gate. Every experiment runs it at setup and the
/// InjectionEngine again on the world it hooks, so a malformed plan dies
/// loudly before the run instead of silently doing something undefined (or
/// nothing) mid-run. Aborts, printing `fault: invalid plan: <why>`, unless
/// `plan` passes FaultPlan::validate() and every node id a spec names — a
/// channel end other than the kNoNode wildcard, a node fault's node, a
/// protocol spec's node and partner, a wormhole endpoint, a sensor spec's
/// node — is one of the world's `num_nodes` nodes.
void require_valid_plan(const FaultPlan& plan, std::size_t num_nodes);

/// The paper's black hole: inflate sequence numbers to attract routes, drop
/// every attracted data packet (§5.1, Fig 6(e)).
[[nodiscard]] ProtocolFault black_hole(sim::NodeId node);
/// Gray hole: a black hole with a periodic duty cycle (attack `on` seconds,
/// behave `off` seconds). Non-positive `on` degenerates to the black hole.
[[nodiscard]] ProtocolFault gray_hole(sim::NodeId node, sim::Time on, sim::Time off);
/// Cooperative blackhole: `attractor` wins routes and hands attracted data
/// to `dropper`, which destroys it out of the watchdog's sight. Returns
/// {attractor spec, dropper spec}.
[[nodiscard]] std::pair<ProtocolFault, ProtocolFault> coop_blackhole_pair(sim::NodeId attractor,
                                                                          sim::NodeId dropper);
/// Seq-inflation replay (AODVSEC target): capture a legitimate RREP, replay
/// it every `interval`, re-inflating dest_seq by `bump` each time.
[[nodiscard]] ProtocolFault rrep_forge_seq(sim::NodeId node, sim::Time interval = 1.0,
                                           std::uint32_t bump = 100);
/// Fabricated next hop: attract routes, misroute data to a ghost.
[[nodiscard]] ProtocolFault rrep_forge_next_hop(sim::NodeId node);
/// Rushed RREP: immediate reply with a small plausible seq bump.
[[nodiscard]] ProtocolFault rushed_rrep(sim::NodeId node, std::uint32_t bump = 8);
/// Wormhole tunnel between `a` and `b` (see WormholeFault).
[[nodiscard]] WormholeFault wormhole(sim::NodeId a, sim::NodeId b,
                                     sim::Time latency_s = 0.0005);
/// Adversarial noise on every link: corrupt frames at `rate` while the
/// corrupted fraction stays under `budget` (Hoza–Schulman threshold knob).
[[nodiscard]] ChannelFault adversarial_noise(double rate, double budget = 0.25);

/// Plans for the Fig 7 scenario: nodes 0..m-1 are attackers.
[[nodiscard]] FaultPlan black_hole_plan(int num_attackers);
[[nodiscard]] FaultPlan gray_hole_plan(int num_attackers, sim::Time on, sim::Time off);

}  // namespace icc::fault

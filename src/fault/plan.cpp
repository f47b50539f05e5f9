#include "fault/plan.hpp"

#include <cstdio>
#include <cstdlib>
#include <set>
#include <utility>

#include "exp/seed.hpp"
#include "sim/rng.hpp"

namespace icc::fault {

const char* attack_kind_name(AttackKind k) noexcept {
  switch (k) {
    case AttackKind::kBlackHole:
      return "black_hole";
    case AttackKind::kGrayHole:
      return "gray_hole";
    case AttackKind::kSelectiveForward:
      return "selective_forward";
    case AttackKind::kDataDelay:
      return "data_delay";
    case AttackKind::kRrepReplay:
      return "rrep_replay";
    case AttackKind::kRreqFlood:
      return "rreq_flood";
    case AttackKind::kCoopBlackhole:
      return "coop_blackhole";
    case AttackKind::kRrepForgeSeq:
      return "rrep_forge_seq";
    case AttackKind::kRrepForgeNextHop:
      return "rrep_forge_next_hop";
    case AttackKind::kRushedRrep:
      return "rushed_rrep";
    case AttackKind::kWormhole:
      return "wormhole";
    case AttackKind::kNoise:
      return "noise";
    case AttackKind::kCount:
      break;
  }
  return "?";
}

std::optional<AttackKind> parse_attack_kind(std::string_view name) noexcept {
  for (std::size_t k = 0; k < kNumAttackKinds; ++k) {
    const auto kind = static_cast<AttackKind>(k);
    if (name == attack_kind_name(kind)) return kind;
  }
  return std::nullopt;
}

bool attack_kind_booked(AttackKind k) noexcept {
  switch (k) {
    case AttackKind::kCoopBlackhole:
    case AttackKind::kRrepForgeSeq:
    case AttackKind::kRrepForgeNextHop:
    case AttackKind::kRushedRrep:
    case AttackKind::kWormhole:
    case AttackKind::kNoise:
      return true;
    default:
      return false;
  }
}

AttackKind ProtocolFault::kind() const noexcept {
  // Most specific field wins: the zoo variants layer on top of the base
  // attraction/drop machinery, so they must be recognized before it.
  if (partner != sim::kNoNode) return AttackKind::kCoopBlackhole;
  if (forge_next_hop) return AttackKind::kRrepForgeNextHop;
  if (rush_seq_bump > 0) return AttackKind::kRushedRrep;
  if (replay_seq_bump > 0) return AttackKind::kRrepForgeSeq;
  if (seq_inflation > 0 && drop_prob > 0.0) {
    return when.kind() == Schedule::Kind::kPeriodic ? AttackKind::kGrayHole
                                                    : AttackKind::kBlackHole;
  }
  if (delay_s > 0.0) return AttackKind::kDataDelay;
  if (replay_interval_s > 0.0) return AttackKind::kRrepReplay;
  if (flood_interval_s > 0.0) return AttackKind::kRreqFlood;
  if (drop_prob > 0.0) return AttackKind::kSelectiveForward;
  return AttackKind::kBlackHole;  // pure attractor: still a route sink
}

std::string FaultPlan::summary() const {
  char buf[80];
  std::snprintf(buf, sizeof buf, "%zuch %zund %zupr %zuwh %zusn", channel.size(),
                node.size(), protocol.size(), wormhole.size(), sensor.size());
  return buf;
}

namespace {

std::string spec_error(const char* section, std::size_t index, const char* what) {
  char buf[160];
  std::snprintf(buf, sizeof buf, "%s spec %zu: %s", section, index, what);
  return buf;
}

bool prob01(double p) { return p >= 0.0 && p <= 1.0; }

/// Can both schedules be active at the same instant? Conservative: only a
/// pair of disjoint windows is provably conflict-free; everything else
/// (always/periodic/overlapping windows) is treated as overlapping.
bool schedules_may_overlap(const Schedule& a, const Schedule& b) {
  if (a.kind() == Schedule::Kind::kNever || b.kind() == Schedule::Kind::kNever) return false;
  if (a.kind() == Schedule::Kind::kWindow && b.kind() == Schedule::Kind::kWindow) {
    return a.window_start() < b.window_end() && b.window_start() < a.window_end();
  }
  return true;
}

}  // namespace

std::string FaultPlan::validate() const {
  for (std::size_t i = 0; i < channel.size(); ++i) {
    const ChannelFault& f = channel[i];
    if (!prob01(f.loss_prob)) return spec_error("channel", i, "loss_prob outside [0, 1]");
    if (!prob01(f.bitflip_prob)) return spec_error("channel", i, "bitflip_prob outside [0, 1]");
    if (!prob01(f.truncate_prob))
      return spec_error("channel", i, "truncate_prob outside [0, 1]");
    if (!prob01(f.noise_prob)) return spec_error("channel", i, "noise_prob outside [0, 1]");
    if (f.noise_budget > 1.0) return spec_error("channel", i, "noise_budget above 1");
    if (f.mean_good_s < 0.0 || f.mean_bad_s < 0.0)
      return spec_error("channel", i, "negative burst period");
    if (!f.when.valid()) return spec_error("channel", i, "malformed schedule (negative time?)");
  }
  for (std::size_t i = 0; i < node.size(); ++i) {
    const NodeFault& f = node[i];
    if (f.node == sim::kNoNode) return spec_error("node", i, "no target node");
    if (f.timer_slow_factor < 1.0)
      return spec_error("node", i, "timer_slow_factor below 1 (timers cannot run backwards)");
    if (!f.down.valid() || !f.slow.valid())
      return spec_error("node", i, "malformed schedule (negative time?)");
    for (std::size_t j = 0; j < i; ++j) {
      if (node[j].node != f.node) continue;
      if (schedules_may_overlap(node[j].down, f.down)) {
        return spec_error("node", i,
                          "down schedule overlaps an earlier spec for the same node");
      }
    }
  }
  std::set<sim::NodeId> protocol_nodes;
  for (std::size_t i = 0; i < protocol.size(); ++i) {
    const ProtocolFault& f = protocol[i];
    if (f.node == sim::kNoNode) return spec_error("protocol", i, "no target node");
    if (!prob01(f.drop_prob)) return spec_error("protocol", i, "drop_prob outside [0, 1]");
    if (f.delay_s < 0.0 || f.replay_interval_s < 0.0 || f.flood_interval_s < 0.0)
      return spec_error("protocol", i, "negative interval");
    if (f.partner == f.node)
      return spec_error("protocol", i, "a cooperative pair needs two distinct nodes");
    if (!f.when.valid()) return spec_error("protocol", i, "malformed schedule (negative time?)");
    if (!protocol_nodes.insert(f.node).second) {
      return spec_error("protocol", i,
                        "second misbehavior personality for the same node (one spec per node)");
    }
  }
  for (std::size_t i = 0; i < wormhole.size(); ++i) {
    const WormholeFault& f = wormhole[i];
    if (f.a == sim::kNoNode || f.b == sim::kNoNode)
      return spec_error("wormhole", i, "missing endpoint");
    if (f.a == f.b) return spec_error("wormhole", i, "endpoints must be distinct");
    if (f.latency_s < 0.0) return spec_error("wormhole", i, "negative latency");
    if (!f.when.valid())
      return spec_error("wormhole", i, "malformed schedule (negative time?)");
  }
  for (std::size_t i = 0; i < sensor.size(); ++i) {
    const SensorFault& f = sensor[i];
    if (f.node == sim::kNoNode) return spec_error("sensor", i, "no target node");
    if (!f.when.valid()) return spec_error("sensor", i, "malformed schedule (negative time?)");
  }
  return {};
}

namespace {

/// The first node id in `plan` outside a world of `num_nodes` nodes, as a
/// validate()-style message; empty when every id names a node.
std::string node_outside_world(const FaultPlan& plan, std::size_t num_nodes) {
  const auto outside = [num_nodes](sim::NodeId id) { return id >= num_nodes; };
  const auto error = [num_nodes](const char* section, std::size_t index, const char* role,
                                 sim::NodeId id) {
    char what[96];
    std::snprintf(what, sizeof what, "%s outside the world (node %u, %zu nodes)", role, id,
                  num_nodes);
    return spec_error(section, index, what);
  };
  for (std::size_t i = 0; i < plan.channel.size(); ++i) {
    const ChannelFault& f = plan.channel[i];
    if (f.tx != sim::kNoNode && outside(f.tx)) return error("channel", i, "tx", f.tx);
    if (f.rx != sim::kNoNode && outside(f.rx)) return error("channel", i, "rx", f.rx);
  }
  for (std::size_t i = 0; i < plan.node.size(); ++i) {
    if (outside(plan.node[i].node)) return error("node", i, "node", plan.node[i].node);
  }
  for (std::size_t i = 0; i < plan.protocol.size(); ++i) {
    const ProtocolFault& f = plan.protocol[i];
    if (outside(f.node)) return error("protocol", i, "node", f.node);
    if (f.partner != sim::kNoNode && outside(f.partner)) {
      return error("protocol", i, "partner", f.partner);
    }
  }
  for (std::size_t i = 0; i < plan.wormhole.size(); ++i) {
    const WormholeFault& f = plan.wormhole[i];
    for (const sim::NodeId end : {f.a, f.b}) {
      if (outside(end)) return error("wormhole", i, "wormhole endpoint", end);
    }
  }
  for (std::size_t i = 0; i < plan.sensor.size(); ++i) {
    if (outside(plan.sensor[i].node)) return error("sensor", i, "node", plan.sensor[i].node);
  }
  return {};
}

}  // namespace

void require_valid_plan(const FaultPlan& plan, std::size_t num_nodes) {
  std::string why = plan.validate();
  if (why.empty()) why = node_outside_world(plan, num_nodes);
  if (why.empty()) return;
  // A bad plan is a configuration error, not a debug invariant: fail
  // unconditionally (ICC_ASSERT compiles out in Release) and loudly.
  // NOLINTNEXTLINE(concurrency-mt-unsafe): abort path; nothing races a process that is about to die
  std::fprintf(stderr, "fault: invalid plan: %s\n", why.c_str());
  std::abort();
}

ProtocolFault black_hole(sim::NodeId node) {
  ProtocolFault f;
  f.node = node;
  f.seq_inflation = 1'000'000;
  f.drop_prob = 1.0;
  return f;
}

ProtocolFault gray_hole(sim::NodeId node, sim::Time on, sim::Time off) {
  ProtocolFault f = black_hole(node);
  f.when = Schedule::periodic(on, off);
  return f;
}

std::pair<ProtocolFault, ProtocolFault> coop_blackhole_pair(sim::NodeId attractor,
                                                            sim::NodeId dropper) {
  ProtocolFault attract;
  attract.node = attractor;
  attract.seq_inflation = 1'000'000;
  attract.partner = dropper;
  ProtocolFault drop;
  drop.node = dropper;
  drop.drop_prob = 1.0;
  return {attract, drop};
}

ProtocolFault rrep_forge_seq(sim::NodeId node, sim::Time interval, std::uint32_t bump) {
  ProtocolFault f;
  f.node = node;
  f.replay_interval_s = interval;
  f.replay_seq_bump = bump;
  return f;
}

ProtocolFault rrep_forge_next_hop(sim::NodeId node) {
  ProtocolFault f;
  f.node = node;
  f.seq_inflation = 1'000'000;
  f.forge_next_hop = true;
  return f;
}

ProtocolFault rushed_rrep(sim::NodeId node, std::uint32_t bump) {
  ProtocolFault f;
  f.node = node;
  f.rush_seq_bump = bump;
  f.forward_rreq = true;  // stay in the flood: rushing wins races, not hides
  return f;
}

WormholeFault wormhole(sim::NodeId a, sim::NodeId b, sim::Time latency_s) {
  WormholeFault w;
  w.a = a;
  w.b = b;
  w.latency_s = latency_s;
  return w;
}

ChannelFault adversarial_noise(double rate, double budget) {
  ChannelFault f;
  f.noise_prob = rate;
  f.noise_budget = budget;
  return f;
}

FaultPlan black_hole_plan(int num_attackers) {
  FaultPlan plan;
  for (int i = 0; i < num_attackers; ++i) {
    plan.protocol.push_back(black_hole(static_cast<sim::NodeId>(i)));
  }
  return plan;
}

FaultPlan gray_hole_plan(int num_attackers, sim::Time on, sim::Time off) {
  FaultPlan plan;
  for (int i = 0; i < num_attackers; ++i) {
    plan.protocol.push_back(gray_hole(static_cast<sim::NodeId>(i), on, off));
  }
  return plan;
}

namespace {

/// Sections of a randomized plan. Each spec draws its parameters from a
/// stream derived from (seed, section, spec index) and its attack-kind
/// choice from a separate *Kind section — so a new kind joining a rotation
/// changes only which kind each spec gets, never the parameters of specs
/// whose kind is unchanged, and never anything in another section.
enum Section : std::uint64_t {
  kSecCounts = 0,
  kSecChannel,
  kSecNode,
  kSecProtocol,
  kSecSensor,
  kSecWormhole,
  kSecChannelKind,
  kSecProtocolKind,
};

Schedule random_schedule(sim::Rng& rng, sim::Time sim_time) {
  switch (rng.uniform_int(0, 2)) {
    case 0:
      return Schedule::always();
    case 1: {
      const sim::Time on = rng.uniform(0.05, 0.4) * sim_time;
      const sim::Time off = rng.uniform(0.05, 0.4) * sim_time;
      return Schedule::periodic(on, off, rng.uniform(0.0, 0.2) * sim_time);
    }
    default: {
      const sim::Time start = rng.uniform(0.0, 0.6) * sim_time;
      return Schedule::window(start, start + rng.uniform(0.1, 0.4) * sim_time);
    }
  }
}

sim::NodeId random_node(sim::Rng& rng, const RandomPlanParams& p) {
  return static_cast<sim::NodeId>(
      rng.uniform_int(0, static_cast<std::uint32_t>(p.num_nodes - 1)));
}

}  // namespace

FaultPlan FaultPlan::randomized(std::uint64_t seed, const RandomPlanParams& params) {
  FaultPlan plan;
  sim::Rng count_rng{exp::derive_seed(seed, kSecCounts, 0)};
  const auto count = [&](int max) {
    return static_cast<int>(count_rng.uniform_int(0, static_cast<std::uint32_t>(max)));
  };
  const int n_channel = count(params.max_channel);
  const int n_node = count(params.max_node);
  const int n_protocol = count(params.max_protocol);
  const int n_sensor = count(params.max_sensor);
  const int n_wormhole = count(params.max_wormhole);

  for (int i = 0; i < n_channel; ++i) {
    sim::Rng rng{exp::derive_seed(seed, kSecChannel, static_cast<std::uint64_t>(i))};
    ChannelFault f;
    // Half the specs are directional (one wildcard side): asymmetric links.
    if (rng.chance(0.5)) {
      f.tx = random_node(rng, params);
    } else {
      f.rx = random_node(rng, params);
    }
    switch (exp::derive_seed(seed, kSecChannelKind, static_cast<std::uint64_t>(i)) % 4) {
      case 0:
        f.loss_prob = rng.uniform(0.05, 0.6);
        break;
      case 1:
        f.mean_good_s = rng.uniform(0.5, 3.0);
        f.mean_bad_s = rng.uniform(0.1, 1.0);
        break;
      case 2:
        f.bitflip_prob = rng.uniform(0.05, 0.4);
        f.truncate_prob = rng.uniform(0.0, 0.2);
        break;
      default:  // adversarial noise, budgeted (Hoza–Schulman)
        f.noise_prob = rng.uniform(0.05, 0.35);
        f.noise_budget = rng.uniform(0.1, 0.5);
        break;
    }
    f.when = random_schedule(rng, params.sim_time);
    plan.channel.push_back(f);
  }

  std::set<sim::NodeId> churned;
  for (int i = 0; i < n_node; ++i) {
    sim::Rng rng{exp::derive_seed(seed, kSecNode, static_cast<std::uint64_t>(i))};
    NodeFault f;
    f.node = random_node(rng, params);
    // One churn spec per node: overlapping down-windows on one node would
    // fight over set_down (and fail validate()).
    if (!churned.insert(f.node).second) continue;
    if (rng.chance(0.7)) {
      // Crash somewhere in the run, recover with probability 1/2.
      const sim::Time crash = rng.uniform(0.1, 0.8) * params.sim_time;
      f.down = rng.chance(0.5)
                   ? Schedule::window(crash, crash + rng.uniform(0.1, 0.5) * params.sim_time)
                   : Schedule::after(crash);
    } else {
      f.timer_slow_factor = rng.uniform(2.0, 10.0);
      f.slow = random_schedule(rng, params.sim_time);
    }
    plan.node.push_back(f);
  }

  std::set<sim::NodeId> misbehaving;
  for (int i = 0; i < n_protocol; ++i) {
    sim::Rng rng{exp::derive_seed(seed, kSecProtocol, static_cast<std::uint64_t>(i))};
    ProtocolFault f;
    f.node = random_node(rng, params);
    if (!misbehaving.insert(f.node).second) continue;  // one personality per node
    const sim::NodeId node = f.node;
    switch (exp::derive_seed(seed, kSecProtocolKind, static_cast<std::uint64_t>(i)) % 8) {
      case 0:
        f = black_hole(node);
        break;
      case 1:  // selective forwarder, no route attraction
        f.drop_prob = rng.uniform(0.2, 1.0);
        break;
      case 2:
        f.replay_interval_s = rng.uniform(0.5, 3.0);
        break;
      case 3:
        f.flood_interval_s = rng.uniform(0.2, 2.0);
        break;
      case 4: {  // cooperative blackhole: claim the next free node as partner
        sim::NodeId partner = static_cast<sim::NodeId>((node + 1) %
                                                       static_cast<sim::NodeId>(params.num_nodes));
        int scanned = 0;
        while (misbehaving.count(partner) != 0 && scanned < params.num_nodes) {
          partner = static_cast<sim::NodeId>((partner + 1) %
                                             static_cast<sim::NodeId>(params.num_nodes));
          ++scanned;
        }
        if (scanned >= params.num_nodes) continue;  // everyone already misbehaves
        misbehaving.insert(partner);
        auto [attract, drop] = coop_blackhole_pair(node, partner);
        attract.when = random_schedule(rng, params.sim_time);
        drop.when = attract.when;  // the pair acts in lockstep
        plan.protocol.push_back(attract);
        plan.protocol.push_back(drop);
        continue;
      }
      case 5:
        f = rushed_rrep(node, static_cast<std::uint32_t>(rng.uniform_int(2, 16)));
        break;
      case 6:
        f = rrep_forge_next_hop(node);
        break;
      default:
        f = rrep_forge_seq(node, rng.uniform(0.5, 2.0),
                           static_cast<std::uint32_t>(rng.uniform_int(50, 500)));
        break;
    }
    f.when = random_schedule(rng, params.sim_time);
    plan.protocol.push_back(f);
  }

  for (int i = 0; i < n_sensor; ++i) {
    sim::Rng rng{exp::derive_seed(seed, kSecSensor, static_cast<std::uint64_t>(i))};
    SensorFault f;
    f.node = random_node(rng, params);
    f.type = static_cast<SensorFaultType>(rng.uniform_int(1, 4));
    f.when = random_schedule(rng, params.sim_time);
    plan.sensor.push_back(f);
  }

  if (params.num_nodes >= 2) {
    for (int i = 0; i < n_wormhole; ++i) {
      sim::Rng rng{exp::derive_seed(seed, kSecWormhole, static_cast<std::uint64_t>(i))};
      WormholeFault w;
      w.a = random_node(rng, params);
      w.b = random_node(rng, params);
      while (w.b == w.a) w.b = random_node(rng, params);
      w.latency_s = rng.uniform(1e-4, 2e-3);
      w.control_only = rng.chance(0.5);
      w.when = random_schedule(rng, params.sim_time);
      plan.wormhole.push_back(w);
    }
  }

  return plan;
}

}  // namespace icc::fault

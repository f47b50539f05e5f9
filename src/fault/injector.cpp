#include "fault/injector.hpp"

#include <algorithm>
#include <cmath>

#include "fault/ledger.hpp"
#include "sim/world.hpp"

namespace icc::fault {

namespace {
constexpr std::uint64_t kChannelRngSalt = 0xFA171C00ull;  // "FAULTCH"
constexpr double kMinBurstMean = 1e-6;  ///< guards exponential() against /0
/// Edge events fire this far *after* the schedule boundary. Firing exactly
/// on it is a floating-point trap: the event can land a few ulps before the
/// boundary, observe the pre-toggle state, and re-schedule itself onto the
/// same boundary forever. One nanosecond late is semantically invisible and
/// puts the event strictly past the boundary, so the chain always advances
/// by a full schedule segment.
constexpr double kEdgeDelay = 1e-9;
}  // namespace

InjectionEngine::InjectionEngine(sim::World& world, FaultPlan plan, InjectionOptions options)
    : world_{world},
      plan_{std::move(plan)},
      options_{options},
      // Fork only when channel specs exist: an engine over a channel-free
      // plan must leave the world's RNG genealogy untouched (wormholes draw
      // no randomness, so they do not fork either).
      channel_rng_{plan_.channel.empty() ? sim::Rng{0} : world.fork_rng(kChannelRngSalt)} {
  require_valid_plan(plan_, world_.num_nodes());

  if (!plan_.channel.empty() || !plan_.wormhole.empty()) {
    burst_.resize(plan_.channel.size());
    noise_.resize(plan_.channel.size());
    world_.medium().set_delivery_filter(
        [this](const sim::Frame& frame, sim::NodeId rx, sim::Time now) {
          return on_delivery(frame, rx, now);
        });
  }
  const bool any_noise = std::any_of(plan_.channel.begin(), plan_.channel.end(),
                                     [](const ChannelFault& f) { return f.noise_prob > 0.0; });
  if (any_noise) {
    auto& metrics = world_.metrics();
    m_noise_seen_ = metrics.counter_id("fault.noise.frames_seen");
    m_noise_corrupted_ = metrics.counter_id("fault.noise.corrupted");
    m_kind_noise_ = metrics.counter_id("fault.kind.noise");
    m_noise_budget_used_ = metrics.gauge_id("fault.noise.budget_used");
  }
  if (!plan_.wormhole.empty()) {
    auto& metrics = world_.metrics();
    m_wormhole_tunneled_ = metrics.counter_id("fault.wormhole.tunneled");
    m_kind_wormhole_ = metrics.counter_id("fault.kind.wormhole");
  }

  bool any_slow = false;
  for (std::size_t i = 0; i < plan_.node.size(); ++i) {
    const NodeFault& spec = plan_.node[i];
    if (spec.down.kind() != Schedule::Kind::kNever) {
      apply_down(i);
      schedule_down_edges(i);
    }
    if (spec.timer_slow_factor > 1.0 && spec.slow.kind() != Schedule::Kind::kNever) {
      any_slow = true;
      apply_slow(i);
      schedule_slow_edges(i);
    }
  }
  if (any_slow) {
    world_.sched().set_timer_warp([this](sim::Time now, double dt, sim::EventTag tag) {
      // MAC and mobility obey the channel's physics; kGeneric carries the
      // engine's own edge events. Only protocol-level timers stretch.
      switch (tag) {
        case sim::EventTag::kRouting:
        case sim::EventTag::kTraffic:
        case sim::EventTag::kVoting:
        case sim::EventTag::kSensor:
          break;
        default:
          return dt;
      }
      double factor = 1.0;
      for (const NodeFault& spec : plan_.node) {
        if (spec.timer_slow_factor > 1.0 && spec.slow.active_at(now)) {
          factor = std::max(factor, spec.timer_slow_factor);
        }
      }
      return dt * factor;
    });
  }
}

InjectionEngine::~InjectionEngine() {
  // The scheduled edge events capture `this`; they are only reachable
  // through the world's scheduler, which a caller destroying the engine
  // first must no longer run. The std::function hooks do outlive runs, so
  // clear them.
  if (!plan_.channel.empty() || !plan_.wormhole.empty()) {
    world_.medium().set_delivery_filter(nullptr);
  }
  world_.sched().set_timer_warp(nullptr);
}

bool InjectionEngine::burst_bad(std::size_t spec, sim::Time now) {
  const ChannelFault& f = plan_.channel[spec];
  BurstState& b = burst_[spec];
  if (!b.started) {
    b.started = true;
    b.bad = false;
    b.until = now + channel_rng_.exponential(std::max(f.mean_good_s, kMinBurstMean));
  }
  while (b.until <= now) {
    b.bad = !b.bad;
    b.until += channel_rng_.exponential(
        std::max(b.bad ? f.mean_bad_s : f.mean_good_s, kMinBurstMean));
  }
  return b.bad;
}

sim::DeliveryVerdict InjectionEngine::on_delivery(const sim::Frame& frame, sim::NodeId rx,
                                                 sim::Time now) {
  // Wormhole tap first: the endpoint still *hears* the frame normally (the
  // verdict below stays whatever the channel specs say), but a copy enters
  // the tunnel. Frames transmitted by either colluder are never re-tunneled,
  // which breaks the ping-pong loop a naive tap would create.
  if (!plan_.wormhole.empty() && !frame.is_ack) {
    for (std::size_t i = 0; i < plan_.wormhole.size(); ++i) {
      const WormholeFault& w = plan_.wormhole[i];
      if (frame.tx == w.a || frame.tx == w.b) continue;
      if (rx != w.a && rx != w.b) continue;
      if (!w.when.active_at(now)) continue;
      if (w.control_only && frame.packet.port != sim::Port::kAodv) continue;
      tunnel_frame(i, frame, rx, rx == w.a ? w.b : w.a, now);
    }
  }
  for (std::size_t i = 0; i < plan_.channel.size(); ++i) {
    const ChannelFault& f = plan_.channel[i];
    if (f.tx != sim::kNoNode && f.tx != frame.tx) continue;
    if (f.rx != sim::kNoNode && f.rx != rx) continue;
    if (!f.when.active_at(now)) continue;
    const bool lost = (f.mean_bad_s > 0.0 && burst_bad(i, now)) ||
                      (f.loss_prob > 0.0 && channel_rng_.chance(f.loss_prob));
    if (lost) {
      // The injection gets its own span; its parent is the frame it killed,
      // so lineage reconstruction shows *why* a delivery never happened.
      const std::uint64_t inj_span = world_.next_span();
      report_injected(world_, FaultClass::kChannel, rx, inj_span, frame.packet.uid);
      // A lost unicast frame starves the sender's ack machinery, which
      // retries and ultimately reports the failure: detected. A lost
      // broadcast vanishes without a witness: escaped.
      if (frame.rx != sim::kBroadcast) {
        report_detected(world_, FaultClass::kChannel, frame.tx, 0, inj_span);
      }
      return sim::DeliveryVerdict::kDrop;
    }
    const bool damaged = (f.bitflip_prob > 0.0 && channel_rng_.chance(f.bitflip_prob)) ||
                         (f.truncate_prob > 0.0 && channel_rng_.chance(f.truncate_prob));
    if (damaged) {
      const std::uint64_t inj_span = world_.next_span();
      report_injected(world_, FaultClass::kChannel, rx, inj_span, frame.packet.uid);
      // The CRC catches damaged payloads at the end of the reception.
      report_detected(world_, FaultClass::kChannel, rx, 0, inj_span);
      return sim::DeliveryVerdict::kCorrupt;
    }
    if (f.noise_prob > 0.0) {
      // Adversarial noise: like bitflips at the receiver, but the jammer is
      // budgeted — it may corrupt at most noise_budget of the frames it
      // observes (the Hoza–Schulman corruption-fraction knob), so the
      // accounting runs per spec and corruption stops when the budget is
      // spent.
      NoiseState& ns = noise_[i];
      ++ns.seen;
      world_.metrics().add(m_noise_seen_);
      const bool in_budget =
          f.noise_budget <= 0.0 ||
          static_cast<double>(ns.corrupted) + 1.0 <=
              f.noise_budget * static_cast<double>(ns.seen);
      if (in_budget && channel_rng_.chance(f.noise_prob)) {
        ++ns.corrupted;
        world_.metrics().add(m_noise_corrupted_);
        world_.metrics().add(m_kind_noise_);
        world_.metrics().set(m_noise_budget_used_, static_cast<double>(ns.corrupted) /
                                                       static_cast<double>(ns.seen));
        const std::uint64_t inj_span = world_.next_span();
        report_injected(world_, FaultClass::kChannel, rx, inj_span, frame.packet.uid);
        report_detected(world_, FaultClass::kChannel, rx, 0, inj_span);
        return sim::DeliveryVerdict::kCorrupt;
      }
    }
  }
  return sim::DeliveryVerdict::kDeliver;
}

void InjectionEngine::tunnel_frame(std::size_t spec, const sim::Frame& frame,
                                   sim::NodeId near_end, sim::NodeId far_end, sim::Time now) {
  const WormholeFault& w = plan_.wormhole[spec];
  world_.metrics().add(m_wormhole_tunneled_);
  world_.metrics().add(m_kind_wormhole_);
  const std::uint64_t inj_span = world_.next_span();
  report_injected(world_, FaultClass::kProtocol, near_end, inj_span, frame.packet.uid);
  // The claimed transmitter's position is snapshotted at capture time: that
  // is what a leash carried inside the frame would attest to.
  const sim::Vec2 origin = world_.node(frame.tx).position();
  world_.sched().schedule_at(now + w.latency_s,
                             [this, frame, near_end, far_end, origin, inj_span] {
                               replay_at(frame, near_end, far_end, origin, inj_span);
                             });
}

void InjectionEngine::replay_at(const sim::Frame& frame, sim::NodeId near_end,
                                sim::NodeId far_end, sim::Vec2 origin, std::uint64_t inj_span) {
  sim::Node& mouth = world_.node(far_end);
  if (mouth.down()) return;
  const double range = world_.medium().tx_range();
  world_.nodes_within(mouth.position(), range, wormhole_scratch_);
  const double duration = mouth.mac().frame_airtime(frame.packet.size_bytes);
  bool leash_booked = false;
  world_.medium().deliver(frame, duration, wormhole_scratch_, [&](sim::NodeId id) {
    // The colluders and the original transmitter never hear the replay —
    // the tunnel exists to fool everyone else.
    if (id == far_end || id == near_end || id == frame.tx || world_.node(id).down()) {
      return sim::DeliveryVerdict::kDrop;
    }
    if (options_.geo_leash && sim::distance(world_.node(id).position(), origin) > range) {
      // Geographic packet leash (Hu–Perrig–Johnson): the frame claims a
      // transmitter too far away to be physically audible, so the receiver
      // rejects it. Booked as one detection per tunneled frame, matching
      // the one injection the capture booked.
      world_.metrics().add_named("fault.wormhole.leash_rejected");
      if (!leash_booked) {
        leash_booked = true;
        report_detected(world_, FaultClass::kProtocol, near_end, 0, inj_span);
      }
      return sim::DeliveryVerdict::kDrop;
    }
    return sim::DeliveryVerdict::kDeliver;
  });
}

void InjectionEngine::apply_down(std::size_t spec) {
  const NodeFault& f = plan_.node[spec];
  const bool want_down = f.down.active_at(world_.now());
  sim::Node& node = world_.node(f.node);
  if (want_down == node.down()) return;
  node.set_down(want_down);
  if (want_down) {
    report_injected(world_, FaultClass::kNode, f.node, world_.next_span(), 0);
  }
}

void InjectionEngine::schedule_down_edges(std::size_t spec) {
  const sim::Time next = plan_.node[spec].down.next_transition(world_.now());
  if (std::isinf(next)) return;
  world_.sched().schedule_at(next + kEdgeDelay, [this, spec] {
    apply_down(spec);
    schedule_down_edges(spec);
  });
}

void InjectionEngine::apply_slow(std::size_t spec) {
  const NodeFault& f = plan_.node[spec];
  if (f.slow.active_at(world_.now())) {
    report_injected(world_, FaultClass::kNode, f.node, world_.next_span(), 0);
  }
}

void InjectionEngine::schedule_slow_edges(std::size_t spec) {
  const sim::Time next = plan_.node[spec].slow.next_transition(world_.now());
  if (std::isinf(next)) return;
  world_.sched().schedule_at(next + kEdgeDelay, [this, spec] {
    apply_slow(spec);
    schedule_slow_edges(spec);
  });
}

}  // namespace icc::fault

#include "traced_world.hpp"

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <map>
#include <stdexcept>

#include "aodv/aodv.hpp"
#include "aodv/guard.hpp"
#include "aodv/misbehavior.hpp"
#include "core/framework.hpp"
#include "crypto/model_scheme.hpp"
#include "fault/ledger.hpp"
#include "sim/world.hpp"
#include "traffic/cbr.hpp"

namespace perfbench {

namespace {

using icc::net::EventTag;
using icc::sim::NodeId;
using icc::sim::Port;

/// Sampling interval of queue depths, in simulated seconds.
constexpr icc::sim::Time kChunk = 0.05;

/// `fn` run inside a span; an empty `fn` stays empty, so code that tests a
/// callback for presence sees what it would have seen undecorated.
template <typename R, typename... Args>
std::function<R(Args...)> in_span(LayerTrace& trace, SpanId span, std::function<R(Args...)> fn) {
  if (!fn) return {};
  return [&trace, span, fn = std::move(fn)](Args... args) -> R {
    const LayerTrace::Scope scope{trace, span};
    return fn(std::forward<Args>(args)...);
  };
}

[[noreturn]] void unexpected(Layer layer, const char* what) {
  throw std::logic_error(std::string{"perfbench: the "} +
                         (layer == Layer::kRouting ? "routing" : "inner-circle") +
                         " layer registered an unexpected " + what +
                         "; give it a span in traced_world.cpp");
}

/// The one Packet receiver per layer and port.
SpanId rx_span(Layer layer, Port port) {
  if (layer == Layer::kRouting && port == Port::kAodv) return SpanId::kAodvCtlRx;
  if (layer == Layer::kRouting && port == Port::kCbr) return SpanId::kAodvDataRx;
  if (layer == Layer::kInnerCircle && port == Port::kSts) return SpanId::kCoreStsRx;
  if (layer == Layer::kInnerCircle && port == Port::kIvs) return SpanId::kCoreIvsRx;
  unexpected(layer, "port handler");
}

/// CBR connections schedule on their source Aodv's host with the traffic
/// tag; everything else a layer schedules is that layer's own timer.
SpanId timer_span(Layer layer, EventTag tag) {
  if (layer == Layer::kInnerCircle) return SpanId::kCoreTimer;
  return tag == EventTag::kTraffic ? SpanId::kCbrTimer : SpanId::kAodvTimer;
}

}  // namespace

icc::net::TimerId TracedClock::schedule_at(icc::net::Time t, std::function<void()> fn,
                                           EventTag tag) {
  return inner_.schedule_at(t, in_span(trace_, timer_span(layer_, tag), std::move(fn)), tag);
}

void TracedTransport::send(icc::net::Packet packet, icc::net::NodeId next_hop) {
  const LayerTrace::Scope scope{trace_, SpanId::kSend};
  inner_.send(std::move(packet), next_hop);
}

void TracedTransport::send_unfiltered(icc::net::Packet packet, icc::net::NodeId next_hop) {
  const LayerTrace::Scope scope{trace_, SpanId::kSend};
  inner_.send_unfiltered(std::move(packet), next_hop);
}

void TracedTransport::register_handler(icc::net::Port port, icc::net::Handler handler) {
  inner_.register_handler(port, in_span(trace_, rx_span(layer_, port), std::move(handler)));
}

void TracedTransport::add_inbound_filter(icc::net::InboundFilter f) {
  if (layer_ != Layer::kInnerCircle) unexpected(layer_, "inbound filter");
  inner_.add_inbound_filter(in_span(trace_, SpanId::kCoreFilterIn, std::move(f)));
}

void TracedTransport::add_outbound_filter(icc::net::OutboundFilter f) {
  if (layer_ != Layer::kInnerCircle) unexpected(layer_, "outbound filter");
  inner_.add_outbound_filter(in_span(trace_, SpanId::kCoreFilterOut, std::move(f)));
}

void TracedTransport::set_send_failed_handler(icc::net::SendFailedHandler h) {
  if (layer_ != Layer::kRouting) unexpected(layer_, "send-failure handler");
  inner_.set_send_failed_handler(in_span(trace_, SpanId::kAodvLinkFail, std::move(h)));
}

namespace {

class TracedSigner final : public icc::crypto::ThresholdSigner {
 public:
  TracedSigner(std::unique_ptr<icc::crypto::ThresholdSigner> inner, LayerTrace& trace)
      : inner_{std::move(inner)}, trace_{trace} {}
  [[nodiscard]] std::uint32_t id() const override { return inner_->id(); }
  [[nodiscard]] icc::crypto::PartialSig partial_sign(
      int level, std::span<const std::uint8_t> msg) const override {
    const LayerTrace::Scope scope{trace_, SpanId::kCryptoPartialSign};
    return inner_->partial_sign(level, msg);
  }

 private:
  std::unique_ptr<icc::crypto::ThresholdSigner> inner_;
  LayerTrace& trace_;
};

class TracedNodeSigner final : public icc::crypto::NodeSigner {
 public:
  TracedNodeSigner(std::unique_ptr<icc::crypto::NodeSigner> inner, LayerTrace& trace)
      : inner_{std::move(inner)}, trace_{trace} {}
  [[nodiscard]] std::uint32_t id() const override { return inner_->id(); }
  [[nodiscard]] std::vector<std::uint8_t> sign(std::span<const std::uint8_t> msg) const override {
    const LayerTrace::Scope scope{trace_, SpanId::kCryptoPkiSign};
    return inner_->sign(msg);
  }

 private:
  std::unique_ptr<icc::crypto::NodeSigner> inner_;
  LayerTrace& trace_;
};

}  // namespace

std::unique_ptr<icc::crypto::ThresholdSigner> TracedScheme::issue_signer(std::uint32_t id) {
  return std::make_unique<TracedSigner>(inner_.issue_signer(id), trace_);
}

bool TracedScheme::verify_partial(std::span<const std::uint8_t> msg,
                                  const icc::crypto::PartialSig& ps) const {
  const LayerTrace::Scope scope{trace_, SpanId::kCryptoVerifyPartial};
  return inner_.verify_partial(msg, ps);
}

std::optional<icc::crypto::ThresholdSignature> TracedScheme::combine(
    int level, std::span<const std::uint8_t> msg,
    std::span<const icc::crypto::PartialSig> partials) const {
  const LayerTrace::Scope scope{trace_, SpanId::kCryptoCombine};
  return inner_.combine(level, msg, partials);
}

bool TracedScheme::verify(std::span<const std::uint8_t> msg,
                          const icc::crypto::ThresholdSignature& sig) const {
  const LayerTrace::Scope scope{trace_, SpanId::kCryptoVerify};
  return inner_.verify(msg, sig);
}

std::unique_ptr<icc::crypto::NodeSigner> TracedPki::issue_signer(std::uint32_t id) {
  return std::make_unique<TracedNodeSigner>(inner_.issue_signer(id), trace_);
}

bool TracedPki::verify(std::uint32_t id, std::span<const std::uint8_t> msg,
                       std::span<const std::uint8_t> sig) const {
  const LayerTrace::Scope scope{trace_, SpanId::kCryptoPkiVerify};
  return inner_.verify(id, msg, sig);
}

icc::crypto::Ciphertext TracedCipher::encrypt(std::uint32_t to,
                                              std::span<const std::uint8_t> plain) const {
  const LayerTrace::Scope scope{trace_, SpanId::kCryptoCipher};
  return inner_.encrypt(to, plain);
}

std::optional<std::vector<std::uint8_t>> TracedCipher::decrypt(
    std::uint32_t me, const icc::crypto::Ciphertext& ct) const {
  const LayerTrace::Scope scope{trace_, SpanId::kCryptoCipher};
  return inner_.decrypt(me, ct);
}

namespace {

/// run_blackhole_experiment's world, built in the same order (RNG forks,
/// node ids, registrations) with decorated hosts and crypto. Members are
/// declared so that destruction runs in the entry point's order:
/// connections, guards, circles, agents, then crypto, then the world.
class Composition {
 public:
  Composition(const icc::aodv::BlackholeExperimentConfig& config, LayerTrace& trace);

  icc::sim::World& world() { return *world_; }

 private:
  std::unique_ptr<icc::sim::World> world_;
  icc::crypto::ModelThresholdScheme model_scheme_;
  icc::crypto::ModelPki model_pki_;
  icc::crypto::ModelCipher model_cipher_;
  TracedScheme scheme_;
  TracedPki pki_;
  TracedCipher cipher_;
  std::vector<std::unique_ptr<TracedHost>> hosts_;
  std::vector<std::unique_ptr<icc::aodv::Aodv>> agents_;
  std::vector<std::unique_ptr<icc::core::InnerCircleNode>> circles_;
  std::vector<std::unique_ptr<icc::aodv::AodvGuard>> guards_;
  std::vector<std::unique_ptr<icc::traffic::CbrConnection>> connections_;
};

icc::sim::WorldConfig world_config(const icc::aodv::BlackholeExperimentConfig& config) {
  if (config.watchdog || config.aodvsec || config.geo_leash || !config.plan.channel.empty() ||
      !config.plan.node.empty() || !config.plan.wormhole.empty()) {
    throw std::invalid_argument(
        "perfbench: the traced composition models no watchdog, AODVSEC, leash or "
        "channel/node/wormhole faults");
  }
  icc::sim::WorldConfig wc;
  wc.width = config.area;
  wc.height = config.area;
  wc.tx_range = config.tx_range;
  wc.seed = config.seed;
  wc.spatial_grid = config.spatial_grid;
  wc.sim_threads = config.sim_threads;
  return wc;
}

Composition::Composition(const icc::aodv::BlackholeExperimentConfig& config, LayerTrace& trace)
    : world_{std::make_unique<icc::sim::World>(world_config(config))},
      model_scheme_{config.seed, std::max(config.level, 1), config.key_bits},
      model_pki_{config.seed ^ 0x5A5Aull, config.key_bits},
      scheme_{model_scheme_, trace},
      pki_{model_pki_, trace},
      cipher_{model_cipher_, trace} {
  icc::sim::World& world = *world_;
  if (config.world_hook) config.world_hook(world);
  icc::sim::Rng layout_rng = world.fork_rng(0xB1ACull);

  icc::fault::FaultPlan plan = config.plan;
  if (plan.protocol.empty() && config.num_malicious > 0) {
    plan.protocol = icc::fault::gray_hole_plan(config.num_malicious, config.gray_on_period,
                                               config.gray_off_period)
                        .protocol;
  }
  if (const std::string err = plan.validate(); !err.empty()) {
    throw std::invalid_argument("perfbench: invalid fault plan: " + err);
  }
  std::map<NodeId, const icc::fault::ProtocolFault*> attackers;
  for (const icc::fault::ProtocolFault& spec : plan.protocol) attackers.emplace(spec.node, &spec);

  const int n = config.num_nodes;
  for (int i = 0; i < n; ++i) {
    icc::sim::RandomWaypoint::Params mob;
    mob.width = config.area;
    mob.height = config.area;
    mob.min_speed = 1.0;
    mob.max_speed = config.max_speed;
    mob.pause = 0.0;
    const icc::sim::Vec2 start = layout_rng.point_in(config.area, config.area);
    icc::sim::Node& node = world.add_node(std::make_unique<icc::sim::RandomWaypoint>(
        mob, start, world.fork_rng(0x6D6F62ull + static_cast<std::uint64_t>(i))));

    hosts_.push_back(std::make_unique<TracedHost>(node, trace, Layer::kRouting));
    const auto attacker = attackers.find(static_cast<NodeId>(i));
    const bool malicious = attacker != attackers.end();
    if (malicious) {
      agents_.push_back(std::make_unique<icc::aodv::MisbehaviorAodv>(
          *hosts_.back(), icc::aodv::Aodv::Params{}, *attacker->second));
    } else {
      agents_.push_back(
          std::make_unique<icc::aodv::Aodv>(*hosts_.back(), icc::aodv::Aodv::Params{}));
    }

    if (config.inner_circle && !malicious) {
      icc::core::InnerCircleConfig icc_config;
      icc_config.level = config.level;
      icc_config.circle_hops = config.circle_hops;
      icc_config.mode = icc::core::VotingMode::kDeterministic;
      icc_config.sts.delta_sts = config.delta_sts;
      icc_config.ivs.cost = config.cost;
      hosts_.push_back(std::make_unique<TracedHost>(node, trace, Layer::kInnerCircle));
      circles_.push_back(std::make_unique<icc::core::InnerCircleNode>(
          *hosts_.back(), icc_config, scheme_, pki_, cipher_));
      guards_.push_back(std::make_unique<icc::aodv::AodvGuard>(*agents_.back(), *circles_.back(),
                                                               icc::aodv::SecParams{}));
      icc::core::Callbacks& callbacks = circles_.back()->callbacks();
      callbacks.check = in_span(trace, SpanId::kGuardCheck, std::move(callbacks.check));
      callbacks.on_agreed = in_span(trace, SpanId::kGuardAgreed, std::move(callbacks.on_agreed));
      circles_.back()->start();
    }
    icc::traffic::CbrConnection::attach_sink(*agents_.back());
  }

  icc::sim::Rng traffic_rng = world.fork_rng(0xCB12ull);
  const auto pick_correct = [&] {
    return static_cast<NodeId>(traffic_rng.uniform_int(
        static_cast<std::uint32_t>(config.num_malicious), static_cast<std::uint32_t>(n - 1)));
  };
  for (int c = 0; c < config.num_connections; ++c) {
    const NodeId src = pick_correct();
    NodeId dst = pick_correct();
    while (dst == src) dst = pick_correct();
    icc::traffic::CbrConnection::Params params;
    params.rate_pps = config.rate_pps;
    params.packet_bytes = config.packet_bytes;
    params.start = config.traffic_start + traffic_rng.uniform(0.0, 1.0);
    params.stop = config.sim_time;
    connections_.push_back(
        std::make_unique<icc::traffic::CbrConnection>(*agents_[src], dst, params));
  }
}

double counter(icc::sim::World& world, const char* name) {
  return world.metrics().counter_value(name);
}

double ratio(double num, double den) { return den > 0.0 ? num / den : 0.0; }

}  // namespace

TracedRun run_traced(const icc::aodv::BlackholeExperimentConfig& config, const Markers& markers) {
  LayerTrace trace;
  auto composition = std::make_unique<Composition>(config, trace);
  icc::sim::World& world = composition->world();
  world.sched().enable_profiling(true);
  trace.reset();  // spans opened while building the world are set-up, not run

  std::size_t pending_peak = 0;
  std::size_t on_air_peak = 0;
  std::size_t mac_queue_peak = 0;
  double run_wall_s = 0.0;
  for (long k = 1;; ++k) {
    const icc::sim::Time until = std::min(static_cast<double>(k) * kChunk, config.sim_time);
    const double t0 = host_seconds();
    world.run_until(until);
    run_wall_s += host_seconds() - t0;
    pending_peak = std::max(pending_peak, world.sched().pending_count());
    on_air_peak = std::max(on_air_peak, world.medium().on_air_count(world.now()));
    for (NodeId i = 0; i < world.num_nodes(); ++i) {
      mac_queue_peak = std::max(mac_queue_peak, world.node(i).mac().queue_depth());
    }
    if (until >= config.sim_time) break;
  }

  TracedRun out;
  Signature& sig = out.outputs.signature;
  sig.events = world.sched().executed() - static_cast<std::uint64_t>(markers.count);
  sig.frames = world.medium().frames_sent();
  sig.cbr_sent = static_cast<std::uint64_t>(counter(world, "cbr.sent"));
  sig.cbr_received = static_cast<std::uint64_t>(counter(world, "cbr.received"));
  sig.collisions = world.medium().collisions();
  sig.voting_rounds = static_cast<std::uint64_t>(counter(world, "ivs.rounds_started"));
  sig.mean_energy_j = world.mean_energy_joules();
  out.outputs.coverage_consistent = icc::fault::CoverageLedger{world}.consistent();
  out.outputs.node_energy_count = world.num_nodes();
  out.exec_threads = world.exec_threads();

  const icc::sim::SchedulerProfile& profile = world.sched().profile();
  const LayerTrace::Totals spans = trace.totals();
  double protocol_self_s = 0.0;
  for (std::size_t i = 0; i < kNumSpans; ++i) {
    if (static_cast<SpanId>(i) != SpanId::kSend) protocol_self_s += spans.self_s[i];
  }
  const double event_wall_s = profile.wall_total_seconds();
  const int threads = out.exec_threads;
  std::uint64_t unicast_failures = 0;
  for (NodeId i = 0; i < world.num_nodes(); ++i) {
    unicast_failures += world.node(i).mac().unicast_failures();
  }
  const double rounds_started = counter(world, "ivs.rounds_started");
  const double rounds_completed = counter(world, "ivs.rounds_completed");

  auto& m = out.metrics;
  // Thread time the loop spent outside events: window formation, commit and
  // barrier waits under the executive, queue operations serially.
  m.emplace_back("sched.loop_self_s", std::max(1, threads) * run_wall_s - event_wall_s);
  m.emplace_back("sched.events", static_cast<double>(sig.events));
  m.emplace_back("sched.pending_peak", static_cast<double>(pending_peak));
  for (const EventTag tag : {EventTag::kGeneric, EventTag::kMac, EventTag::kMobility,
                             EventTag::kTraffic, EventTag::kRouting, EventTag::kVoting}) {
    const auto t = static_cast<std::size_t>(tag);
    const std::string stem = std::string{"sched.tag."} + icc::net::event_tag_name(tag);
    std::uint64_t events = profile.executed[t];
    if (tag == EventTag::kGeneric) events -= static_cast<std::uint64_t>(markers.count);
    m.emplace_back(stem + ".events", static_cast<double>(events));
    m.emplace_back(stem + ".wall_s", profile.wall_seconds[t]);
  }
  m.emplace_back("exec.threads", threads);
  m.emplace_back("exec.event_cpu_s", threads > 0 ? event_wall_s : 0.0);
  m.emplace_back("exec.busy_share", threads > 0 ? ratio(event_wall_s, threads * run_wall_s) : 0.0);
  m.emplace_back("substrate.self_s", event_wall_s - protocol_self_s);
  m.emplace_back("medium.frames", static_cast<double>(sig.frames));
  m.emplace_back("medium.collisions", static_cast<double>(sig.collisions));
  m.emplace_back("medium.on_air_peak", static_cast<double>(on_air_peak));
  m.emplace_back("mac.unicast_failures", static_cast<double>(unicast_failures));
  m.emplace_back("mac.queue_peak", static_cast<double>(mac_queue_peak));
  for (std::size_t i = 0; i < kNumSpans; ++i) {
    if (static_cast<SpanId>(i) == SpanId::kSend) continue;
    const std::string stem = span_name(static_cast<SpanId>(i));
    m.emplace_back(stem + ".calls", static_cast<double>(spans.calls[i]));
    m.emplace_back(stem + ".self_s", spans.self_s[i]);
  }
  m.emplace_back("aodv.rreq_sent", counter(world, "aodv.rreq_sent"));
  m.emplace_back("aodv.rrep_sent", counter(world, "aodv.rrep_sent"));
  m.emplace_back("aodv.data_forwarded", counter(world, "aodv.data_forwarded"));
  m.emplace_back("cbr.sent", static_cast<double>(sig.cbr_sent));
  m.emplace_back("cbr.received", static_cast<double>(sig.cbr_received));
  m.emplace_back("cbr.delivery", ratio(static_cast<double>(sig.cbr_received),
                                       static_cast<double>(sig.cbr_sent)));
  m.emplace_back("sts.beacons_sent", counter(world, "sts.beacons_sent"));
  m.emplace_back("ivs.rounds_started", rounds_started);
  m.emplace_back("ivs.rounds_completed", rounds_completed);
  m.emplace_back("ivs.round_completion", ratio(rounds_completed, rounds_started));

  const double t0 = host_seconds();
  composition.reset();
  m.emplace_back("teardown_s", host_seconds() - t0);
  return out;
}

}  // namespace perfbench

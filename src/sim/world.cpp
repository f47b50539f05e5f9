#include "sim/world.hpp"

#include <algorithm>
#include <cstdio>

#include "exp/env.hpp"
#include "sim/exec.hpp"

namespace icc::sim {

namespace {
/// Movement budget a binned node may consume before re-binning, as a
/// fraction of the grid cell size. Smaller slack widens nothing: it shrinks
/// the query window (radius + slack) and therefore the candidate count,
/// while re-bin deadlines stay tens of seconds apart at vehicular speeds —
/// re-binning is measured in hundreds of ops per simulated second against
/// millions of scheduler events. See DESIGN.md §11 for the trade-off.
constexpr double kGridSlackFraction = 0.1;
}  // namespace

World::World(WorldConfig config)
    : config_{config},
      medium_{*this, config.tx_range, config.tx_range * config.cs_range_factor, config.width,
              config.height},
      rng_{config.seed},
      grid_{*this, config.width, config.height,
            std::max(config.tx_range, config.tx_range * config.cs_range_factor),
            kGridSlackFraction *
                std::max(config.tx_range, config.tx_range * config.cs_range_factor)} {
  // Resolve the within-run thread count first: enabling the partitioned
  // scheduler is only legal before anything is scheduled, and the health
  // sampler below schedules.
  int threads = config_.sim_threads;
  if (threads < 0) threads = exp::env_int("ICC_SIM_THREADS", 0);
  if (threads < 0) threads = 0;
  if (threads > 0 && !config_.spatial_grid) {
    // The brute-force neighbor scan reads every node's live position, which
    // the conflict-radius argument cannot cover.
    std::fprintf(stderr, "icc: warning: ICC_SIM_THREADS requires spatial_grid; "
                         "running the legacy serial engine\n");
    threads = 0;
  }
  if (threads > 0 && !(config_.mac.preamble > 0.0)) {
    // The executive's lookahead is the guaranteed minimum frame airtime —
    // the preamble. Without one there is no conservative window.
    std::fprintf(stderr, "icc: warning: ICC_SIM_THREADS requires a positive MAC "
                         "preamble (lookahead); running the legacy serial engine\n");
    threads = 0;
  }
  exec_threads_ = threads;
  if (exec_threads_ > 0) sched_.enable_partitioned();
  tracer_.configure_from_env();
  if (exp::env_int("ICC_PROFILE", 0) != 0) sched_.enable_profiling(true);
  health_interval_ = exp::env_double("ICC_TRACE_HEALTH", 0.0);
  // Arm only when someone is listening: a self-rescheduling sampler would
  // otherwise keep an idle scheduler alive forever.
  if (health_interval_ > 0.0 && tracer_.enabled(TraceCategory::kHealth)) {
    health_per_node_ = exp::env_int("ICC_TRACE_HEALTH_NODES", 0) != 0;
    sched_.schedule_in(health_interval_, [this] { health_sample(); });
  }
}

void World::health_sample() {
  const Time t = now();
  const std::uint64_t executed = sched_.executed();
  // "Scheduler lag" deliberately means events-per-sample plus queue depth,
  // not wall-clock: traces must stay a pure function of the seed.
  tracer_.emit({t, TraceType::kHealthSample, kNoNode, kNoNode, 0, 0,
                static_cast<double>(sched_.pending_count()), "sched.pending"});
  tracer_.emit({t, TraceType::kHealthSample, kNoNode, kNoNode, 0, 0,
                static_cast<double>(executed - health_last_executed_), "sched.events"});
  tracer_.emit({t, TraceType::kHealthSample, kNoNode, kNoNode, 0, 0,
                static_cast<double>(medium_.on_air_count(t)), "air.on_air"});
  tracer_.emit({t, TraceType::kHealthSample, kNoNode, kNoNode, 0, 0, mean_energy_joules(),
                "energy.mean_j"});
  if (health_per_node_) {
    for (NodeId i = 0; i < num_nodes(); ++i) {
      tracer_.emit({t, TraceType::kHealthSample, i, kNoNode, 0, 0,
                    node(i).energy().total_joules(config_.energy, t), "energy_j"});
    }
  }
  health_last_executed_ = executed;
  sched_.schedule_in(health_interval_, [this] { health_sample(); });
}

World::~World() = default;

void World::run_until(Time end) {
  if (exec_threads_ > 0) {
    if (!exec_) exec_ = std::make_unique<Executive>(*this, exec_threads_);
    exec_->run_until(end);
    return;
  }
  sched_.run_until(end);
}

std::uint64_t World::next_packet_uid() noexcept {
  if (ExecContext* ctx = exec_ctx(); ctx != nullptr) {
    return ctx->exec->gated_next_uid(*ctx);
  }
  return next_uid_++;
}

std::uint64_t World::next_span() noexcept { return next_packet_uid(); }

Node& World::add_node(std::unique_ptr<Mobility> mobility) {
  const NodeId id = static_cast<NodeId>(nodes_.size());
  sched_.register_owner(id);
  nodes_.push_back(std::make_unique<Node>(*this, id, std::move(mobility), config_.mac));
  {
    // Mobility events belong to the node they move.
    ScopedEventOwner owner{sched_, id};
    nodes_.back()->mobility().start(sched_);
  }
  bump_position_epoch();  // the spatial index must pick the node up
  return *nodes_.back();
}

void World::nodes_within(Vec2 center, double radius, std::vector<NodeId>& out) const {
  // Worker-thread queries must stay inside the conflict radius (which is
  // sized for tx/cs-range interactions); wider oracle queries (wormhole
  // tunnels, test sweeps) are serial-only by construction.
  ICC_ASSERT(exec_ctx() == nullptr || radius <= config_.tx_range,
             "executive worker queries are bounded by tx_range");
  if (config_.spatial_grid) {
    grid_.query(center, radius, now(), out);
    return;
  }
  out.clear();
  for (NodeId i = 0; i < num_nodes(); ++i) {
    if (distance(center, node(i).position()) <= radius) out.push_back(i);
  }
}

std::vector<NodeId> World::true_neighbors(NodeId id, bool live_only) const {
  std::vector<NodeId> out;
  nodes_within(node(id).position(), config_.tx_range, out);
  std::erase_if(out, [&](NodeId i) { return i == id || (live_only && node(i).down()); });
  return out;
}

double World::mean_energy_joules() const {
  if (nodes_.empty()) return 0.0;
  double sum = 0.0;
  for (const auto& n : nodes_) {
    sum += n->energy().total_joules(config_.energy, now());
  }
  return sum / static_cast<double>(nodes_.size());
}

}  // namespace icc::sim

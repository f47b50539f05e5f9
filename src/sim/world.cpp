#include "sim/world.hpp"

#include <algorithm>

#include "exp/env.hpp"

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

Node& World::add_node(std::unique_ptr<Mobility> mobility) {
  const NodeId id = static_cast<NodeId>(nodes_.size());
  nodes_.push_back(std::make_unique<Node>(*this, id, std::move(mobility), config_.mac));
  nodes_.back()->mobility().start(sched_);
  bump_position_epoch();  // the spatial index must pick the node up
  return *nodes_.back();
}

void World::nodes_within(Vec2 center, double radius, std::vector<NodeId>& out) const {
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

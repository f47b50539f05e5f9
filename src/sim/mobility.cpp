#include "sim/mobility.hpp"

#include <algorithm>
#include <utility>

#include "sim/scheduler.hpp"

namespace icc::sim {

RandomWaypoint::RandomWaypoint(Params params, Vec2 start, Rng rng)
    : Mobility{Leg{start, start, 0.0, 0.0}}, params_{params}, rng_{std::move(rng)} {}

void RandomWaypoint::start(Scheduler& sched) { begin_leg(sched); }

void RandomWaypoint::begin_leg(Scheduler& sched) {
  Leg next;
  next.from = leg().to;
  next.to = rng_.point_in(params_.width, params_.height);
  const double speed =
      std::max(0.1, rng_.uniform(params_.min_speed, params_.max_speed));
  next.depart = sched.now();
  next.arrive = next.depart + distance(next.from, next.to) / speed;
  set_leg(next);
  sched.schedule_at(next.arrive + params_.pause, [this, &sched] { begin_leg(sched); },
                    EventTag::kMobility);
}

}  // namespace icc::sim

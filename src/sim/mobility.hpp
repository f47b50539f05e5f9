// Node mobility models.
//
// The AODV study uses the random waypoint model (10 m/s, pause 0 s); the
// sensor study uses static nodes. Positions are evaluated lazily from the
// current leg of movement, so queries are O(1) and no per-tick events exist.
#pragma once

#include <algorithm>
#include <memory>

#include "sim/rng.hpp"
#include "sim/types.hpp"
#include "sim/vec2.hpp"

namespace icc::sim {

class Scheduler;

/// Interface queried by the radio medium whenever a position is needed.
class Mobility {
 public:
  virtual ~Mobility() = default;

  /// Position of the node at simulated time `now`.
  [[nodiscard]] virtual Vec2 position(Time now) const = 0;

  /// Upper bound on the node's speed, in m/s, over its whole life. The
  /// spatial index (sim/grid.hpp) uses it to decide how long a cached cell
  /// assignment stays valid, so the bound must hold for every trajectory the
  /// model can produce. Models that cannot bound their speed (teleporting
  /// test doubles) must return +infinity, which degrades the cache to
  /// re-binning that node on every query — correct, just slower.
  [[nodiscard]] virtual double max_speed() const { return 0.0; }

  /// Hook to schedule waypoint-arrival events; called once when the node is
  /// added to the world.
  virtual void start(Scheduler& sched) { (void)sched; }
};

/// A node that never moves (sensor study).
class StaticMobility final : public Mobility {
 public:
  explicit StaticMobility(Vec2 pos) : pos_{pos} {}
  [[nodiscard]] Vec2 position(Time) const override { return pos_; }

 private:
  Vec2 pos_;
};

/// Random waypoint: pick a uniform destination in the area, travel at a
/// uniform-random speed in [min_speed, max_speed], pause, repeat.
class RandomWaypoint final : public Mobility {
 public:
  struct Params {
    double width{1000.0};
    double height{1000.0};
    double min_speed{1.0};
    double max_speed{10.0};
    double pause{0.0};
  };

  RandomWaypoint(Params params, Vec2 start, Rng rng);

  [[nodiscard]] Vec2 position(Time now) const override;
  /// Legs travel at max(0.1, uniform(min_speed, max_speed)) m/s.
  [[nodiscard]] double max_speed() const override {
    return std::max(0.1, params_.max_speed);
  }
  void start(Scheduler& sched) override;

 private:
  void begin_leg(Scheduler& sched);

  Params params_;
  Rng rng_;
  Vec2 from_;
  Vec2 to_;
  Time depart_{0.0};
  Time arrive_{0.0};
};

}  // namespace icc::sim

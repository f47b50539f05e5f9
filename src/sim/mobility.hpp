// Node mobility models.
//
// The AODV study uses the random waypoint model (10 m/s, pause 0 s); the
// sensor study uses static nodes. A model moves its node along straight
// legs and keeps the current one; a position is evaluated lazily from it
// (Leg::at), so queries are O(1) and no per-tick events exist.
#pragma once

#include <algorithm>
#include <memory>

#include "sim/rng.hpp"
#include "sim/types.hpp"
#include "sim/vec2.hpp"

namespace icc::sim {

class Scheduler;

/// One straight leg of a trajectory: at `from` until `depart`, moving at
/// constant speed to reach `to` at `arrive`, at `to` from then on. A leg
/// with arrive <= depart is a node standing at `to`.
struct Leg {
  Vec2 from;
  Vec2 to;
  Time depart{0.0};
  Time arrive{0.0};

  [[nodiscard]] Vec2 at(Time now) const noexcept {
    if (now >= arrive || arrive <= depart) return to;
    const double frac = (now - depart) / (arrive - depart);
    return from + (to - from) * frac;
  }
};

/// Base of every model: holds the current leg, which a model with motion
/// replaces as it moves.
class Mobility {
 public:
  virtual ~Mobility() = default;

  /// Position of the node at simulated time `now`.
  [[nodiscard]] Vec2 position(Time now) const { return leg_.at(now); }

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

 protected:
  explicit Mobility(const Leg& first) : leg_{first} {}

  [[nodiscard]] const Leg& leg() const { return leg_; }
  void set_leg(const Leg& leg) { leg_ = leg; }

 private:
  Leg leg_;
};

/// A node that never moves (sensor study).
class StaticMobility final : public Mobility {
 public:
  explicit StaticMobility(Vec2 pos) : Mobility{Leg{pos, pos, 0.0, 0.0}} {}
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

  /// Legs travel at max(0.1, uniform(min_speed, max_speed)) m/s.
  [[nodiscard]] double max_speed() const override {
    return std::max(0.1, params_.max_speed);
  }
  void start(Scheduler& sched) override;

 private:
  void begin_leg(Scheduler& sched);

  Params params_;
  Rng rng_;
};

}  // namespace icc::sim

// Uniform-grid spatial index over node positions.
//
// The radio hot path asks one question many times per simulated second:
// "which nodes are within range r of point p right now?". The brute-force
// answer scans all N nodes per query; this index bins nodes into square
// cells of side `cell_size` (= max(tx_range, cs_range), so any in-range
// query touches at most a 3x3 cell neighborhood) and answers from the bins.
//
// Nodes move continuously, so a bin is a *conservative* snapshot: node i is
// binned at the position it had at bin time, and the binning stays valid
// while the node is guaranteed to lie within `slack` meters of that
// snapshot — i.e. for slack / max_speed simulated seconds (Mobility
// promises the bound). A min-heap of re-bin deadlines refreshes exactly the
// nodes whose guarantee expired, so maintenance is O(log N) amortized per
// query instead of O(N). Queries search radius r + slack over the
// snapshots, then apply the *exact* predicate distance(p, pos(i)) <= r to
// each candidate — the same predicate, on the same positions, in the same
// ascending-NodeId order as the brute-force scan, so results (and hence
// traces, RNG draws, and reports) are bit-for-bit identical.
//
// Structural invalidation (nodes added, or a trajectory change that breaks
// the speed bound) is signalled by bumping World's position epoch; the grid
// rebuilds from scratch on the next query after an epoch change. In checked
// builds (ICC_CHECKED) every query cross-checks itself against the
// brute-force scan.
#pragma once

#include <cstdint>
#include <vector>

#include "sim/types.hpp"
#include "sim/vec2.hpp"

namespace icc::sim {

class World;

class SpatialGrid {
 public:
  /// `cell_size` is the bin side in meters; `slack` is the movement budget a
  /// binned node may consume before it must be re-binned (also the query
  /// search-radius padding, so larger slack = rarer re-bins but more
  /// candidates per query).
  SpatialGrid(const World& world, double width, double height, double cell_size,
              double slack);

  /// Append to `out` the ids of every node (up or down) whose exact current
  /// position is within `radius` of `center`, in ascending NodeId order.
  /// Requires radius + slack <= 2 * cell_size (3x3 neighborhood bound);
  /// larger radii widen the cell window and stay correct, just slower.
  void query(Vec2 center, double radius, Time now, std::vector<NodeId>& out);

  /// Re-bins handed out since construction (rebuilds count each node once).
  [[nodiscard]] std::uint64_t rebins() const noexcept { return rebins_; }

 private:
  struct Bin {
    std::uint32_t cell{0};
    Time deadline{0.0};  ///< snapshot guarantee expiry (+inf for static nodes)
    Vec2 snap{};         ///< position at bin time (query prefilter)
  };

  void refresh(Time now);
  void rebuild(Time now);
  void rebin(NodeId id, Time now);
  [[nodiscard]] std::uint32_t cell_of(Vec2 p) const;
  [[nodiscard]] std::uint32_t clamp_x(double x) const;
  [[nodiscard]] std::uint32_t clamp_y(double y) const;

  const World& world_;
  double cell_size_;
  double slack_;
  std::uint32_t nx_;
  std::uint32_t ny_;
  std::vector<std::vector<NodeId>> cells_;  ///< cell -> member ids (unsorted)
  std::vector<Bin> bins_;                   ///< per-node current bin
  /// Min-heap of (deadline, node); entries whose deadline no longer matches
  /// bins_[node].deadline are stale and skipped on pop (lazy deletion).
  std::vector<std::pair<Time, NodeId>> heap_;
  std::uint64_t built_epoch_{0};
  bool built_{false};
  std::uint64_t rebins_{0};
};

}  // namespace icc::sim

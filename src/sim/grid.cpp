#include "sim/grid.hpp"

#include <algorithm>
#include <cmath>
#include <functional>
#include <limits>

#include "sim/check.hpp"
#include "sim/world.hpp"

namespace icc::sim {

namespace {
// Deadlines are computed from the speed bound with a hair of headroom so
// floating-point rounding in the drift integral can never push a node past
// its slack budget while its bin is still considered valid.
constexpr double kDeadlineSafety = 0.999;
}  // namespace

SpatialGrid::SpatialGrid(const World& world, double width, double height,
                         double cell_size, double slack)
    : world_{world}, cell_size_{cell_size}, slack_{slack} {
  const auto cells_along = [this](double extent) {
    const double n = std::ceil(extent / cell_size_);
    return n >= 1.0 ? static_cast<std::uint32_t>(n) : 1u;
  };
  nx_ = cells_along(width);
  ny_ = cells_along(height);
  cells_.resize(static_cast<std::size_t>(nx_) * ny_);
}

std::uint32_t SpatialGrid::clamp_x(double x) const {
  const double c = std::floor(x / cell_size_);
  if (!(c > 0.0)) return 0;  // also catches NaN
  if (c >= static_cast<double>(nx_ - 1)) return nx_ - 1;
  return static_cast<std::uint32_t>(c);
}

std::uint32_t SpatialGrid::clamp_y(double y) const {
  const double c = std::floor(y / cell_size_);
  if (!(c > 0.0)) return 0;
  if (c >= static_cast<double>(ny_ - 1)) return ny_ - 1;
  return static_cast<std::uint32_t>(c);
}

std::uint32_t SpatialGrid::cell_of(Vec2 p) const { return clamp_y(p.y) * nx_ + clamp_x(p.x); }

void SpatialGrid::rebin(NodeId id, Time now) {
  const Vec2 p = world_.node(id).position();
  const std::uint32_t cell = cell_of(p);
  Bin& bin = bins_[id];
  if (built_ && bin.cell != cell) {
    std::vector<NodeId>& old_members = cells_[bin.cell];
    old_members.erase(std::find(old_members.begin(), old_members.end(), id));
    cells_[cell].push_back(id);
  } else if (!built_) {
    cells_[cell].push_back(id);
  }
  const double speed = world_.node(id).mobility().max_speed();
  bin.cell = cell;
  bin.snap = p;
  bin.deadline = speed > 0.0 ? now + kDeadlineSafety * slack_ / speed
                             : std::numeric_limits<double>::infinity();
  if (bin.deadline < std::numeric_limits<double>::infinity()) {
    heap_.emplace_back(bin.deadline, id);
    std::push_heap(heap_.begin(), heap_.end(), std::greater<>{});
  }
  ++rebins_;
}

void SpatialGrid::rebuild(Time now) {
  for (std::vector<NodeId>& members : cells_) members.clear();
  heap_.clear();
  bins_.assign(world_.num_nodes(), Bin{});
  built_ = false;
  for (NodeId id = 0; id < world_.num_nodes(); ++id) rebin(id, now);
  built_ = true;
  built_epoch_ = world_.position_epoch();
}

void SpatialGrid::refresh(Time now) {
  if (!built_ || built_epoch_ != world_.position_epoch()) {
    rebuild(now);
    return;
  }
  while (!heap_.empty() && heap_.front().first < now) {
    const auto [deadline, id] = heap_.front();
    std::pop_heap(heap_.begin(), heap_.end(), std::greater<>{});
    heap_.pop_back();
    // Lazy deletion: the node was re-binned since this entry was pushed.
    if (bins_[id].deadline != deadline) continue;
    rebin(id, now);
  }
}

void SpatialGrid::query(Vec2 center, double radius, Time now, std::vector<NodeId>& out) {
  refresh(now);
  out.clear();
  const double reach = radius + slack_;
  const std::uint32_t x0 = clamp_x(center.x - reach);
  const std::uint32_t x1 = clamp_x(center.x + reach);
  const std::uint32_t y0 = clamp_y(center.y - reach);
  const std::uint32_t y1 = clamp_y(center.y + reach);
  // Exact membership predicate, in squared-distance form: sqrt is monotone,
  // so `norm2 <= radius^2` selects the same set as `distance <= radius`
  // except where the true distance sits within ~1 ulp of radius (hypot is
  // correctly rounded; the squared form rounds twice). Positions are
  // continuous random variables, so that knife edge has measure zero — and
  // the golden-trace suite pins it empirically: every default-seed scenario
  // is byte-identical to the legacy hypot path.
  const double radius2 = radius * radius;
  // Snapshot prefilter: a node whose bin-time snapshot is farther than
  // radius + slack from the center cannot satisfy the exact predicate (its
  // true position is within slack of the snapshot), so skipping it changes
  // nothing; it trims candidates before the live-position read.
  const double reach2 = reach * reach;
  for (std::uint32_t cy = y0; cy <= y1; ++cy) {
    for (std::uint32_t cx = x0; cx <= x1; ++cx) {
      for (const NodeId id : cells_[static_cast<std::size_t>(cy) * nx_ + cx]) {
        if ((bins_[id].snap - center).norm2() > reach2) continue;
        if ((world_.node(id).position() - center).norm2() <= radius2) out.push_back(id);
      }
    }
  }
  std::sort(out.begin(), out.end());

#if ICC_CHECKED_ENABLED
  // Cross-check: the grid must reproduce a brute-force sweep (same
  // predicate) exactly. This guards the binning/deadline machinery.
  std::vector<NodeId> brute;
  for (NodeId id = 0; id < world_.num_nodes(); ++id) {
    if ((world_.node(id).position() - center).norm2() <= radius2) brute.push_back(id);
  }
  ICC_CHECK(out == brute,
            "spatial grid diverged from the brute-force neighbor scan "
            "(stale bin or broken Mobility::max_speed bound)");
#endif
}

}  // namespace icc::sim

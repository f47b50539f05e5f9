// The shared broadcast radio channel.
//
// Propagation follows the two-state disk model the paper's ns-2 setup uses:
// every node within `tx_range` of the transmitter receives the frame;
// receptions that overlap in time at a receiver destroy each other
// (collision); carrier sensing extends to `cs_range` so the CSMA MAC defers
// to transmissions it can hear but not decode.
#pragma once

#include <cstdint>
#include <functional>
#include <vector>

#include "sim/frame.hpp"
#include "sim/types.hpp"
#include "sim/vec2.hpp"

namespace icc::sim {

class World;

/// Per-receiver fate of a frame, decided by the delivery filter (fault
/// injection). kDrop models the frame never reaching this receiver's radio;
/// kCorrupt delivers it with the corrupted flag set (CRC failure at the end
/// of the reception).
enum class DeliveryVerdict : std::uint8_t { kDeliver, kDrop, kCorrupt };

// The air table is sharded by transmitter position. Under the parallel
// executive the conflict radius (>= cs_range + shard diagonal) keeps any two
// components' transmissions in disjoint shard neighborhoods, so shard
// vectors need no locks (DESIGN.md §16). Counters are buffered per
// component and merged at the barrier.
// icc:affinity(world)
class Medium {
 public:
  /// The air table covers the `width` x `height` area in square shards of
  /// side cs_range / 3; positions outside the area fall into edge shards.
  Medium(World& world, double tx_range, double cs_range, double width, double height);

  /// Put `frame` on the air for `duration` seconds starting now. Delivers
  /// (or collides) the frame at every node currently inside `tx_range`.
  void begin_transmission(const Frame& frame, double duration);

  /// Carrier sense at `listener`: is any transmission within cs_range of it
  /// still in progress (end > now and squared distance <= cs_range^2)?
  [[nodiscard]] bool busy_at(NodeId listener) const;

  [[nodiscard]] double tx_range() const noexcept { return tx_range_; }
  [[nodiscard]] double cs_range() const noexcept { return cs_range_; }

  /// Total frames put on the air (all nodes). Serial (between-window) read.
  [[nodiscard]] std::uint64_t frames_sent() const noexcept { return frames_sent_; }
  /// Transmissions still in progress at `now` (air-table occupancy; expired
  /// entries are skipped without being erased, so this is honestly const).
  /// Serial read (the health sampler is world-owned).
  [[nodiscard]] std::size_t on_air_count(Time now) const;
  /// Frames destroyed by collisions (counted per victim reception).
  [[nodiscard]] std::uint64_t collisions() const noexcept { return collisions_; }
  void count_collision() noexcept;

  /// Merge a window component's counter deltas (executive barrier).
  void merge_counters(std::uint64_t frames_sent, std::uint64_t collisions) noexcept {
    frames_sent_ += frames_sent;
    collisions_ += collisions;
  }

  /// Air-table shard side in meters. The executive folds the shard diagonal
  /// into the conflict radius.
  [[nodiscard]] double air_shard_side() const noexcept { return shard_side_; }

  /// Fault-injection hook: consulted once per (frame, in-range receiver)
  /// pair; absent (the default), every in-range receiver gets the frame.
  /// Replaces any previous filter; pass nullptr to clear. Installing a
  /// filter marks the run serially coupled: filters may consult arbitrary
  /// world state (wormhole peers, channel schedules), so the executive
  /// falls back to the serial engine for such runs.
  using DeliveryFilter = std::function<DeliveryVerdict(const Frame&, NodeId rx, Time now)>;
  void set_delivery_filter(DeliveryFilter filter);

 private:
  /// One in-progress (or not yet retired) transmission, carrying the
  /// transmitter position snapshotted at transmission start.
  struct AirEntry {
    Time end;
    Vec2 pos;
  };

  [[nodiscard]] std::uint32_t shard_col(double x) const noexcept;
  [[nodiscard]] std::uint32_t shard_row(double y) const noexcept;

  World& world_;
  double tx_range_;
  double cs_range_;
  /// The air table: entries bucketed by transmitter position. Each insert
  /// retires its own shard's expired entries; carrier sense skips expired
  /// entries without erasing them, so busy_at is honestly const.
  std::vector<std::vector<AirEntry>> air_shards_;
  double shard_side_;
  std::uint32_t shards_x_;
  std::uint32_t shards_y_;
  std::uint64_t frames_sent_{0};
  std::uint64_t collisions_{0};
  DeliveryFilter delivery_filter_;
};

}  // namespace icc::sim

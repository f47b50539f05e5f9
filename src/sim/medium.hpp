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
/// injection) and by the fate callback of Medium::deliver. kDrop models the
/// frame never reaching this receiver's radio; kCorrupt delivers it with the
/// corrupted flag set (CRC failure at the end of the reception).
enum class DeliveryVerdict : std::uint8_t { kDeliver, kDrop, kCorrupt };

class Medium {
 public:
  /// The air table covers the `width` x `height` area in square shards of
  /// side cs_range / 3; positions outside the area fall into edge shards.
  Medium(World& world, double tx_range, double cs_range, double width, double height);
  /// Scheduled reception ends hold `this`.
  Medium(const Medium&) = delete;
  Medium& operator=(const Medium&) = delete;

  /// Put `frame` on the air for `duration` seconds starting now. Delivers
  /// (or collides) the frame at every node currently inside `tx_range`.
  void begin_transmission(const Frame& frame, double duration);

  /// The one reception path, shared by begin_transmission and the wormhole
  /// replay: starts `frame`'s reception, `duration` long, at each of
  /// `receivers` (ascending NodeId) whose `fate(rx)` is not kDrop, then ends
  /// every owed reception in one kMac event at now + duration, in the same
  /// order. `fate` runs interleaved with the receptions, so its side effects
  /// (traces, fault bookkeeping) keep their place among theirs.
  template <typename Fate>
  void deliver(const Frame& frame, double duration, const std::vector<NodeId>& receivers,
               Fate&& fate) {
    const std::uint32_t slot = open_delivery();
    for (const NodeId rx : receivers) {
      const DeliveryVerdict verdict = fate(rx);
      if (verdict != DeliveryVerdict::kDrop) {
        start_reception(slot, frame, rx, duration, verdict == DeliveryVerdict::kCorrupt);
      }
    }
    close_delivery(slot, frame, duration);
  }

  /// Carrier sense at `listener`: is any transmission within cs_range of it
  /// still in progress (end > now and squared distance <= cs_range^2)?
  [[nodiscard]] bool busy_at(NodeId listener) const;

  [[nodiscard]] double tx_range() const noexcept { return tx_range_; }
  [[nodiscard]] double cs_range() const noexcept { return cs_range_; }

  /// Total frames put on the air (all nodes).
  [[nodiscard]] std::uint64_t frames_sent() const noexcept { return frames_sent_; }
  /// Transmissions still in progress at `now` (air-table occupancy; expired
  /// entries are skipped without being erased, so this is honestly const).
  [[nodiscard]] std::size_t on_air_count(Time now) const;
  /// Frames destroyed by collisions (counted per victim reception).
  [[nodiscard]] std::uint64_t collisions() const noexcept { return collisions_; }
  void count_collision() noexcept { ++collisions_; }

  /// Air-table shard side in meters (cs_range / 3).
  [[nodiscard]] double air_shard_side() const noexcept { return shard_side_; }

  /// Fault-injection hook: consulted once per (frame, in-range receiver)
  /// pair; absent (the default), every in-range receiver gets the frame.
  /// Replaces any previous filter; pass nullptr to clear.
  using DeliveryFilter = std::function<DeliveryVerdict(const Frame&, NodeId rx, Time now)>;
  void set_delivery_filter(DeliveryFilter filter) { delivery_filter_ = std::move(filter); }

 private:
  /// One in-progress (or not yet retired) transmission, carrying the
  /// transmitter position snapshotted at transmission start.
  struct AirEntry {
    Time end;
    Vec2 pos;
  };

  /// One frame on the air with receptions still to end: the frame is copied
  /// once for all of its receivers. Slots are reused, and so is the owed
  /// list's capacity, so once the slab is warm a frame allocates nothing.
  struct Delivery {
    Frame frame;
    std::vector<NodeId> owed;  ///< receivers whose end_reception is owed, in order
  };

  [[nodiscard]] std::uint32_t open_delivery();
  void start_reception(std::uint32_t slot, const Frame& frame, NodeId rx, double duration,
                       bool corrupted);
  /// Schedules the slot's end event, or frees the slot when no reception is owed.
  void close_delivery(std::uint32_t slot, const Frame& frame, double duration);
  void end_receptions(std::uint32_t slot);

  /// The window scan behind busy_at.
  [[nodiscard]] bool busy_near(Vec2 lp, Time now) const;

  [[nodiscard]] std::uint32_t shard_col(double x) const noexcept;
  [[nodiscard]] std::uint32_t shard_row(double y) const noexcept;

  World& world_;
  double tx_range_;
  double cs_range_;
  /// The air table: entries bucketed by transmitter position. Each insert
  /// retires its own shard's expired entries; carrier sense skips expired
  /// entries without erasing them, so busy_at is honestly const.
  std::vector<std::vector<AirEntry>> air_shards_;
  /// Each shard's latest entry end, in one flat array: carrier sense skips
  /// a shard that went quiet by `now` without touching its vector.
  std::vector<Time> shard_latest_end_;
  double shard_side_;
  std::uint32_t shards_x_;
  std::uint32_t shards_y_;
  std::uint64_t frames_sent_{0};
  std::uint64_t collisions_{0};
  DeliveryFilter delivery_filter_;
  /// Receiver candidates of the frame being transmitted; a member so the
  /// per-frame hot path never allocates in steady state.
  std::vector<NodeId> rx_scratch_;
  std::vector<Delivery> deliveries_;
  std::vector<std::uint32_t> free_deliveries_;
};

}  // namespace icc::sim

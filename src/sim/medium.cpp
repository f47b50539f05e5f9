#include "sim/medium.hpp"

#include <algorithm>
#include <cmath>

#include "sim/check.hpp"
#include "sim/world.hpp"

namespace icc::sim {

Medium::Medium(World& world, double tx_range, double cs_range, double width, double height)
    : world_{world}, tx_range_{tx_range}, cs_range_{cs_range}, shard_side_{cs_range / 3.0} {
  ICC_ASSERT(shard_side_ > 0.0, "the air table needs a positive carrier-sense range");
  shards_x_ = std::max(1u, static_cast<std::uint32_t>(std::ceil(width / shard_side_)));
  shards_y_ = std::max(1u, static_cast<std::uint32_t>(std::ceil(height / shard_side_)));
  air_shards_.resize(static_cast<std::size_t>(shards_x_) * shards_y_);
  shard_latest_end_.resize(air_shards_.size(), 0.0);
}

void Medium::begin_transmission(const Frame& frame, double duration) {
  const Time now = world_.sched().now();
  ICC_ASSERT(duration > 0.0, "a transmission must occupy the medium for positive time");
  ICC_ASSERT(frame.tx < world_.num_nodes(), "transmissions must come from a known node");
  // Conservation: radios are half-duplex, so counting this one there can
  // never be more concurrent transmissions than nodes.
  ICC_CHECK(on_air_count(now) < world_.num_nodes(),
            "more in-flight transmissions than transmitters: a frame leaked on the air");
  ++frames_sent_;
  world_.tracer().emit({now, TraceType::kPacketTx, frame.tx, frame.rx, frame.packet.uid,
                        frame.packet.size_bytes, duration,
                        frame.is_ack ? "ack" : nullptr, frame.packet.uid,
                        frame.packet.parent});
  const Vec2 tx_pos = world_.node(frame.tx).position();
  // Each insert retires its own shard's expired entries, bounding shard
  // growth without a global sweep.
  const std::size_t shard_index =
      static_cast<std::size_t>(shard_row(tx_pos.y)) * shards_x_ + shard_col(tx_pos.x);
  auto& shard = air_shards_[shard_index];
  std::erase_if(shard, [now](const AirEntry& e) { return e.end <= now; });
  shard.push_back(AirEntry{now + duration, tx_pos});
  shard_latest_end_[shard_index] = std::max(shard_latest_end_[shard_index], now + duration);
  world_.nodes_within(tx_pos, tx_range_, rx_scratch_);
  deliver(frame, duration, rx_scratch_, [&](NodeId rx) {
    if (rx == frame.tx || world_.node(rx).down()) return DeliveryVerdict::kDrop;
    if (!delivery_filter_) return DeliveryVerdict::kDeliver;
    const DeliveryVerdict verdict = delivery_filter_(frame, rx, now);
    if (verdict == DeliveryVerdict::kDrop) {
      world_.tracer().emit({now, TraceType::kPacketDrop, rx, frame.tx, frame.packet.uid,
                            frame.packet.size_bytes, 0.0, "channel_fault", frame.packet.uid,
                            frame.packet.parent});
    }
    return verdict;
  });
}

std::uint32_t Medium::open_delivery() {
  if (free_deliveries_.empty()) {
    deliveries_.emplace_back();
    return static_cast<std::uint32_t>(deliveries_.size() - 1);
  }
  const std::uint32_t slot = free_deliveries_.back();
  free_deliveries_.pop_back();
  return slot;
}

void Medium::start_reception(std::uint32_t slot, const Frame& frame, NodeId rx,
                             double duration, bool corrupted) {
  if (world_.node(rx).mac().begin_reception(frame, duration, corrupted)) {
    deliveries_[slot].owed.push_back(rx);
  }
}

void Medium::close_delivery(std::uint32_t slot, const Frame& frame, double duration) {
  Delivery& delivery = deliveries_[slot];
  if (delivery.owed.empty()) {
    free_deliveries_.push_back(slot);
    return;
  }
  delivery.frame = frame;
  // No propagation delay: every receiver finishes decoding at one instant.
  // The tx-done event a MAC schedules after this gets a later sequence
  // number, so every reception ends before its transmitter moves on.
  world_.sched().schedule_in(duration, [this, slot] { end_receptions(slot); }, EventTag::kMac);
}

void Medium::end_receptions(std::uint32_t slot) {
  // A receiver's handler may open new deliveries and grow the slab, so the
  // frame and the owed list leave the slot before any handler runs.
  const Frame frame = std::move(deliveries_[slot].frame);
  std::vector<NodeId> owed = std::move(deliveries_[slot].owed);
  for (const NodeId rx : owed) world_.node(rx).mac().end_reception(frame);
  owed.clear();
  deliveries_[slot].owed = std::move(owed);  // keep the capacity for the next frame
  free_deliveries_.push_back(slot);
}

bool Medium::busy_at(NodeId listener) const {
  const Time now = world_.sched().now();
  const Vec2 lp = world_.node(listener).position();
  const bool busy = busy_near(lp, now);
#if ICC_CHECKED_ENABLED
  // Cross-check: the window scan, quiet shards skipped, must answer as a
  // scan of every entry in every shard does.
  bool brute = false;
  for (const auto& shard : air_shards_) {
    for (const AirEntry& e : shard) {
      brute = brute || (e.end > now && (e.pos - lp).norm2() <= cs_range_ * cs_range_);
    }
  }
  ICC_CHECK(busy == brute,
            "carrier sense diverged from a scan of the whole air table "
            "(shard window or quiet-shard skip is wrong)");
#endif
  return busy;
}

bool Medium::busy_near(Vec2 lp, Time now) const {
  // Scan the shard window covering disk(lp, cs_range). Expired entries are
  // skipped, not erased (busy_at stays const), and a shard whose latest
  // entry ended by now is not visited at all.
  const double cs2 = cs_range_ * cs_range_;
  const std::uint32_t c0 = shard_col(lp.x - cs_range_);
  const std::uint32_t c1 = shard_col(lp.x + cs_range_);
  const std::uint32_t r0 = shard_row(lp.y - cs_range_);
  const std::uint32_t r1 = shard_row(lp.y + cs_range_);
  for (std::uint32_t r = r0; r <= r1; ++r) {
    for (std::uint32_t c = c0; c <= c1; ++c) {
      const std::size_t index = static_cast<std::size_t>(r) * shards_x_ + c;
      if (shard_latest_end_[index] <= now) continue;
      for (const AirEntry& e : air_shards_[index]) {
        if (e.end > now && (e.pos - lp).norm2() <= cs2) return true;
      }
    }
  }
  return false;
}

std::size_t Medium::on_air_count(Time now) const {
  std::size_t n = 0;
  for (const auto& shard : air_shards_) {
    for (const AirEntry& e : shard) n += e.end > now ? 1u : 0u;
  }
  return n;
}

std::uint32_t Medium::shard_col(double x) const noexcept {
  const double c = std::floor(x / shard_side_);
  if (!(c > 0.0)) return 0;  // also catches NaN
  return std::min(shards_x_ - 1, static_cast<std::uint32_t>(c));
}

std::uint32_t Medium::shard_row(double y) const noexcept {
  const double r = std::floor(y / shard_side_);
  if (!(r > 0.0)) return 0;
  return std::min(shards_y_ - 1, static_cast<std::uint32_t>(r));
}

}  // namespace icc::sim

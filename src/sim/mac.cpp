#include "sim/mac.hpp"

#include <algorithm>

#include "sim/check.hpp"
#include "sim/node.hpp"
#include "sim/world.hpp"

namespace icc::sim {

namespace {
constexpr std::uint64_t kMacRngSalt = 0x6D616300ull;  // "mac"
}

Mac::Mac(World& world, Node& node, MacParams params)
    : world_{world},
      node_{node},
      params_{params},
      rng_{world.fork_rng(kMacRngSalt + node.id())},
      cw_{params.cw_min} {}

void Mac::enqueue(Packet packet, NodeId next_hop) {
  Frame frame;
  frame.tx = node_.id();
  frame.rx = next_hop;
  frame.frame_id = next_frame_id_++;
  frame.packet = std::move(packet);
  queue_.push_back(std::move(frame));
  kick();
}

void Mac::kick() {
  if (in_progress_ || queue_.empty()) return;
  in_progress_ = true;
  retries_ = 0;
  cw_ = params_.cw_min;
  schedule_attempt();
}

void Mac::schedule_attempt() {
  const double backoff =
      params_.difs + params_.slot * static_cast<double>(rng_.uniform_int(
                                        0, static_cast<std::uint32_t>(cw_)));
  world_.tracer().emit({world_.sched().now(), TraceType::kMacBackoff, node_.id(), kNoNode, 0,
                        0, backoff, nullptr});
  attempt_event_ =
      world_.sched().schedule_in(backoff, [this] { try_transmit(); }, EventTag::kMac);
}

void Mac::try_transmit() {
  attempt_event_ = Scheduler::kNoEvent;
  const Time now = world_.sched().now();
  const bool receiving = std::any_of(
      receptions_.begin(), receptions_.end(),
      [now](const Reception& r) { return r.end > now; });
  if (transmitting(now) || receiving || world_.medium().busy_at(node_.id())) {
    cw_ = std::min(2 * cw_ + 1, params_.cw_max);
    schedule_attempt();
    return;
  }
  transmit_current();
}

void Mac::transmit_current() {
  const Time now = world_.sched().now();
  ICC_ASSERT(in_progress_ && !queue_.empty(),
             "transmit_current requires an in-progress head-of-queue frame");
  ICC_ASSERT(!transmitting(now), "half-duplex: a radio cannot start two transmissions at once");
  Frame& frame = queue_.front();
  const double duration = frame_airtime(frame.packet.size_bytes);

  // Half-duplex: transmitting destroys anything we were decoding.
  for (Reception& r : receptions_) {
    if (r.end > now && !r.corrupted) {
      r.corrupted = true;
      world_.medium().count_collision();
      world_.tracer().emit({now, TraceType::kMacCollision, node_.id(), r.tx, r.frame_id, 0,
                            0.0, "self_tx"});
    }
  }

  tx_until_ = now + duration;
  node_.energy().charge_tx(duration);
  world_.medium().begin_transmission(frame, duration);

  // The closure captures `this` alone, so it fits std::function's in-place
  // buffer; the frame is still the head of the queue when it fires.
  world_.sched().schedule_in(duration, [this] { on_tx_done(); }, EventTag::kMac);
}

void Mac::on_tx_done() {
  ICC_ASSERT(in_progress_ && !queue_.empty(),
             "a tx-done must belong to an in-progress head-of-queue frame");
  const Frame& frame = queue_.front();
  if (frame.rx == kBroadcast) {
    finish_current(true);
    return;
  }
  awaiting_ack_id_ = frame.frame_id;
  const double ack_air =
      params_.preamble + static_cast<double>(params_.ack_bytes) * 8.0 / params_.bitrate;
  const double timeout = params_.sifs + ack_air + 5.0 * params_.slot;
  ack_timeout_event_ =
      world_.sched().schedule_in(timeout, [this] { on_ack_timeout(); }, EventTag::kMac);
}

void Mac::on_ack_timeout() {
  ICC_ASSERT(in_progress_ && !queue_.empty(),
             "an ack timeout must belong to an in-progress head-of-queue frame");
  ack_timeout_event_ = Scheduler::kNoEvent;
  awaiting_ack_id_ = 0;
  ++retries_;
  if (retries_ > params_.retry_limit) {
    ++unicast_failures_;
    const Frame frame = queue_.front();
    world_.tracer().emit({world_.sched().now(), TraceType::kMacSendFailed, node_.id(),
                          frame.rx, frame.packet.uid, frame.packet.size_bytes,
                          static_cast<double>(retries_), "retry_limit", frame.packet.uid,
                          frame.packet.parent});
    finish_current(false);
    if (on_send_failed_) on_send_failed_(frame.packet, frame.rx);
    return;
  }
  cw_ = std::min(2 * cw_ + 1, params_.cw_max);
  schedule_attempt();
}

void Mac::finish_current(bool /*success*/) {
  ICC_ASSERT(in_progress_ && !queue_.empty(),
             "finish_current requires an in-progress head-of-queue frame");
  queue_.pop_front();
  in_progress_ = false;
  kick();
}

bool Mac::begin_reception(const Frame& frame, double duration, bool corrupted) {
  if (node_.down()) return false;
  const Time now = world_.sched().now();
  ICC_ASSERT(duration > 0.0, "a frame on the air must have positive airtime");
#if ICC_CHECKED_ENABLED
  // Reception-leak detection: the medium calls end_reception at `end` for
  // every reception this function reported as owed, and that call erases
  // the entry. An entry strictly in the past means an end was lost — the
  // frame neither arrived nor collided, which would silently violate packet
  // conservation.
  for (const Reception& r : receptions_) {
    ICC_CHECK(r.end >= now, "reception leak: a frame's reception never ended");
  }
#endif
  if (transmitting(now)) return false;  // half-duplex: deaf while transmitting

  node_.energy().charge_rx(duration);

  bool collided = false;
  for (Reception& r : receptions_) {
    if (r.end > now) {
      if (!r.corrupted) {
        r.corrupted = true;
        world_.medium().count_collision();
        world_.tracer().emit({now, TraceType::kMacCollision, node_.id(), r.tx, r.frame_id, 0,
                              0.0, "overlap"});
      }
      collided = true;
    }
  }
  if (collided) {
    world_.medium().count_collision();
    world_.tracer().emit({now, TraceType::kMacCollision, node_.id(), frame.tx,
                          frame.frame_id, 0, 0.0, "overlap"});
  }

  // Injected corruption kills the frame like a collision does, but is not a
  // collision: the medium's collision counter stays untouched.
  receptions_.push_back(Reception{frame.tx, frame.frame_id, now + duration,
                                  collided || corrupted || frame.corrupted});
  return true;
}

void Mac::end_reception(const Frame& frame) {
  const auto it = std::find_if(receptions_.begin(), receptions_.end(), [&](const Reception& r) {
    return r.tx == frame.tx && r.frame_id == frame.frame_id;
  });
  ICC_CHECK(it != receptions_.end(), "every owed reception must end exactly once");
  if (it == receptions_.end()) return;
  const bool corrupted = it->corrupted;
  receptions_.erase(it);
  // A transmission we started mid-reception marked it corrupted already.
  if (!corrupted) handle_frame_arrival(frame);
}

void Mac::handle_frame_arrival(const Frame& frame) {
  if (frame.is_ack) {
    if (frame.rx == node_.id() && in_progress_ && awaiting_ack_id_ == frame.frame_id) {
      world_.sched().cancel(ack_timeout_event_);
      ack_timeout_event_ = Scheduler::kNoEvent;
      awaiting_ack_id_ = 0;
      finish_current(true);
    }
    return;
  }
  // send_ack only schedules the SIFS ack (no trace, no random draw), so the
  // node's packet_rx still precedes everything the ack does.
  if (frame.rx == node_.id()) send_ack(frame);
  node_.frame_received(frame);
}

void Mac::send_ack(const Frame& data_frame) {
  const NodeId dst = data_frame.tx;
  const std::uint64_t fid = data_frame.frame_id;
  world_.sched().schedule_in(params_.sifs, [this, dst, fid] {
    const Time now = world_.sched().now();
    if (transmitting(now) || node_.down()) return;
    Frame ack;
    ack.tx = node_.id();
    ack.rx = dst;
    ack.is_ack = true;
    ack.frame_id = fid;
    const double duration =
        params_.preamble + static_cast<double>(params_.ack_bytes) * 8.0 / params_.bitrate;
    // SIFS priority: an ack pre-empts anything we were decoding.
    for (Reception& r : receptions_) {
      if (r.end > now && !r.corrupted) {
        r.corrupted = true;
        world_.medium().count_collision();
      }
    }
    tx_until_ = now + duration;
    node_.energy().charge_tx(duration);
    world_.medium().begin_transmission(ack, duration);
  }, EventTag::kMac);
}

}  // namespace icc::sim

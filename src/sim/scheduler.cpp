#include "sim/scheduler.hpp"

#include <chrono>
#include <cmath>
#include <limits>
#include <utility>

namespace icc::sim {

Scheduler::EventId Scheduler::schedule_at(Time t, std::function<void()> fn, EventTag tag) {
  ICC_ASSERT(fn != nullptr, "scheduled events must carry a callable");
  ICC_ASSERT(!std::isnan(t), "event times must not be NaN");
  if (t < now_) t = now_;  // clamp: "immediately" from a handler's viewpoint
  if (warp_) {
    const Time warped = warp_(now_, t - now_, tag);
    ICC_ASSERT(warped >= 0.0 && !std::isnan(warped),
               "a timer warp must return a non-negative delay");
    t = now_ + warped;
  }
  std::uint32_t index;
  if (!free_slots_.empty()) {
    index = free_slots_.back();
    free_slots_.pop_back();
  } else {
    index = static_cast<std::uint32_t>(slots_.size());
    slots_.emplace_back();
  }
  Slot& slot = slots_[index];
  slot.fn = std::move(fn);
  slot.tag = tag;
  slot.live = true;
  ++live_count_;
  const EventId id = make_id(index, slot.gen);
  queue_.push(QueueEntry{t, next_seq_++, id});
  ICC_CHECK(live_count_ <= queue_.size(),
            "every pending EventId must have a queue entry backing it");
  return id;
}

void Scheduler::execute(std::function<void()>&& fn, EventTag tag) {
  ++executed_;
  ++profile_.executed[static_cast<std::size_t>(tag)];
  if (profiling_) {
    // icc:allow(wall-clock): profiler measures host cost only; results never reach simulated state
    const auto t0 = std::chrono::steady_clock::now();
    fn();
    // icc:allow(wall-clock): profiler measures host cost only; results never reach simulated state
    const auto t1 = std::chrono::steady_clock::now();
    profile_.wall_seconds[static_cast<std::size_t>(tag)] +=
        std::chrono::duration<double>(t1 - t0).count();
  } else {
    fn();
  }
}

void Scheduler::drain(Time last) {
  while (!queue_.empty()) {
    const QueueEntry top = queue_.top();
    if (top.time > last) break;
    ICC_ASSERT(top.time >= now_, "event time monotonicity: the queue must never yield an "
                                 "event scheduled before the current simulated time");
    ICC_ASSERT(top.seq < next_seq_, "queue entries must reference ids the scheduler issued");
    queue_.pop();
    Slot* slot = live_slot(top.id);
    if (slot == nullptr) continue;  // cancelled
    std::function<void()> fn = std::move(slot->fn);
    const EventTag tag = slot->tag;
    release(*slot, static_cast<std::uint32_t>(top.id & 0xffffffffu));
    now_ = top.time;
    execute(std::move(fn), tag);
  }
}

void Scheduler::run_until(Time end) {
  drain(end);
  ICC_CHECK(!queue_.empty() || live_count_ == 0,
            "stale EventId: live slots remain after the queue drained");
  if (now_ < end) now_ = end;
}

void Scheduler::run_all() {
  drain(std::numeric_limits<Time>::infinity());
  ICC_CHECK(live_count_ == 0, "stale EventId: live slots remain after the queue drained");
}

}  // namespace icc::sim

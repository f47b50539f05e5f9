#include "sim/scheduler.hpp"

#include <algorithm>
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
#if ICC_CHECKED_ENABLED
  slot.seq = next_seq_++;
#endif
  ++live_count_;
  const EventId id = make_id(index, slot.gen);
  const std::uint64_t key = key_of(t);
  ICC_ASSERT(key >= base_, "radix queue monotonicity: an event was scheduled before the "
                           "queue's base, which only ever moves to an event that ran");
  place(Entry{key, id});
  ++queued_;
  ICC_CHECK(live_count_ <= queued_,
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
  std::vector<Entry>& ready = buckets_[0];
  while (true) {
    if (ready_head_ == ready.size()) {
      ready.clear();
      ready_head_ = 0;
      if (nonempty_ == 0) {
        // Empty: any base at or below the clock is valid, and the base may
        // sit past it when the last entries popped were cancelled ones.
        base_ = key_of(now_);
        break;
      }
      const auto lowest = static_cast<std::size_t>(std::countr_zero(nonempty_)) + 1;
      std::vector<Entry>& bucket = buckets_[lowest];
      std::uint64_t min = bucket.front().key;
      for (const Entry& e : bucket) min = std::min(min, e.key);
      // Peek only: committing a minimum that will not run now would misfile
      // every event later scheduled in [last, min).
      if (std::bit_cast<Time>(min) > last) break;
      base_ = min;
      for (const Entry& e : bucket) place(e);  // stable, and every entry lands below `lowest`
      bucket.clear();
      nonempty_ &= ~(std::uint64_t{1} << (lowest - 1));
    }
    const Entry top = ready[ready_head_];
    const Time time = std::bit_cast<Time>(top.key);
    if (time > last) break;
    ICC_ASSERT(time >= now_, "event time monotonicity: the queue must never yield an "
                             "event scheduled before the current simulated time");
    ++ready_head_;
    --queued_;
    Slot* slot = live_slot(top.id);
    if (slot == nullptr) continue;  // cancelled
#if ICC_CHECKED_ENABLED
    ICC_ASSERT(time > last_run_time_ || (time == last_run_time_ && slot->seq > last_run_seq_),
               "event order: (time, insertion sequence) must strictly increase across "
               "executed events (FIFO among equal times)");
    last_run_time_ = time;
    last_run_seq_ = slot->seq;
#endif
    std::function<void()> fn = std::move(slot->fn);
    const EventTag tag = slot->tag;
    release(*slot, static_cast<std::uint32_t>(top.id & 0xffffffffu));
    now_ = time;
    execute(std::move(fn), tag);
  }
}

void Scheduler::run_until(Time end) {
  drain(end);
  ICC_CHECK(queued_ > 0 || live_count_ == 0,
            "stale EventId: live slots remain after the queue drained");
  if (now_ < end) now_ = end;
}

void Scheduler::run_all() {
  drain(std::numeric_limits<Time>::infinity());
  ICC_CHECK(live_count_ == 0, "stale EventId: live slots remain after the queue drained");
}

}  // namespace icc::sim

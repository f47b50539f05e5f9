#include "sim/scheduler.hpp"

#include <algorithm>
#include <chrono>
#include <cmath>
#include <limits>
#include <utility>

#include "sim/exec_log.hpp"

namespace icc::sim {

Scheduler::EventId Scheduler::schedule_at(Time t, std::function<void()> fn, EventTag tag) {
  if (partitioned_) {
    const ExecContext* ctx = exec_ctx();
    const std::uint32_t slab = ctx != nullptr ? ctx->owner_slab : serial_owner_slab_;
    return p_schedule(t, std::move(fn), tag, slab);
  }
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

Scheduler::EventId Scheduler::schedule_at_owned(Time t, std::function<void()> fn,
                                                EventTag tag, NodeId owner) {
  if (!partitioned_) return schedule_at(t, std::move(fn), tag);
  const std::uint32_t slab = owner == kNoNode ? kWorldSlab : owner + 1;
  return p_schedule(t, std::move(fn), tag, slab);
}

Scheduler::EventId Scheduler::p_schedule(Time t, std::function<void()> fn, EventTag tag,
                                         std::uint32_t slab) {
  ICC_ASSERT(fn != nullptr, "scheduled events must carry a callable");
  ICC_ASSERT(!std::isnan(t), "event times must not be NaN");
  ExecContext* ctx = exec_ctx();
  const Time ref = ctx != nullptr ? ctx->now : now_;
  if (t < ref) t = ref;  // clamp: "immediately" from a handler's viewpoint
  if (warp_) {
    const Time warped = warp_(ref, t - ref, tag);
    ICC_ASSERT(warped >= 0.0 && !std::isnan(warped),
               "a timer warp must return a non-negative delay");
    t = ref + warped;
  }
  if (slab >= pslabs_.size()) {
    // Slab growth reallocates the slab vector, which would race with other
    // workers mid-window; World registers every node's slab at add_node.
    ICC_REQUIRE(ctx == nullptr, "worker-context schedules must target a registered slab");
    grow_slabs(slab);
  }
  PartitionSlab& ps = pslabs_[slab];
  std::uint32_t index;
  if (!ps.free_slots.empty()) {
    index = ps.free_slots.back();
    ps.free_slots.pop_back();
  } else {
    index = static_cast<std::uint32_t>(ps.slots.size());
    // A larger slot index would spill into the EventId slab bits.
    ICC_REQUIRE(index <= kSlotMask, "partitioned slot slab overflow (more than 32768 "
                                    "pending events on one owner)");
    ps.slots.emplace_back();
  }
  Slot& slot = ps.slots[index];
  slot.fn = std::move(fn);
  slot.tag = tag;
  slot.live = true;
  const EventId id = make_pid(slab, index, slot.gen);
  if (ctx != nullptr) {
    ++ctx->log->live_delta;
    if (t < ctx->window_end) {
      // A child inside the current window must belong to the executing
      // event's owner: the only cross-node schedule in the simulator (frame
      // reception completion) is delayed by at least the frame airtime,
      // which the executive's lookahead bounds the window by.
      ICC_ASSERT(slab == ctx->owner_slab,
                 "cross-owner schedule inside the conservative window: lookahead violated");
      ctx->heap->push_back(WorkKey{t, 1, ctx->log->next_creation++, ctx->comp, id});
      std::push_heap(ctx->heap->begin(), ctx->heap->end(),
                     [](const WorkKey& a, const WorkKey& b) { return a.key_greater(b); });
    } else {
      ctx->log->handoffs.push_back(EffectLog::Handoff{t, id});
    }
  } else {
    ++live_count_;
    auto& queue = slab == kWorldSlab ? world_queue_ : queue_;
    queue.push(QueueEntry{t, next_seq_++, id});
    ICC_CHECK(live_count_ <= queue_.size() + world_queue_.size(),
              "every pending EventId must have a queue entry backing it");
  }
  return id;
}

void Scheduler::grow_slabs(std::uint32_t slab) {
  if (slab < pslabs_.size()) return;
  // A larger slab index would spill into the EventId generation bits.
  ICC_REQUIRE(slab < kMaxSlabs, "partitioned EventId slab field overflow (owner id "
                                "131071 or above)");
  pslabs_.resize(static_cast<std::size_t>(slab) + 1);
}

std::int64_t& Scheduler::ctx_log_live_delta(ExecContext& ctx) noexcept {
  return ctx.log->live_delta;
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

void Scheduler::run_serial_span(Time last) {
  for (;;) {
    const bool have_node = !queue_.empty();
    const bool have_world = !world_queue_.empty();
    if (!have_node && !have_world) break;
    bool world = have_world;
    if (have_node && have_world) {
      const QueueEntry& n = queue_.top();
      const QueueEntry& w = world_queue_.top();
      world = w.time < n.time || (w.time == n.time && w.seq < n.seq);
    }
    auto& queue = world ? world_queue_ : queue_;
    const QueueEntry top = queue.top();
    if (top.time > last) break;
    ICC_ASSERT(top.time >= now_, "event time monotonicity: the queue must never yield an "
                                 "event scheduled before the current simulated time");
    ICC_ASSERT(top.seq < next_seq_, "queue entries must reference ids the scheduler issued");
    queue.pop();
    const std::uint32_t index = static_cast<std::uint32_t>(top.id & 0xffffffffu);
    Slot* slot = live_slot(top.id);
    if (slot == nullptr) continue;  // cancelled
    std::function<void()> fn = std::move(slot->fn);
    const EventTag tag = slot->tag;
    release(*slot, index);
    now_ = top.time;
    // Children inherit the owner (read in partitioned mode only).
    serial_owner_slab_ = index >> kSlotBits;
    execute(std::move(fn), tag);
  }
  serial_owner_slab_ = kWorldSlab;
}

void Scheduler::run_until(Time end) {
  run_serial_span(end);
  ICC_CHECK(!queue_.empty() || !world_queue_.empty() || live_count_ == 0,
            "stale EventId: live slots remain after the queue drained");
  if (now_ < end) now_ = end;
}

void Scheduler::run_all() {
  run_serial_span(std::numeric_limits<Time>::infinity());
  ICC_CHECK(live_count_ == 0, "stale EventId: live slots remain after the queue drained");
}

void Scheduler::enable_partitioned() {
  ICC_ASSERT(next_seq_ == 1 && live_count_ == 0 && executed_ == 0,
             "enable_partitioned must be called before any event is scheduled");
  partitioned_ = true;
  pslabs_.resize(1);  // slab 0: world-owned events
}

ScopedEventOwner::ScopedEventOwner(Scheduler& sched, NodeId owner)
    : sched_(sched), saved_(sched.serial_owner_slab_) {
  if (sched_.partitioned_) {
    sched_.serial_owner_slab_ = owner == kNoNode ? Scheduler::kWorldSlab : owner + 1;
  }
}

ScopedEventOwner::~ScopedEventOwner() { sched_.serial_owner_slab_ = saved_; }

}  // namespace icc::sim

// Discrete-event scheduler: the heart of the simulator.
//
// Events are closures ordered by (time, insertion sequence); ties resolve in
// FIFO order so runs are deterministic. Events can be cancelled, which is how
// protocol timers (AODV route expiry, MAC ack timeouts, voting-round
// deadlines, ...) are retracted.
//
// The queue is a monotone radix queue. schedule_at clamps every event to the
// clock, so no event is ever queued before the last one that ran, and an
// event's time can be keyed by its IEEE-754 bit pattern, which orders
// non-negative doubles as unsigned integers do (-0.0 is folded into +0.0).
// Bucket b > 0 holds the entries whose key first differs from the base key
// at bit b-1; bucket 0 holds the entries equal to the base, in arrival
// order. Popping the lowest bucket moves the base to that bucket's minimum
// and redistributes its entries stably into lower buckets, so equal times
// stay FIFO without a sequence number, and each entry moves down at most 64
// times however many events are pending. The base only ever moves to an
// event that is about to run: run_until stops before committing a minimum
// past its end, so an event scheduled later below that minimum still runs
// first. Cancelled entries are deleted lazily, when they reach the front.
//
// An optional wall-clock profiler (enable_profiling, or ICC_PROFILE=1 via
// World) measures events/second and the real time spent per event category,
// so benches can report how fast the simulator itself runs. Profiling reads
// the steady clock around each event but never touches simulated state, so
// it cannot perturb determinism.
#pragma once

#include <array>
#include <bit>
#include <cstdint>
#include <functional>
#include <vector>

#include "net/clock.hpp"
#include "sim/check.hpp"
#include "sim/types.hpp"

namespace icc::sim {

// The event-tag vocabulary lives with the Clock interface (net/clock.hpp)
// so both scheduling implementations share it; these aliases keep the
// simulator's historical spellings working.
using EventTag = net::EventTag;
inline constexpr std::size_t kNumEventTags = net::kNumEventTags;
using net::event_tag_name;

/// Wall-clock cost of a run, split by event category.
struct SchedulerProfile {
  std::array<std::uint64_t, kNumEventTags> executed{};
  std::array<double, kNumEventTags> wall_seconds{};

  [[nodiscard]] std::uint64_t executed_total() const noexcept {
    std::uint64_t n = 0;
    for (const auto e : executed) n += e;
    return n;
  }
  [[nodiscard]] double wall_total_seconds() const noexcept {
    double s = 0.0;
    for (const auto w : wall_seconds) s += w;
    return s;
  }
  [[nodiscard]] double events_per_second() const noexcept {
    const double wall = wall_total_seconds();
    return wall > 0.0 ? static_cast<double>(executed_total()) / wall : 0.0;
  }
};

class Scheduler final : public net::Clock {
 public:
  /// Historical names for the Clock timer-handle vocabulary.
  using EventId = net::TimerId;
  static constexpr EventId kNoEvent = net::kNoTimer;

  /// Current simulated time.
  [[nodiscard]] Time now() const noexcept override { return now_; }

  /// Schedule `fn` to run at absolute time `t` (>= now).
  EventId schedule_at(Time t, std::function<void()> fn,
                      EventTag tag = EventTag::kGeneric) override;

  /// Cancel a pending event. Cancelling an already-fired or unknown id is a
  /// harmless no-op, which keeps timer bookkeeping in protocol code simple.
  void cancel(EventId id) override {
    Slot* slot = live_slot(id);
    if (slot != nullptr) release(*slot, static_cast<std::uint32_t>(id & 0xffffffffu));
  }

  /// Whether an event is still pending.
  [[nodiscard]] bool pending(EventId id) const override { return live_slot(id) != nullptr; }

  /// Fault-injection hook (slow/stuck timers): maps the delay of every
  /// newly scheduled event to a possibly stretched one, given the current
  /// time and the event's tag. Injectors must leave kMac and kMobility
  /// events untouched — a slow *process* still obeys the channel's physics —
  /// and must return a non-negative delay. Replaces any previous warp;
  /// nullptr clears the hook.
  using TimerWarp = std::function<double(Time now, double dt, EventTag tag)>;
  void set_timer_warp(TimerWarp warp) { warp_ = std::move(warp); }

  /// Run events in order until the queue drains or time would pass `end`.
  /// The clock is left at `end` (or at the last event if the queue drained).
  void run_until(Time end);

  /// Run every remaining event. Intended for unit tests.
  void run_all();

  /// Number of events executed so far.
  [[nodiscard]] std::uint64_t executed() const noexcept { return executed_; }

  /// Number of events currently pending (scheduled, not yet fired or
  /// cancelled). Health sampling reads this as the queue-depth signal.
  [[nodiscard]] std::size_t pending_count() const noexcept { return live_count_; }

  /// Wall-clock profiling is off by default (one steady_clock read pair per
  /// event when on). The profile keeps accumulating across runs.
  void enable_profiling(bool on) noexcept { profiling_ = on; }
  [[nodiscard]] bool profiling() const noexcept { return profiling_; }
  [[nodiscard]] const SchedulerProfile& profile() const noexcept { return profile_; }

#if ICC_CHECKED_ENABLED
  /// Test-only corruption hook: rewinds the clock behind the queue's back so
  /// death tests can demonstrate the event-time monotonicity invariant
  /// firing (tests/sim/check_test.cpp). Checked builds only.
  void debug_set_now(Time t) noexcept { now_ = t; }
#endif

 private:
  // Pending closures live in a slab of reusable slots rather than a hash map:
  // scheduling and executing an event is then free-list bookkeeping instead
  // of a node allocation plus a hash lookup, which matters at millions of
  // events per run. An EventId encodes (generation << 32 | slot); the
  // generation is bumped every time a slot is released, so a stale id for a
  // reused slot no longer matches and cancel()/pending() on it are the
  // documented no-ops. Slot reuse follows LIFO free-list order, which is a
  // pure function of the event schedule — ids stay deterministic run to run.
  struct Slot {
    std::function<void()> fn;
    EventTag tag{EventTag::kGeneric};
    std::uint32_t gen{1};
    bool live{false};
#if ICC_CHECKED_ENABLED
    std::uint64_t seq{0};  ///< insertion order, audited by drain
#endif
  };

  /// One queued event: the bit pattern of its time, and its id.
  struct Entry {
    std::uint64_t key;
    EventId id;
  };

  /// The radix key of a (non-NaN, non-negative) time: its IEEE-754 bit
  /// pattern, with -0.0 folded into +0.0.
  [[nodiscard]] static std::uint64_t key_of(Time t) noexcept {
    return t == 0.0 ? 0 : std::bit_cast<std::uint64_t>(t);
  }

  [[nodiscard]] static EventId make_id(std::uint32_t slot, std::uint32_t gen) noexcept {
    return (static_cast<EventId>(gen) << 32) | slot;  // gen >= 1, so id != kNoEvent
  }

  /// The slot behind `id` iff it is still live and of the same generation.
  [[nodiscard]] const Slot* live_slot(EventId id) const noexcept {
    const auto index = static_cast<std::uint32_t>(id & 0xffffffffu);
    if (index >= slots_.size()) return nullptr;
    const Slot& slot = slots_[index];
    return slot.live && slot.gen == (id >> 32) ? &slot : nullptr;
  }
  [[nodiscard]] Slot* live_slot(EventId id) noexcept {
    return const_cast<Slot*>(static_cast<const Scheduler*>(this)->live_slot(id));
  }

  void release(Slot& slot, std::uint32_t index) {
    slot.fn = nullptr;  // drop captures now, not at slot-reuse time
    slot.live = false;
    ++slot.gen;
    free_slots_.push_back(index);
    --live_count_;
  }

  /// File `entry` under the bucket its key selects relative to base_.
  void place(const Entry& entry) {
    if (entry.key == base_) {
      buckets_[0].push_back(entry);
      return;
    }
    const int bucket = 64 - std::countl_zero(entry.key ^ base_);
    buckets_[static_cast<std::size_t>(bucket)].push_back(entry);
    nonempty_ |= std::uint64_t{1} << (bucket - 1);
  }

  /// The drain loop: pop the queue in (time, seq) order, executing every
  /// event with time at or before `last`. Leaves now_ at the last executed
  /// event.
  void drain(Time last);

  void execute(std::function<void()>&& fn, EventTag tag);

  Time now_{0.0};
  TimerWarp warp_;
  std::uint64_t executed_{0};
  bool profiling_{false};
  SchedulerProfile profile_{};
  /// buckets_[0]: entries keyed base_, popped from ready_head_ on in arrival
  /// order; buckets_[b], b >= 1: entries whose key first differs from base_
  /// at bit b-1, nonempty iff bit b-1 of nonempty_ is set.
  std::array<std::vector<Entry>, 65> buckets_;
  std::size_t ready_head_{0};
  std::uint64_t nonempty_{0};
  std::uint64_t base_{0};
  std::size_t queued_{0};  ///< entries in all buckets, cancelled ones included
  std::vector<Slot> slots_;
  std::vector<std::uint32_t> free_slots_;
  std::size_t live_count_{0};
#if ICC_CHECKED_ENABLED
  std::uint64_t next_seq_{1};
  Time last_run_time_{0.0};
  std::uint64_t last_run_seq_{0};
#endif
};

}  // namespace icc::sim

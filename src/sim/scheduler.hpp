// Discrete-event scheduler: the heart of the simulator.
//
// Events are closures ordered by (time, insertion sequence); ties resolve in
// FIFO order so runs are deterministic. Events can be cancelled, which is how
// protocol timers (AODV route expiry, MAC ack timeouts, voting-round
// deadlines, ...) are retracted.
//
// Two storage modes share this class and its one serial drain loop
// (run_serial_span):
//
//   Flat (default): one slot slab, one priority queue. Runs without
//   ICC_SIM_THREADS never leave it; per-owner slabs would cost them wall
//   time (DESIGN.md §11).
//
//   Partitioned (enable_partitioned, switched on by World when
//   ICC_SIM_THREADS selects the parallel cell executive): pending closures
//   live in per-owner slot slabs — slab 0 for world-owned events (health
//   sampler, fault-schedule edges), slab id+1 for events owned by node id —
//   so a worker thread executing one cell's events allocates, fires, and
//   cancels slots without touching any other cell's slab. Events scheduled
//   serially still flow through (time, seq) priority queues (world and node
//   events separately, so the executive can use the world queue's head as a
//   window boundary); events scheduled from inside a parallel window are
//   routed through the worker's ExecContext instead (sim/exec_ctx.hpp):
//   into the worker's working heap when they land inside the current
//   window, into the component's handoff log otherwise, with global
//   sequence numbers assigned at the barrier in deterministic order.
//
// An optional wall-clock profiler (enable_profiling, or ICC_PROFILE=1 via
// World) measures events/second and the real time spent per event category,
// so benches can report how fast the simulator itself runs. Profiling reads
// the steady clock around each event but never touches simulated state, so
// it cannot perturb determinism.
#pragma once

#include <array>
#include <cstdint>
#include <functional>
#include <queue>
#include <vector>

#include "net/clock.hpp"
#include "sim/check.hpp"
#include "sim/exec_ctx.hpp"
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

// In partitioned mode, per-owner slabs are touched only by the component
// that owns the slab's node during a window (conflict-radius argument,
// DESIGN.md §16); queues and counters are executive-serial.
// icc:affinity(world)
class Scheduler final : public net::Clock {
 public:
  /// Historical names for the Clock timer-handle vocabulary.
  using EventId = net::TimerId;
  static constexpr EventId kNoEvent = net::kNoTimer;

  /// Partitioned-mode EventId layout: gen(32) | slab(17) | slot(15).
  static constexpr std::uint32_t kSlabBits = 17;
  static constexpr std::uint32_t kSlotBits = 15;
  static constexpr std::uint32_t kSlotMask = (1u << kSlotBits) - 1;
  static constexpr std::uint32_t kMaxSlabs = 1u << kSlabBits;
  /// Slab 0 holds world-owned events; node id n owns slab n + 1.
  static constexpr std::uint32_t kWorldSlab = 0;

  /// Current simulated time. Inside a parallel window this is the time of
  /// the event the calling worker is executing.
  [[nodiscard]] Time now() const noexcept override {
    const ExecContext* ctx = exec_ctx();
    return ctx != nullptr ? ctx->now : now_;
  }

  /// Schedule `fn` to run at absolute time `t` (>= now). In partitioned
  /// mode the event's owner is inherited from the context: the owner of the
  /// event being executed (worker context or serial scoped owner), the
  /// world otherwise.
  EventId schedule_at(Time t, std::function<void()> fn,
                      EventTag tag = EventTag::kGeneric) override;

  /// Schedule with an explicit owner (partitioned mode; `owner` is ignored
  /// in flat mode). kNoNode names the world. Call sites that schedule an
  /// event on behalf of *another* node — the MAC handing a frame completion
  /// to its receiver — must use this: TLS inheritance would misfile the
  /// event under the transmitter.
  EventId schedule_at_owned(Time t, std::function<void()> fn, EventTag tag, NodeId owner);
  EventId schedule_in_owned(Time dt, std::function<void()> fn, EventTag tag, NodeId owner) {
    return schedule_at_owned(now() + dt, std::move(fn), tag, owner);
  }

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
  /// Serial engine only — under ICC_SIM_THREADS, World routes runs through
  /// the Executive instead.
  void run_until(Time end);

  /// Run every remaining event. Intended for unit tests.
  void run_all();

  /// Switch to partitioned per-owner slot slabs. Must be called before any
  /// event is scheduled (World does it at construction when the parallel
  /// executive is selected); ids from one mode are meaningless in the other.
  void enable_partitioned();

  /// Create node `owner`'s slab now (partitioned mode; no-op in flat mode).
  /// World registers every node serially at add_node, so executive workers
  /// never grow the slab vector under each other.
  void register_owner(NodeId owner) {
    if (partitioned_) grow_slabs(owner + 1);
  }

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
  friend class Executive;  // window formation, commit, serial spans
  friend class ScopedEventOwner;

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
  };

  /// Partitioned mode: one slab (slots + LIFO free list) per owner.
  struct PartitionSlab {
    std::vector<Slot> slots;
    std::vector<std::uint32_t> free_slots;
  };

  struct QueueEntry {
    Time time;
    std::uint64_t seq;
    EventId id;
    bool operator>(const QueueEntry& o) const {
      if (time != o.time) return time > o.time;
      return seq > o.seq;
    }
  };

  [[nodiscard]] static EventId make_id(std::uint32_t slot, std::uint32_t gen) noexcept {
    return (static_cast<EventId>(gen) << 32) | slot;  // gen >= 1, so id != kNoEvent
  }
  [[nodiscard]] static EventId make_pid(std::uint32_t slab, std::uint32_t slot,
                                        std::uint32_t gen) noexcept {
    return (static_cast<EventId>(gen) << 32) | (static_cast<EventId>(slab) << kSlotBits) |
           slot;
  }
  [[nodiscard]] static std::uint32_t slab_of(EventId id) noexcept {
    return (static_cast<std::uint32_t>(id) >> kSlotBits);
  }

  /// The slot behind `id`'s low 32 bits, live or not; nullptr when out of
  /// range. Mode-aware (flat slab vs per-owner slabs).
  [[nodiscard]] const Slot* slot_at(std::uint32_t index) const noexcept {
    if (!partitioned_) {
      return index < slots_.size() ? &slots_[index] : nullptr;
    }
    const std::uint32_t slab = index >> kSlotBits;
    if (slab >= pslabs_.size()) return nullptr;
    const std::vector<Slot>& slots = pslabs_[slab].slots;
    const std::uint32_t slot = index & kSlotMask;
    return slot < slots.size() ? &slots[slot] : nullptr;
  }

  /// The slot behind `id` iff it is still live and of the same generation.
  [[nodiscard]] const Slot* live_slot(EventId id) const noexcept {
    const Slot* slot = slot_at(static_cast<std::uint32_t>(id & 0xffffffffu));
    return slot != nullptr && slot->live && slot->gen == (id >> 32) ? slot : nullptr;
  }
  [[nodiscard]] Slot* live_slot(EventId id) noexcept {
    return const_cast<Slot*>(static_cast<const Scheduler*>(this)->live_slot(id));
  }

  void release(Slot& slot, std::uint32_t index) {
    slot.fn = nullptr;  // drop captures now, not at slot-reuse time
    slot.live = false;
    ++slot.gen;
    if (!partitioned_) {
      free_slots_.push_back(index);
    } else {
      pslabs_[index >> kSlotBits].free_slots.push_back(index & kSlotMask);
    }
    if (ExecContext* ctx = exec_ctx(); ctx != nullptr) {
      --ctx_log_live_delta(*ctx);
    } else {
      --live_count_;
    }
  }

  /// Make slab index `slab` exist. Serial only: growth reallocates.
  void grow_slabs(std::uint32_t slab);

  /// Out of line so this header need not see EffectLog's definition.
  [[nodiscard]] static std::int64_t& ctx_log_live_delta(ExecContext& ctx) noexcept;

  /// Partitioned-mode scheduling core: allocate in `slab`, route the queue
  /// entry by context (serial queues / worker heap / handoff log).
  EventId p_schedule(Time t, std::function<void()> fn, EventTag tag, std::uint32_t slab);

  /// The serial drain loop of both storage modes: pop the node and world
  /// queues merged by (time, seq) — one global FIFO order; the world queue
  /// stays empty in flat mode — executing every event with time at or
  /// before `last`. The serial owner slab tracks each executed event so
  /// default-owner children are filed correctly. Leaves now_ at the last
  /// executed event.
  void run_serial_span(Time last);

  void execute(std::function<void()>&& fn, EventTag tag);

  Time now_{0.0};
  TimerWarp warp_;
  std::uint64_t next_seq_{1};
  std::uint64_t executed_{0};
  bool profiling_{false};
  bool partitioned_{false};
  /// Owner slab inherited by default-owner schedules while executing
  /// serially (no worker context): slab of the event being executed, or
  /// kWorldSlab outside any event. World scopes it around setup-time
  /// node-owned work (mobility start).
  std::uint32_t serial_owner_slab_{kWorldSlab};
  SchedulerProfile profile_{};
  std::priority_queue<QueueEntry, std::vector<QueueEntry>, std::greater<>> queue_;
  /// Partitioned mode only: world-owned (slab 0) events, kept apart so the
  /// executive can bound windows by the next world event without scanning.
  std::priority_queue<QueueEntry, std::vector<QueueEntry>, std::greater<>> world_queue_;
  std::vector<Slot> slots_;
  std::vector<std::uint32_t> free_slots_;
  std::vector<PartitionSlab> pslabs_;
  std::size_t live_count_{0};
};

/// RAII serial-owner scope: events scheduled (without an explicit owner)
/// while this is alive are filed under `owner`'s slab. No-op in flat mode.
class ScopedEventOwner {
 public:
  ScopedEventOwner(Scheduler& sched, NodeId owner);
  ~ScopedEventOwner();
  ScopedEventOwner(const ScopedEventOwner&) = delete;
  ScopedEventOwner& operator=(const ScopedEventOwner&) = delete;

 private:
  Scheduler& sched_;
  std::uint32_t saved_;
};

}  // namespace icc::sim

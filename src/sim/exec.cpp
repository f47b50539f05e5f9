#include "sim/exec.hpp"

#include <algorithm>
#include <bit>
#include <chrono>
#include <cmath>
#include <cstdio>
#include <limits>
#include <numeric>

#include "exp/env.hpp"
#include "sim/check.hpp"
#include "sim/metrics.hpp"
#include "sim/node.hpp"
#include "sim/trace.hpp"
#include "sim/world.hpp"

namespace icc::sim {

namespace detail {
thread_local constinit ExecContext* t_exec_ctx = nullptr;
}  // namespace detail

void exec_buffer_metric_op(ExecMetricOp kind, std::uint32_t id, double v) {
  EffectLog* log = detail::t_exec_ctx->log;
  log->ops.push_back(EffectLog::MetricOp{kind, id, v});
}

void exec_buffer_named_op(ExecMetricOp kind, const std::string& name, double v) {
  EffectLog* log = detail::t_exec_ctx->log;
  log->ops.push_back(
      EffectLog::MetricOp{kind, static_cast<std::uint32_t>(log->names.size()), v});
  log->names.push_back(name);
}

void exec_buffer_trace(const TraceEvent& event) {
  detail::t_exec_ctx->log->traces.push_back(event);
}

namespace {

constexpr Time kInf = std::numeric_limits<Time>::infinity();

struct KeyGreater {
  bool operator()(const WorkKey& a, const WorkKey& b) const noexcept {
    return a.key_greater(b);
  }
};

/// Iterative union-find find with path halving.
std::uint32_t uf_find(std::vector<std::uint32_t>& uf, std::uint32_t i) noexcept {
  while (uf[i] != i) {
    uf[i] = uf[uf[i]];
    i = uf[i];
  }
  return i;
}

void uf_union(std::vector<std::uint32_t>& uf, std::uint32_t a, std::uint32_t b) noexcept {
  a = uf_find(uf, a);
  b = uf_find(uf, b);
  if (a != b) uf[std::max(a, b)] = std::min(a, b);
}

}  // namespace

// ---------------------------------------------------------------- Frontier

void Executive::Frontier::publish(const WorkKey& k) noexcept {
  // Single-writer seqlock. The odd/even version brackets plus per-field
  // release stores make a torn read detectable: a reader that observes any
  // field of this publish also observes the odd version (the field store
  // synchronizes-with the reader's acquire load, and the odd store is
  // sequenced before it), so its second version read cannot match and it
  // retries.
  version.fetch_add(1, std::memory_order_acq_rel);
  t_bits.store(std::bit_cast<std::uint64_t>(k.t), std::memory_order_release);
  idx.store(k.idx, std::memory_order_release);
  band.store(k.band, std::memory_order_release);
  comp.store(k.comp, std::memory_order_release);
  version.fetch_add(1, std::memory_order_release);
}

void Executive::Frontier::publish_done() noexcept {
  publish(WorkKey{kInf, 0xffffffffu, ~0ull, 0xffffffffu, 0});
}

WorkKey Executive::Frontier::read() const noexcept {
  for (;;) {
    const std::uint64_t v1 = version.load(std::memory_order_acquire);
    if ((v1 & 1u) != 0) continue;  // publish in progress
    WorkKey k;
    k.t = std::bit_cast<double>(t_bits.load(std::memory_order_acquire));
    k.idx = idx.load(std::memory_order_acquire);
    k.band = band.load(std::memory_order_acquire);
    k.comp = comp.load(std::memory_order_acquire);
    if (version.load(std::memory_order_acquire) == v1) return k;
  }
}

// --------------------------------------------------------------- Executive

Executive::Executive(World& world, int threads)
    : world_{world},
      sched_{world.sched_},
      nthreads_{std::clamp(threads, 1, 64)},
      delta_{world.config().mac.preamble} {
  const WorldConfig& cfg = world.config();
  const double tx = cfg.tx_range;
  const double cs = tx * cfg.cs_range_factor;
  // Conflict radius: events of owners further apart than rho cannot touch
  // each other's state during one window. Three interaction reaches, each a
  // worst case over everything an event does:
  //   2*tx              two transmitters sharing a receiver (both within
  //                     tx_range of it) both mutate that receiver's MAC;
  //   tx + 2*slack      a delivery query reads live positions of nodes the
  //                     grid prefilter admits: within radius + 2*slack of
  //                     the querier (snapshot drift both ways);
  //   cs + shard*sqrt2  carrier sense scans air shards intersecting the
  //                     cs-range disk; a shard insert touches one shard,
  //                     whose far corner is a diagonal away.
  // The +1m margin absorbs in-window motion (<= max_speed * delta, which is
  // millimeters at the 192us default lookahead).
  rho_ = std::max({2.0 * tx, tx + 2.0 * world.grid_.slack(),
                   cs + world.medium_.air_shard_side() * std::sqrt(2.0)}) +
         1.0;
  comp_cols_ = static_cast<std::uint32_t>(
      std::max(1.0, std::ceil(cfg.width / rho_)));
  comp_rows_ = static_cast<std::uint32_t>(
      std::max(1.0, std::ceil(cfg.height / rho_)));
  ICC_ASSERT(delta_ > 0.0, "the executive needs a positive lookahead (MAC preamble)");
  heaps_.resize(static_cast<std::size_t>(nthreads_));
  ctxs_.resize(static_cast<std::size_t>(nthreads_));
  frontiers_ = std::make_unique<Frontier[]>(static_cast<std::size_t>(nthreads_));
  stats_ = exp::env_int("ICC_SIM_STATS", 0) != 0;
  threads_.reserve(static_cast<std::size_t>(nthreads_ - 1));
  for (int w = 1; w < nthreads_; ++w) {
    threads_.emplace_back([this, w] { worker_thread_main(static_cast<std::size_t>(w)); });
  }
}

Executive::~Executive() {
  if (!threads_.empty()) {
    shutdown_.store(true, std::memory_order_release);
    epoch_.fetch_add(1, std::memory_order_release);
    for (std::thread& t : threads_) t.join();
  }
  if (stats_) {
    std::fprintf(stderr,
                 "icc: executive: %llu windows (%llu single-component), %llu window "
                 "events, %llu serial events, %llu components, max window %llu "
                 "events, %d threads\n",
                 static_cast<unsigned long long>(stat_windows_),
                 static_cast<unsigned long long>(stat_fast_windows_),
                 static_cast<unsigned long long>(stat_window_events_),
                 static_cast<unsigned long long>(stat_world_events_),
                 static_cast<unsigned long long>(stat_components_),
                 static_cast<unsigned long long>(stat_max_window_events_), nthreads_);
  }
}

void Executive::run_until(Time end) {
  if (world_.serial_coupled()) {
    // A delivery filter (wormhole, channel faults) couples distant nodes
    // tighter than the propagation bound; the serial engine keeps the run
    // byte-identical at every thread count.
    sched_.run_until(end);
    return;
  }
  for (;;) {
    const Time tn = sched_.queue_.empty() ? kInf : sched_.queue_.top().time;
    const Time tw = sched_.world_queue_.empty() ? kInf : sched_.world_queue_.top().time;
    const Time t = std::min(tn, tw);
    if (!(t <= end)) break;  // drained, or everything left is past the end
    if (tw <= tn) {
      // World events (and anything tied with them) run serially between
      // windows: they touch global state (health samples, fault-schedule
      // edges) and are rare. Legacy merged order, one timestamp at a time.
      const std::uint64_t before = sched_.executed_;
      sched_.run_serial_span(tw);
      stat_world_events_ += sched_.executed_ - before;
      continue;
    }
    run_window(tn, std::min({tn + delta_, tw, std::nextafter(end, kInf)}));
  }
  if (sched_.now_ < end) sched_.now_ = end;
}

void Executive::run_window(Time t, Time w) {
  ICC_ASSERT(t >= sched_.now_, "window formation must move forward in time");
  sched_.now_ = t;
  // Bring every grid bin's guarantee past the window so worker queries are
  // pure reads (positions snapshotted at t; see SpatialGrid::refresh_until).
  world_.prepare_spatial(w);
  popped_.clear();
  while (!sched_.queue_.empty() && sched_.queue_.top().time < w) {
    const Scheduler::QueueEntry top = sched_.queue_.top();
    sched_.queue_.pop();
    if (sched_.live_slot(top.id) == nullptr) continue;  // cancelled
    popped_.push_back(Popped{top.time, top.seq, top.id, 0, 0});
  }
  if (popped_.empty()) return;
  ++stat_windows_;
  stat_window_events_ += popped_.size();
  stat_max_window_events_ = std::max(stat_max_window_events_,
                                     static_cast<std::uint64_t>(popped_.size()));
  build_components(t);
  stat_components_ += comp_events_.size();
  if (comp_events_.size() == 1 || nthreads_ == 1) {
    // One component (or one thread): nothing to overlap. Hand the popped
    // entries back — their slots were never released, so the original
    // (time, seq) pairs still stand — and run the span serially. Proven
    // order-identical to the buffered path, and cheaper.
    ++stat_fast_windows_;
    for (const Popped& p : popped_) {
      sched_.queue_.push(Scheduler::QueueEntry{p.t, p.seq, p.id});
    }
    sched_.run_serial_span(std::nextafter(w, -kInf));  // strictly before w
    return;
  }
  run_workers(w);
  commit_window(w);
}

void Executive::build_components(Time /*t*/) {
  cell_index_.clear();
  uf_.clear();
  cell_keys_.clear();
  comp_of_root_.clear();
  comp_events_.clear();
  for (Popped& p : popped_) {
    const std::uint32_t slab =
        static_cast<std::uint32_t>(p.id & 0xffffffffu) >> Scheduler::kSlotBits;
    ICC_ASSERT(slab != Scheduler::kWorldSlab,
               "the node queue must not hold world-owned events");
    const Vec2 pos = world_.node(static_cast<NodeId>(slab - 1)).position();
    // Fine cells of side rho; clamping out-of-area positions to edge cells
    // only ever merges components (conservative), never splits one.
    const auto cx = static_cast<std::uint32_t>(std::clamp(
        std::floor(pos.x / rho_), 0.0, static_cast<double>(comp_cols_ - 1)));
    const auto cy = static_cast<std::uint32_t>(std::clamp(
        std::floor(pos.y / rho_), 0.0, static_cast<double>(comp_rows_ - 1)));
    const std::uint64_t key = (static_cast<std::uint64_t>(cx) << 32) | cy;
    const auto [it, fresh] =
        cell_index_.try_emplace(key, static_cast<std::uint32_t>(cell_keys_.size()));
    if (fresh) {
      uf_.push_back(static_cast<std::uint32_t>(cell_keys_.size()));
      cell_keys_.push_back(key);
    }
    p.cell = it->second;
  }
  // Nodes closer than rho are in the same or adjacent cells, so uniting the
  // 3x3 neighborhood of every occupied cell puts every interacting pair in
  // one component.
  for (std::uint32_t i = 0; i < cell_keys_.size(); ++i) {
    const auto cx = static_cast<std::uint32_t>(cell_keys_[i] >> 32);
    const auto cy = static_cast<std::uint32_t>(cell_keys_[i] & 0xffffffffu);
    for (int dx = -1; dx <= 1; ++dx) {
      for (int dy = -1; dy <= 1; ++dy) {
        if (dx == 0 && dy == 0) continue;
        const std::int64_t nxs = static_cast<std::int64_t>(cx) + dx;
        const std::int64_t nys = static_cast<std::int64_t>(cy) + dy;
        if (nxs < 0 || nys < 0 || nxs >= comp_cols_ || nys >= comp_rows_) continue;
        const std::uint64_t nkey =
            (static_cast<std::uint64_t>(nxs) << 32) | static_cast<std::uint64_t>(nys);
        const auto it = cell_index_.find(nkey);
        if (it != cell_index_.end()) uf_union(uf_, i, it->second);
      }
    }
  }
  // Compact component indices in first-appearance (pop) order: a pure
  // function of the event schedule, independent of hash-map iteration.
  for (Popped& p : popped_) {
    const std::uint32_t root = uf_find(uf_, p.cell);
    const auto [it, fresh] =
        comp_of_root_.try_emplace(root, static_cast<std::uint32_t>(comp_events_.size()));
    if (fresh) comp_events_.push_back(0);
    p.comp = it->second;
    ++comp_events_[p.comp];
  }
}

void Executive::run_workers(Time w) {
  const auto ncomps = static_cast<std::uint32_t>(comp_events_.size());
  if (comp_logs_.size() < ncomps) comp_logs_.resize(ncomps);
  for (std::uint32_t c = 0; c < ncomps; ++c) comp_logs_[c].clear();
  // Deterministic greedy deal: biggest component first, to the least-loaded
  // worker, all ties by lowest index.
  comp_order_.resize(ncomps);
  std::iota(comp_order_.begin(), comp_order_.end(), 0u);
  std::sort(comp_order_.begin(), comp_order_.end(),
            [this](std::uint32_t a, std::uint32_t b) {
              if (comp_events_[a] != comp_events_[b]) {
                return comp_events_[a] > comp_events_[b];
              }
              return a < b;
            });
  comp_worker_.assign(ncomps, 0);
  worker_load_.assign(static_cast<std::size_t>(nthreads_), 0);
  for (const std::uint32_t c : comp_order_) {
    const auto best = static_cast<std::uint32_t>(std::distance(
        worker_load_.begin(),
        std::min_element(worker_load_.begin(), worker_load_.end())));
    comp_worker_[c] = best;
    worker_load_[best] += comp_events_[c];
  }
  for (auto& heap : heaps_) heap.clear();
  for (const Popped& p : popped_) {
    heaps_[comp_worker_[p.comp]].push_back(WorkKey{p.t, 0, p.seq, p.comp, p.id});
  }
  for (std::size_t i = 0; i < heaps_.size(); ++i) {
    std::make_heap(heaps_[i].begin(), heaps_[i].end(), KeyGreater{});
    // Initial frontiers are published serially, before the epoch bump that
    // wakes the pool, so no gated draw can slip past a not-yet-started
    // worker's share.
    if (heaps_[i].empty()) {
      frontiers_[i].publish_done();
    } else {
      frontiers_[i].publish(heaps_[i].front());
    }
    ExecContext& ctx = ctxs_[i];
    ctx = ExecContext{};
    ctx.exec = this;
    ctx.heap = &heaps_[i];
    ctx.window_end = w;
    ctx.worker = static_cast<std::uint32_t>(i);
  }
  remaining_.store(nthreads_ - 1, std::memory_order_relaxed);
  epoch_.fetch_add(1, std::memory_order_release);
  run_worker_share(0);
  std::uint32_t spins = 0;
  while (remaining_.load(std::memory_order_acquire) != 0) {
    if ((++spins & 0x3fu) == 0) std::this_thread::yield();
  }
}

void Executive::run_worker_share(std::size_t w) {
  std::vector<WorkKey>& heap = heaps_[w];
  if (heap.empty()) return;  // publish_done already happened at window setup
  ExecContext& ctx = ctxs_[w];
  detail::t_exec_ctx = &ctx;
  const bool profiling = sched_.profiling();
  while (!heap.empty()) {
    std::pop_heap(heap.begin(), heap.end(), KeyGreater{});
    const WorkKey k = heap.back();
    heap.pop_back();
    Scheduler::Slot* slot = sched_.live_slot(k.id);
    if (slot == nullptr) continue;  // cancelled earlier in this window
    frontiers_[w].publish(k);
    ctx.key = k;
    ctx.now = k.t;
    ctx.comp = k.comp;
    ctx.owner_slab =
        static_cast<std::uint32_t>(k.id & 0xffffffffu) >> Scheduler::kSlotBits;
    ctx.log = &comp_logs_[k.comp];
    ctx.lineage_parent = 0;
    std::function<void()> fn = std::move(slot->fn);
    const EventTag tag = slot->tag;
    sched_.release(*slot, static_cast<std::uint32_t>(k.id & 0xffffffffu));
    ++ctx.log->executed[static_cast<std::size_t>(tag)];
    if (profiling) {
      // icc:allow(wall-clock): profiler measures host cost only; results never reach simulated state
      const auto t0 = std::chrono::steady_clock::now();
      fn();
      // icc:allow(wall-clock): profiler measures host cost only; results never reach simulated state
      const auto t1 = std::chrono::steady_clock::now();
      ctx.log->wall_seconds[static_cast<std::size_t>(tag)] +=
          std::chrono::duration<double>(t1 - t0).count();
    } else {
      fn();
    }
  }
  frontiers_[w].publish_done();
  detail::t_exec_ctx = nullptr;
}

void Executive::worker_thread_main(std::size_t w) {
  std::uint64_t seen = 0;
  for (;;) {
    std::uint32_t spins = 0;
    while (epoch_.load(std::memory_order_acquire) == seen &&
           !shutdown_.load(std::memory_order_acquire)) {
      if ((++spins & 0x3fu) == 0) std::this_thread::yield();
    }
    if (shutdown_.load(std::memory_order_acquire)) return;
    ++seen;
    run_worker_share(w);
    remaining_.fetch_sub(1, std::memory_order_release);
  }
}

void Executive::commit_window(Time /*w*/) {
  // Serial (worker pool is at the barrier; this thread's context is null).
  // Everything below replays per-component logs in component-index order — a
  // pure function of the event schedule — so the merged world state is
  // byte-identical at any thread count.
  MetricsRegistry& reg = world_.metrics();
  trace_merge_.clear();
  for (std::size_t c = 0; c < comp_events_.size(); ++c) {
    EffectLog& log = comp_logs_[c];
    for (const EffectLog::MetricOp& op : log.ops) {
      switch (op.kind) {
        case ExecMetricOp::kAdd: reg.add(op.id, op.v); break;
        case ExecMetricOp::kSet: reg.set(op.id, op.v); break;
        case ExecMetricOp::kSample: reg.sample(op.id, op.v); break;
        case ExecMetricOp::kObserve: reg.observe(op.id, op.v); break;
        case ExecMetricOp::kAddNamed: reg.add_named(log.names[op.id], op.v); break;
        case ExecMetricOp::kSampleNamed: reg.sample_named(log.names[op.id], op.v); break;
      }
    }
    world_.medium_.merge_counters(log.frames_sent, log.collisions);
    sched_.live_count_ = static_cast<std::size_t>(
        static_cast<std::int64_t>(sched_.live_count_) + log.live_delta);
    for (std::size_t tag = 0; tag < kNumEventTags; ++tag) {
      sched_.executed_ += log.executed[tag];
      sched_.profile_.executed[tag] += log.executed[tag];
      sched_.profile_.wall_seconds[tag] += log.wall_seconds[tag];
    }
    trace_merge_.insert(trace_merge_.end(), log.traces.begin(), log.traces.end());
    // Events handed past the window boundary get their global sequence
    // numbers here, in (component, creation) order. A handoff cancelled
    // later in its own window left a dead slot; skip it.
    for (const EffectLog::Handoff& h : log.handoffs) {
      if (sched_.live_slot(h.id) == nullptr) continue;
      const std::uint32_t slab =
          static_cast<std::uint32_t>(h.id & 0xffffffffu) >> Scheduler::kSlotBits;
      auto& queue = slab == Scheduler::kWorldSlab ? sched_.world_queue_ : sched_.queue_;
      queue.push(Scheduler::QueueEntry{h.t, sched_.next_seq_++, h.id});
    }
  }
  if (!trace_merge_.empty()) {
    // Per-component logs are each in key order already; a stable sort by
    // time alone yields global time order with component-index tie-breaks.
    std::stable_sort(trace_merge_.begin(), trace_merge_.end(),
                     [](const TraceEvent& a, const TraceEvent& b) { return a.t < b.t; });
    for (const TraceEvent& e : trace_merge_) world_.tracer_.emit(e);
  }
}

std::uint64_t Executive::gated_next_uid(ExecContext& ctx) {
  // Admit uid draws in global key order: wait until every other worker has
  // visibly moved past this event's key. Keys are strictly totally ordered
  // (component breaks all remaining ties and no two workers share one), so
  // exactly one draw is admitted at a time, in a thread-count-independent
  // order; the frontier's release/acquire hand-off orders the unsynchronized
  // counter increments. The wait is deadlock-free: the globally minimal
  // in-flight key never waits, and workers between events always progress to
  // their next publish.
  const WorkKey& mine = ctx.key;
  for (int w = 0; w < nthreads_; ++w) {
    if (static_cast<std::uint32_t>(w) == ctx.worker) continue;
    std::uint32_t spins = 0;
    while (!mine.key_less(frontiers_[w].read())) {
      if ((++spins & 0x3fu) == 0) std::this_thread::yield();
    }
  }
  return world_.next_uid_++;
}

}  // namespace icc::sim

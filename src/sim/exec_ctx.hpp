// Worker-thread execution context for the parallel cell executive.
//
// When the conservative parallel-DES executive (sim/exec.hpp) runs a window
// of events across worker threads, every piece of world-global mutable state
// a node event touches — traces, metrics, scheduler bookkeeping, packet
// uids, lineage — must either be buffered per component and merged at the
// window barrier, or be sequenced through an ordered gate. This header is
// the one low-cost hook the hot paths pay for that: a single thread-local
// pointer. Serial execution (the scheduler's serial loop, world events, setup
// and teardown) leaves it null, so the pre-executive code paths cost exactly
// one thread-local load and a branch.
//
// Layering: this header sits below trace/metrics/scheduler (they include it
// to route their hot-path writes), so it must not include any of them. The
// effect-log container itself lives in sim/exec_log.hpp; here it is only an
// opaque pointer.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "sim/types.hpp"

namespace icc::sim {

struct EffectLog;
struct TraceEvent;
class Executive;

/// Ordering key of an event under the executive. Band 0 events were popped
/// from the global queue at window formation and carry their real scheduler
/// sequence number as `idx`; band 1 events were created *during* the window
/// and carry a per-component creation counter instead (their real sequence
/// numbers do not exist yet). Comparing (time, band, idx, comp) orders band-0
/// before band-1 at equal times — which matches the legacy FIFO, because a
/// pre-existing event's sequence number is always smaller than any sequence
/// number a same-time child could have been assigned — and the component
/// index breaks the remaining cross-component ties deterministically.
struct WorkKey {
  Time t{0.0};
  std::uint32_t band{0};
  std::uint64_t idx{0};
  std::uint32_t comp{0};
  /// Scheduler EventId of the event this key orders (not part of the key).
  std::uint64_t id{0};

  [[nodiscard]] bool key_less(const WorkKey& o) const noexcept {
    if (t != o.t) return t < o.t;
    if (band != o.band) return band < o.band;
    if (idx != o.idx) return idx < o.idx;
    return comp < o.comp;
  }
  /// Min-heap comparator (std::push_heap wants "greater" for a min-heap).
  [[nodiscard]] bool key_greater(const WorkKey& o) const noexcept { return o.key_less(*this); }
};

/// Per-worker context, installed while the worker executes its share of a
/// window and torn down at the barrier. Fields are updated per event.
struct ExecContext {
  EffectLog* log{nullptr};        ///< effect log of the current event's component
  Executive* exec{nullptr};       ///< owning executive (uid gate, component map)
  std::vector<WorkKey>* heap{nullptr};  ///< this worker's merged working heap
  Time now{0.0};                  ///< simulated time of the current event
  Time window_end{0.0};           ///< exclusive bound: children before it run locally
  std::uint32_t owner_slab{0};    ///< scheduler slab of the current event's owner
  std::uint32_t comp{0};          ///< component of the current event
  std::uint32_t worker{0};        ///< index of this worker in the executive pool
  std::uint64_t lineage_parent{0};  ///< worker-local lineage context (LineageScope)
  WorkKey key{};                  ///< full ordering key of the current event
};

namespace detail {
// Defined in exec.cpp. extern (not inline) so there is exactly one TLS slot;
// constinit so every access is a plain TLS load, with no call through a
// dynamic-initialization wrapper.
extern thread_local constinit ExecContext* t_exec_ctx;
}  // namespace detail

/// The current worker context, or nullptr on any serially executing thread.
[[nodiscard]] inline ExecContext* exec_ctx() noexcept { return detail::t_exec_ctx; }

// Out-of-line buffering hooks (defined in exec.cpp) so hot headers
// (trace.hpp, metrics.hpp, stats.hpp) can route their writes into the
// current effect log without including the log's definition.

/// Metric-op kinds an effect log replays at the barrier.
enum class ExecMetricOp : std::uint8_t {
  kAdd,          ///< counter += v (interned id)
  kSet,          ///< gauge = v (interned id)
  kSample,       ///< series.add(v) (interned id)
  kObserve,      ///< histogram.observe(v) (interned id)
  kAddNamed,     ///< counter(name) += v (interns at commit)
  kSampleNamed,  ///< series(name).add(v) (interns at commit)
};

void exec_buffer_metric_op(ExecMetricOp kind, std::uint32_t id, double v);
void exec_buffer_named_op(ExecMetricOp kind, const std::string& name, double v);
void exec_buffer_trace(const TraceEvent& event);

}  // namespace icc::sim

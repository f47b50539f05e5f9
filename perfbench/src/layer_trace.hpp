// Outside-in layer spans for the traced run.
//
// A span is opened around every call the benchmark's decorators forward
// into a protocol layer (a timer, a port handler, an interceptor filter, a
// crypto operation, ...). Spans nest: a span's self time is its duration
// minus the durations of the spans opened inside it, so each layer is
// charged only for its own code. Span stacks and totals are per thread,
// because the parallel executive runs handlers on its worker threads; the
// totals are summed after the run, once the workers are idle.
#pragma once

#include <array>
#include <cstdint>
#include <memory>
#include <mutex>
#include <vector>

namespace perfbench {

/// Every span the decorators open. All but kSend are protocol spans; kSend
/// wraps a protocol's call into the link layer, so MAC/medium work done
/// inside a send is charged to the substrate, not to the sender.
enum class SpanId : std::uint8_t {
  kAodvCtlRx,
  kAodvDataRx,
  kAodvTimer,
  kAodvLinkFail,
  kCbrTimer,
  kCoreStsRx,
  kCoreIvsRx,
  kCoreFilterIn,
  kCoreFilterOut,
  kCoreTimer,
  kGuardCheck,
  kGuardAgreed,
  kCryptoPartialSign,
  kCryptoVerifyPartial,
  kCryptoCombine,
  kCryptoVerify,
  kCryptoPkiSign,
  kCryptoPkiVerify,
  kCryptoCipher,
  kSend,
  kCount
};

inline constexpr std::size_t kNumSpans = static_cast<std::size_t>(SpanId::kCount);

/// Metric stem of a span, e.g. "aodv.ctl_rx" ("substrate.send" for kSend).
[[nodiscard]] const char* span_name(SpanId id) noexcept;

struct ThreadSlot;  // one thread's span stack and totals (layer_trace.cpp)

class LayerTrace {
 public:
  struct Totals {
    std::array<std::uint64_t, kNumSpans> calls{};
    std::array<double, kNumSpans> self_s{};
  };

  LayerTrace();
  ~LayerTrace();
  LayerTrace(const LayerTrace&) = delete;
  LayerTrace& operator=(const LayerTrace&) = delete;

  /// RAII span on the calling thread.
  class Scope {
   public:
    Scope(LayerTrace& trace, SpanId id);
    ~Scope();
    Scope(const Scope&) = delete;
    Scope& operator=(const Scope&) = delete;

   private:
    ThreadSlot* slot_;
  };

  /// Zero every thread's totals. Call while no span is open.
  void reset();
  /// Sum over threads. Call while no span is open and no worker runs one.
  [[nodiscard]] Totals totals() const;

 private:
  [[nodiscard]] ThreadSlot& slot();

  std::uint64_t generation_;
  mutable std::mutex mu_;  // guards slots_ (registration from worker threads)
  std::vector<std::unique_ptr<ThreadSlot>> slots_;
};

}  // namespace perfbench

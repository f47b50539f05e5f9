#include "layer_trace.hpp"

#include <atomic>
#include <chrono>

namespace perfbench {

namespace {

std::int64_t now_ns() {
  // detlint:allow(wall-clock): span timing measures host cost only; it never reaches simulated state
  const auto t = std::chrono::steady_clock::now();
  return std::chrono::duration_cast<std::chrono::nanoseconds>(t.time_since_epoch()).count();
}

/// Distinguishes LayerTrace instances, so a thread's cached slot from an
/// earlier (possibly destroyed) trace is never reused.
std::atomic<std::uint64_t> g_next_generation{1};

struct SlotCache {
  std::uint64_t generation{0};
  ThreadSlot* slot{nullptr};
};
thread_local SlotCache t_cache;

}  // namespace

struct ThreadSlot {
  struct Frame {
    SpanId id;
    std::int64_t start_ns;
    std::int64_t child_ns;
  };
  std::array<std::uint64_t, kNumSpans> calls{};
  std::array<std::int64_t, kNumSpans> self_ns{};
  std::vector<Frame> stack;
};

const char* span_name(SpanId id) noexcept {
  switch (id) {
    case SpanId::kAodvCtlRx: return "aodv.ctl_rx";
    case SpanId::kAodvDataRx: return "aodv.data_rx";
    case SpanId::kAodvTimer: return "aodv.timer";
    case SpanId::kAodvLinkFail: return "aodv.link_fail";
    case SpanId::kCbrTimer: return "cbr.timer";
    case SpanId::kCoreStsRx: return "core.sts_rx";
    case SpanId::kCoreIvsRx: return "core.ivs_rx";
    case SpanId::kCoreFilterIn: return "core.filter_in";
    case SpanId::kCoreFilterOut: return "core.filter_out";
    case SpanId::kCoreTimer: return "core.timer";
    case SpanId::kGuardCheck: return "guard.check";
    case SpanId::kGuardAgreed: return "guard.agreed";
    case SpanId::kCryptoPartialSign: return "crypto.partial_sign";
    case SpanId::kCryptoVerifyPartial: return "crypto.verify_partial";
    case SpanId::kCryptoCombine: return "crypto.combine";
    case SpanId::kCryptoVerify: return "crypto.verify";
    case SpanId::kCryptoPkiSign: return "crypto.pki_sign";
    case SpanId::kCryptoPkiVerify: return "crypto.pki_verify";
    case SpanId::kCryptoCipher: return "crypto.cipher";
    case SpanId::kSend: return "substrate.send";
    case SpanId::kCount: break;
  }
  return "?";
}

LayerTrace::LayerTrace() : generation_{g_next_generation.fetch_add(1)} {}

LayerTrace::~LayerTrace() = default;

ThreadSlot& LayerTrace::slot() {
  if (t_cache.generation != generation_) {
    auto fresh = std::make_unique<ThreadSlot>();
    fresh->stack.reserve(16);
    const std::lock_guard lock{mu_};
    t_cache = SlotCache{generation_, fresh.get()};
    slots_.push_back(std::move(fresh));
  }
  return *t_cache.slot;
}

LayerTrace::Scope::Scope(LayerTrace& trace, SpanId id) : slot_{&trace.slot()} {
  slot_->stack.push_back(ThreadSlot::Frame{id, now_ns(), 0});
}

LayerTrace::Scope::~Scope() {
  const ThreadSlot::Frame frame = slot_->stack.back();
  slot_->stack.pop_back();
  const std::int64_t duration = now_ns() - frame.start_ns;
  const auto index = static_cast<std::size_t>(frame.id);
  ++slot_->calls[index];
  slot_->self_ns[index] += duration - frame.child_ns;
  if (!slot_->stack.empty()) slot_->stack.back().child_ns += duration;
}

void LayerTrace::reset() {
  const std::lock_guard lock{mu_};
  for (const auto& s : slots_) {
    s->calls.fill(0);
    s->self_ns.fill(0);
  }
}

LayerTrace::Totals LayerTrace::totals() const {
  Totals out;
  const std::lock_guard lock{mu_};
  for (const auto& s : slots_) {
    for (std::size_t i = 0; i < kNumSpans; ++i) {
      out.calls[i] += s->calls[i];
      out.self_s[i] += static_cast<double>(s->self_ns[i]) * 1e-9;
    }
  }
  return out;
}

}  // namespace perfbench

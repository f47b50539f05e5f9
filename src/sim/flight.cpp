#include "sim/flight.hpp"

#include <csignal>
#include <cstdio>
#include <fstream>
#include <mutex>
#include <vector>

#include "sim/check.hpp"

namespace icc::sim {

namespace {

// Live recorders, for the dump-everything paths (invariant failure, fatal
// signal). Campaign workers create worlds concurrently, hence the mutex; a
// recorder only ever records from its own world's thread.
struct Registry {
  std::mutex mutex;
  std::vector<FlightRecorder*> live;
  std::uint64_t next_index{0};
};

Registry& registry() {
  static Registry r;
  return r;
}

extern "C" void flight_signal_handler(int sig) {
  // Writing files from a signal handler is not async-signal-safe; this is a
  // deliberate best-effort trade — the process is dying anyway, and a
  // partially written post-mortem beats none.
  const char* name = sig == SIGSEGV ? "SIGSEGV"
                     : sig == SIGBUS ? "SIGBUS"
                     : sig == SIGINT ? "SIGINT"
                                     : "SIGTERM";
  dump_all_flight_recorders(name);
  std::signal(sig, SIG_DFL);
  std::raise(sig);
}

void install_dump_hooks_once() {
  static std::once_flag once;
  std::call_once(once, [] {
    detail::invariant_hook() = [](const char* reason) {
      dump_all_flight_recorders(reason);
    };
    for (const int sig : {SIGSEGV, SIGBUS, SIGINT, SIGTERM}) {
      std::signal(sig, flight_signal_handler);
    }
  });
}

}  // namespace

FlightRecorder::FlightRecorder(std::size_t capacity, std::string dump_base)
    : ring_(capacity == 0 ? 1 : capacity), dump_base_{std::move(dump_base)} {
  Registry& reg = registry();
  std::lock_guard<std::mutex> lock{reg.mutex};
  index_ = reg.next_index++;
  reg.live.push_back(this);
  install_dump_hooks_once();
}

FlightRecorder::~FlightRecorder() {
  Registry& reg = registry();
  std::lock_guard<std::mutex> lock{reg.mutex};
  std::erase(reg.live, this);
}

std::vector<TraceEvent> FlightRecorder::snapshot() const {
  std::vector<TraceEvent> out;
  const std::uint64_t count =
      head_ < ring_.size() ? head_ : static_cast<std::uint64_t>(ring_.size());
  out.reserve(static_cast<std::size_t>(count));
  const std::uint64_t first = head_ - count;
  for (std::uint64_t i = 0; i < count; ++i) {
    out.push_back(ring_[(first + i) % ring_.size()]);
  }
  return out;
}

bool FlightRecorder::dump_jsonl(const std::string& path) const {
  std::ofstream out{path, std::ios::trunc};
  if (!out) {
    std::fprintf(stderr, "icc: flight: cannot write '%s'\n", path.c_str());
    return false;
  }
  JsonlTraceSink sink{out};
  for (const TraceEvent& e : snapshot()) sink.on_event(e);
  return static_cast<bool>(out);
}

void FlightRecorder::dump(const char* reason) const {
  const std::string path = dump_base_ + "." + std::to_string(index_) + ".jsonl";
  const bool ok = dump_jsonl(path);
  std::fprintf(stderr,
               "icc: flight recorder %llu dumped (%s): %s (%llu of %llu events kept)%s\n",
               static_cast<unsigned long long>(index_),
               reason != nullptr ? reason : "requested", path.c_str(),
               static_cast<unsigned long long>(
                   head_ < ring_.size() ? head_ : static_cast<std::uint64_t>(ring_.size())),
               static_cast<unsigned long long>(head_), ok ? "" : " [write failed]");
}

int dump_all_flight_recorders(const char* reason) {
  Registry& reg = registry();
  std::lock_guard<std::mutex> lock{reg.mutex};
  for (FlightRecorder* recorder : reg.live) recorder->dump(reason);
  return static_cast<int>(reg.live.size());
}

}  // namespace icc::sim

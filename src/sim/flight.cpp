#include "sim/flight.hpp"

#include <csignal>
#include <cstdio>
#include <cstring>
#include <fstream>
#include <mutex>
#include <string_view>
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

template <typename T>
void write_pod(std::ostream& out, const T& value) {
  out.write(reinterpret_cast<const char*>(&value), sizeof value);
}

template <typename T>
bool read_pod(std::istream& in, T& value) {
  in.read(reinterpret_cast<char*>(&value), sizeof value);
  return static_cast<bool>(in);
}

constexpr char kMagic[4] = {'I', 'C', 'F', 'R'};
constexpr std::uint32_t kVersion = 1;

}  // namespace

FlightRecorder::FlightRecorder(std::size_t capacity, std::string dump_base)
    : ring_(capacity == 0 ? 1 : capacity), dump_base_{std::move(dump_base)} {
  details_.emplace_back();  // id 0 = no detail
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

void FlightRecorder::on_event(const TraceEvent& event) {
  std::uint16_t detail_id = 0;
  if (event.detail != nullptr) {
    if (event.detail == last_detail_) {
      detail_id = last_detail_id_;
    } else {
      // Interned by content — never by pointer — so ids are a pure function
      // of the event sequence and dumps stay byte-identical across runs.
      const auto it = detail_ids_.find(std::string_view{event.detail});
      if (it != detail_ids_.end()) {
        detail_id = it->second;
      } else if (details_.size() <= 0xffff) {
        detail_id = static_cast<std::uint16_t>(details_.size());
        details_.emplace_back(event.detail);
        detail_ids_.emplace(event.detail, detail_id);
      }  // else the table is full: drop the detail, keep the event
      last_detail_ = event.detail;
      last_detail_id_ = detail_id;
    }
  }
  FlightRecord& r = ring_[head_ % ring_.size()];
  r.t = event.t;
  r.span = event.span;
  r.parent = event.parent;
  r.uid = event.uid;
  r.value = event.value;
  r.node = event.node;
  r.peer = event.peer;
  r.size = event.size;
  r.type = static_cast<std::uint16_t>(event.type);
  r.detail_id = detail_id;
  ++head_;
}

std::vector<FlightRecord> FlightRecorder::snapshot() const {
  std::vector<FlightRecord> out;
  const std::uint64_t count =
      head_ < ring_.size() ? head_ : static_cast<std::uint64_t>(ring_.size());
  out.reserve(static_cast<std::size_t>(count));
  const std::uint64_t first = head_ - count;
  for (std::uint64_t i = 0; i < count; ++i) {
    out.push_back(ring_[(first + i) % ring_.size()]);
  }
  return out;
}

TraceEvent FlightRecorder::to_event(const FlightRecord& r) const {
  TraceEvent e;
  e.t = r.t;
  e.type = static_cast<TraceType>(r.type);
  e.node = r.node;
  e.peer = r.peer;
  e.uid = r.uid;
  e.size = r.size;
  e.value = r.value;
  e.detail = r.detail_id != 0 && r.detail_id < details_.size()
                 ? details_[r.detail_id].c_str()
                 : nullptr;
  e.span = r.span;
  e.parent = r.parent;
  return e;
}

bool FlightRecorder::dump_binary(const std::string& path) const {
  std::ofstream out{path, std::ios::binary | std::ios::trunc};
  if (!out) {
    std::fprintf(stderr, "icc: flight: cannot write '%s'\n", path.c_str());
    return false;
  }
  const std::vector<FlightRecord> records = snapshot();
  out.write(kMagic, sizeof kMagic);
  write_pod(out, kVersion);
  write_pod(out, head_);
  write_pod(out, static_cast<std::uint32_t>(records.size()));
  write_pod(out, static_cast<std::uint32_t>(details_.size()));
  for (const FlightRecord& r : records) write_pod(out, r);
  for (const std::string& s : details_) {
    write_pod(out, static_cast<std::uint32_t>(s.size()));
    out.write(s.data(), static_cast<std::streamsize>(s.size()));
  }
  return static_cast<bool>(out);
}

bool FlightRecorder::dump_perfetto(const std::string& path) const {
  std::ofstream out{path, std::ios::trunc};
  if (!out) {
    std::fprintf(stderr, "icc: flight: cannot write '%s'\n", path.c_str());
    return false;
  }
  out << "[\n";
  PerfettoTraceSink sink{out};
  for (const FlightRecord& r : snapshot()) sink.on_event(to_event(r));
  out << "]\n";
  return static_cast<bool>(out);
}

void FlightRecorder::dump(const char* reason) const {
  const std::string base = dump_base_ + "." + std::to_string(index_);
  const std::string icfr = base + ".icfr";
  const std::string perfetto = base + ".perfetto.json";
  const bool ok = dump_binary(icfr) & static_cast<int>(dump_perfetto(perfetto));
  std::fprintf(stderr,
               "icc: flight recorder %llu dumped (%s): %s %s (%llu of %llu events kept)%s\n",
               static_cast<unsigned long long>(index_),
               reason != nullptr ? reason : "requested", icfr.c_str(), perfetto.c_str(),
               static_cast<unsigned long long>(
                   head_ < ring_.size() ? head_ : static_cast<std::uint64_t>(ring_.size())),
               static_cast<unsigned long long>(head_), ok ? "" : " [write failed]");
}

std::optional<FlightDump> FlightRecorder::read(std::istream& in, std::string& error) {
  char magic[4];
  in.read(magic, sizeof magic);
  if (!in || std::memcmp(magic, kMagic, sizeof magic) != 0) {
    error = "not a flight-recorder dump (bad magic)";
    return std::nullopt;
  }
  std::uint32_t version = 0;
  if (!read_pod(in, version) || version != kVersion) {
    error = "unsupported flight-recorder dump version";
    return std::nullopt;
  }
  FlightDump dump;
  std::uint32_t count = 0;
  std::uint32_t string_count = 0;
  if (!read_pod(in, dump.total_emitted) || !read_pod(in, count) ||
      !read_pod(in, string_count)) {
    error = "truncated flight-recorder dump (header)";
    return std::nullopt;
  }
  dump.records.resize(count);
  for (std::uint32_t i = 0; i < count; ++i) {
    if (!read_pod(in, dump.records[i])) {
      error = "truncated flight-recorder dump (record " + std::to_string(i) + " of " +
              std::to_string(count) + ")";
      return std::nullopt;
    }
  }
  dump.details.reserve(string_count);
  for (std::uint32_t i = 0; i < string_count; ++i) {
    std::uint32_t len = 0;
    if (!read_pod(in, len)) {
      error = "truncated flight-recorder dump (string table)";
      return std::nullopt;
    }
    std::string s(len, '\0');
    in.read(s.data(), static_cast<std::streamsize>(len));
    if (!in) {
      error = "truncated flight-recorder dump (string table)";
      return std::nullopt;
    }
    dump.details.push_back(std::move(s));
  }
  if (dump.details.empty()) dump.details.emplace_back();
  return dump;
}

std::optional<FlightDump> FlightRecorder::read_file(const std::string& path,
                                                    std::string& error) {
  std::ifstream in{path, std::ios::binary};
  if (!in) {
    error = "cannot open '" + path + "'";
    return std::nullopt;
  }
  return read(in, error);
}

int dump_all_flight_recorders(const char* reason) {
  Registry& reg = registry();
  std::lock_guard<std::mutex> lock{reg.mutex};
  for (FlightRecorder* recorder : reg.live) recorder->dump(reason);
  return static_cast<int>(reg.live.size());
}

}  // namespace icc::sim

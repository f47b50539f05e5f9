// tracq — trace query / diff tool for icc simulator traces.
//
// Reads the canonical JSONL every trace is written in: an ICC_TRACE trace
// (on stderr or in ICC_TRACE_FILE, whatever the file's name) and a
// flight-recorder dump (<base>.<n>.jsonl, sim/flight.hpp) alike. A line
// that is not a complete record of a known type — one cut off when its
// writer was killed, say — is a load error naming the file and line.
// Dependency-free beyond the icc_sim library.
//
// Subcommands:
//   tracq filter <file> [--type T] [--cat C] [--node N] [--span S] [--uid U]
//                       [--since T0] [--until T1]
//       print records matching every given predicate
//   tracq tree <file> <span>
//       climb to the lineage root of <span>, then print the whole causal
//       tree (packet hops, triggered discoveries, accusations, rounds...)
//   tracq latency <file>
//       per fault class: injection->detection latency over lineage-linked
//       pairs (fault_detected whose parent is the fault_injected span)
//   tracq diff <a> <b>
//       first divergent record between two same-seed traces (exit 1 when
//       they diverge, 0 when byte-identical); a trace that starts later,
//       such as a flight-recorder dump, is compared from where its first
//       record sits in the other
//   tracq export <file> <out.json>
//       write a Chrome/Perfetto trace-event JSON file (per-node tracks,
//       lineage flow arrows, health counter tracks) for ui.perfetto.dev
//   tracq --self-test
//       run the built-in checks on synthetic traces
#include <algorithm>
#include <cmath>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <map>
#include <ostream>
#include <optional>
#include <set>
#include <sstream>
#include <string>
#include <string_view>
#include <vector>

#include "cli.hpp"
#include "sim/trace.hpp"

namespace icc::tracq {

/// One parsed trace record.
struct Record {
  double t{0.0};
  std::string type;
  std::string cat;
  std::uint32_t node{sim::kNoNode};
  std::uint32_t peer{sim::kNoNode};
  std::uint64_t uid{0};
  std::uint32_t size{0};
  double value{0.0};
  std::uint64_t span{0};
  std::uint64_t parent{0};
  std::string detail;
  std::string line;  ///< the JSONL line it was parsed from
};

// ------------------------------------------------------------ JSON helpers
//
// The JSONL emitted by JsonlTraceSink is flat, has a fixed key order, and
// never escapes strings (details are identifier-like literals), so field
// extraction needs no general JSON parser.

inline std::optional<std::string_view> json_raw(std::string_view line, const char* key) {
  std::string needle = "\"";
  needle += key;
  needle += "\":";
  const auto pos = line.find(needle);
  if (pos == std::string_view::npos) return std::nullopt;
  return line.substr(pos + needle.size());
}

inline bool json_num(std::string_view line, const char* key, double& out) {
  const auto rest = json_raw(line, key);
  if (!rest) return false;
  out = std::strtod(std::string{rest->substr(0, 32)}.c_str(), nullptr);
  return true;
}

inline bool json_u64(std::string_view line, const char* key, std::uint64_t& out) {
  const auto rest = json_raw(line, key);
  if (!rest) return false;
  out = std::strtoull(std::string{rest->substr(0, 24)}.c_str(), nullptr, 10);
  return true;
}

inline bool json_str(std::string_view line, const char* key, std::string& out) {
  auto rest = json_raw(line, key);
  if (!rest || rest->empty() || rest->front() != '"') return false;
  rest = rest->substr(1);
  const auto close = rest->find('"');
  if (close == std::string_view::npos) return false;
  out.assign(rest->substr(0, close));
  return true;
}

inline std::optional<sim::TraceType> type_from_name(std::string_view name) {
  for (std::size_t i = 0; i < static_cast<std::size_t>(sim::TraceType::kCount); ++i) {
    const auto type = static_cast<sim::TraceType>(i);
    if (name == sim::trace_type_name(type)) return type;
  }
  return std::nullopt;
}

// --------------------------------------------------------------- loading

/// Parses one canonical JSONL line; std::nullopt unless it is a complete
/// record (one whole object) with a time and a known type.
inline std::optional<Record> parse_jsonl_line(const std::string& line) {
  Record r;
  if (line.size() < 2 || line.front() != '{' || line.back() != '}' ||
      !json_num(line, "t", r.t) || !json_str(line, "type", r.type) ||
      !type_from_name(r.type)) {
    return std::nullopt;
  }
  r.line = line;
  json_str(line, "cat", r.cat);
  std::uint64_t tmp = 0;
  if (json_u64(line, "node", tmp)) r.node = static_cast<std::uint32_t>(tmp);
  if (json_u64(line, "peer", tmp)) r.peer = static_cast<std::uint32_t>(tmp);
  json_u64(line, "uid", r.uid);
  if (json_u64(line, "size", tmp)) r.size = static_cast<std::uint32_t>(tmp);
  json_num(line, "value", r.value);
  json_u64(line, "span", r.span);
  json_u64(line, "parent", r.parent);
  json_str(line, "detail", r.detail);
  return r;
}

/// Rebuild the TraceEvent a parsed record came from (its type is known).
/// `detail` must outlive the event (it points into the record).
inline sim::TraceEvent to_event(const Record& r) {
  sim::TraceEvent e;
  e.t = r.t;
  e.type = *type_from_name(r.type);
  e.node = r.node;
  e.peer = r.peer;
  e.uid = r.uid;
  e.size = r.size;
  e.value = r.value;
  e.detail = r.detail.empty() ? nullptr : r.detail.c_str();
  e.span = r.span;
  e.parent = r.parent;
  return e;
}

struct Trace {
  std::vector<Record> records;
};

inline std::string canonical_jsonl(const sim::TraceEvent& e) {
  std::ostringstream out;
  sim::JsonlTraceSink sink{out};
  sink.on_event(e);
  std::string line = out.str();
  if (!line.empty() && line.back() == '\n') line.pop_back();
  return line;
}

/// Load a JSONL trace. Returns std::nullopt with `error` filled when the file
/// cannot be read or a line is not a complete record (file:line named).
inline std::optional<Trace> load(const std::string& path, std::string& error) {
  std::ifstream in{path};
  if (!in) {
    error = "cannot open '" + path + "'";
    return std::nullopt;
  }
  Trace trace;
  std::string line;
  for (std::size_t number = 1; std::getline(in, line); ++number) {
    if (line.empty()) continue;
    auto record = parse_jsonl_line(line);
    if (!record) {
      error = path + ":" + std::to_string(number) +
              ": not a complete trace record of a known type";
      return std::nullopt;
    }
    trace.records.push_back(std::move(*record));
  }
  return trace;
}

// ---------------------------------------------------------------- filter

struct Filter {
  std::string type;
  std::string cat;
  std::optional<std::uint32_t> node;
  std::optional<std::uint64_t> span;  ///< matches span, parent, or uid
  std::optional<std::uint64_t> uid;
  std::optional<double> since;
  std::optional<double> until;

  [[nodiscard]] bool matches(const Record& r) const {
    if (!type.empty() && r.type != type) return false;
    if (!cat.empty() && r.cat != cat) return false;
    if (node && r.node != *node) return false;
    if (span && r.span != *span && r.parent != *span && r.uid != *span) return false;
    if (uid && r.uid != *uid) return false;
    if (since && r.t < *since) return false;
    if (until && r.t > *until) return false;
    return true;
  }
};

// ------------------------------------------------------------------ tree

struct Lineage {
  /// span -> records owning it (span field == id)
  std::map<std::uint64_t, std::vector<const Record*>> by_span;
  /// parent span -> child spans
  std::map<std::uint64_t, std::set<std::uint64_t>> children;
  /// span -> parent span (first seen wins; lineage is a tree by construction)
  std::map<std::uint64_t, std::uint64_t> parent_of;
  /// records with no span of their own attached to a parent span
  std::map<std::uint64_t, std::vector<const Record*>> annotations;

  explicit Lineage(const std::vector<Record>& records) {
    for (const Record& r : records) {
      if (r.span != 0) {
        by_span[r.span].push_back(&r);
        if (r.parent != 0 && r.parent != r.span) {
          children[r.parent].insert(r.span);
          parent_of.emplace(r.span, r.parent);
        }
      } else if (r.parent != 0) {
        annotations[r.parent].push_back(&r);
        children[r.parent];  // parent participates even if never seen as span
      }
    }
  }

  [[nodiscard]] std::uint64_t root_of(std::uint64_t id) const {
    std::set<std::uint64_t> seen;
    while (seen.insert(id).second) {
      const auto it = parent_of.find(id);
      if (it == parent_of.end()) return id;
      id = it->second;
    }
    return id;  // cycle guard: report the last id before repeating
  }
};

inline void print_span(const Lineage& lin, std::uint64_t id, int depth, std::FILE* out,
                       std::set<std::uint64_t>& visited) {
  const std::string indent(static_cast<std::size_t>(depth) * 2, ' ');
  if (!visited.insert(id).second) {
    std::fprintf(out, "%sspan %llu (already shown)\n", indent.c_str(),
                 static_cast<unsigned long long>(id));
    return;
  }
  std::fprintf(out, "%sspan %llu\n", indent.c_str(), static_cast<unsigned long long>(id));
  const auto owned = lin.by_span.find(id);
  if (owned != lin.by_span.end()) {
    for (const Record* r : owned->second) {
      std::fprintf(out, "%s  %.9f %-22s node=%u%s%s\n", indent.c_str(), r->t,
                   r->type.c_str(), r->node, r->detail.empty() ? "" : " ",
                   r->detail.c_str());
    }
  }
  const auto notes = lin.annotations.find(id);
  if (notes != lin.annotations.end()) {
    for (const Record* r : notes->second) {
      std::fprintf(out, "%s  %.9f %-22s node=%u%s%s  <-\n", indent.c_str(), r->t,
                   r->type.c_str(), r->node, r->detail.empty() ? "" : " ",
                   r->detail.c_str());
    }
  }
  const auto kids = lin.children.find(id);
  if (kids != lin.children.end()) {
    for (const std::uint64_t child : kids->second) {
      print_span(lin, child, depth + 1, out, visited);
    }
  }
}

// --------------------------------------------------------------- latency

struct LatencyRow {
  std::uint64_t injected{0};
  std::uint64_t linked{0};  ///< detections lineage-linked to an injection
  double sum{0.0};
  double max{0.0};
};

inline std::map<std::string, LatencyRow> detection_latency(const std::vector<Record>& records) {
  // fault_injected spans -> (class, time); fault_detected parents point at them.
  std::map<std::uint64_t, std::pair<std::string, double>> injected_at;
  std::map<std::string, LatencyRow> rows;
  for (const Record& r : records) {
    if (r.type == "fault_injected") {
      rows[r.detail].injected += 1;
      if (r.span != 0) injected_at.emplace(r.span, std::make_pair(r.detail, r.t));
    }
  }
  for (const Record& r : records) {
    if (r.type != "fault_detected" || r.parent == 0) continue;
    const auto it = injected_at.find(r.parent);
    if (it == injected_at.end()) continue;
    LatencyRow& row = rows[it->second.first];
    const double latency = r.t - it->second.second;
    row.linked += 1;
    row.sum += latency;
    row.max = std::max(row.max, latency);
  }
  return rows;
}

// ---------------------------------------------------------------- export

/// Chrome/Perfetto trace-event JSON ("JSON Array Format"): one instant event
/// per trace event on a per-node track, flow arrows from lineage
/// (span/parent), counter tracks from kHealthSample events. Every object
/// ends in a comma; the caller writes the enclosing '[' and ']'.
class PerfettoTraceSink final : public sim::TraceSink {
 public:
  explicit PerfettoTraceSink(std::ostream& out) : out_{out} {}

  void on_event(const sim::TraceEvent& e) override {
    const char* name = sim::trace_type_name(e.type);
    const char* cat = sim::trace_category_name(sim::trace_category(e.type));
    // Microsecond timestamps with fixed sub-microsecond precision keep the
    // export deterministic and Chrome/Perfetto happy.
    char ts[40];
    std::snprintf(ts, sizeof ts, "%.3f", e.t * 1e6);
    // kNoNode events (health samples, world-level bookkeeping) land on tid 0;
    // real nodes on tid id+1 so the two never collide.
    const unsigned long long tid = e.node == sim::kNoNode ? 0ull : 1ull + e.node;

    char line[512];
    int n;
    const auto append = [&](const char* fmt, auto... args) {
      if (n < static_cast<int>(sizeof line)) {
        n += std::snprintf(line + n, sizeof line - static_cast<std::size_t>(n), fmt, args...);
      }
    };
    if (e.type == sim::TraceType::kHealthSample) {
      // Counter track: one series per (detail, node).
      n = std::snprintf(line, sizeof line,
                        "{\"name\":\"%s\",\"ph\":\"C\",\"ts\":%s,\"pid\":1,\"id\":%llu,"
                        "\"args\":{\"value\":%.9g}},",
                        e.detail != nullptr ? e.detail : "health", ts, tid, e.value);
      out_ << line << '\n';
      return;
    }
    n = std::snprintf(line, sizeof line,
                      "{\"name\":\"%s\",\"cat\":\"%s\",\"ph\":\"i\",\"s\":\"t\",\"ts\":%s,"
                      "\"pid\":1,\"tid\":%llu,\"args\":{",
                      name, cat, ts, tid);
    bool first = true;
    const auto arg = [&](const char* fmt, auto... args) {
      if (!first) append(",");
      first = false;
      append(fmt, args...);
    };
    if (e.peer != sim::kNoNode) arg("\"peer\":%u", e.peer);
    if (e.uid != 0) arg("\"uid\":%llu", static_cast<unsigned long long>(e.uid));
    if (e.size != 0) arg("\"size\":%u", e.size);
    if (e.value != 0.0) arg("\"value\":%.9g", e.value);
    if (e.span != 0) arg("\"span\":%llu", static_cast<unsigned long long>(e.span));
    if (e.parent != 0) arg("\"parent\":%llu", static_cast<unsigned long long>(e.parent));
    if (e.detail != nullptr) arg("\"detail\":\"%s\"", e.detail);
    append("}},");
    out_ << line << '\n';
    // Lineage flow arrows: an event that owns a span starts (or continues)
    // the flow with that id; an event with a parent binds the parent's flow
    // onto itself. Matching ids draw the parent -> child arrows in the UI.
    if (e.span != 0) {
      n = std::snprintf(line, sizeof line,
                        "{\"name\":\"span\",\"cat\":\"%s\",\"ph\":\"s\",\"ts\":%s,\"pid\":1,"
                        "\"tid\":%llu,\"id\":%llu},",
                        cat, ts, tid, static_cast<unsigned long long>(e.span));
      out_ << line << '\n';
    }
    if (e.parent != 0) {
      n = std::snprintf(line, sizeof line,
                        "{\"name\":\"span\",\"cat\":\"%s\",\"ph\":\"f\",\"bp\":\"e\",\"ts\":%s,"
                        "\"pid\":1,\"tid\":%llu,\"id\":%llu},",
                        cat, ts, tid, static_cast<unsigned long long>(e.parent));
      out_ << line << '\n';
    }
  }

 private:
  std::ostream& out_;
};

/// The whole export: '[', one object per record (see PerfettoTraceSink), ']'.
inline void write_perfetto(std::ostream& out, const std::vector<Record>& records) {
  out << "[\n";
  PerfettoTraceSink sink{out};
  for (const Record& r : records) sink.on_event(to_event(r));
  out << "]\n";
}

// ------------------------------------------------------------------ diff

/// Where the comparison of two traces starts. A flight-recorder dump is the
/// tail of a live trace whose ring dropped everything before it, so the
/// trace that starts later is aligned on its first record, found in the
/// other trace. Traces that start together, or whose later start is not
/// found in the other, are compared from their first records.
struct Alignment {
  std::size_t a{0};  ///< records of a before the compared overlap
  std::size_t b{0};  ///< records of b before the compared overlap
};

inline Alignment align(const Trace& a, const Trace& b) {
  if (a.records.empty() || b.records.empty() || a.records[0].line == b.records[0].line) {
    return {};
  }
  const auto find = [](const Trace& in, const std::string& line) -> std::size_t {
    for (std::size_t i = 1; i < in.records.size(); ++i) {
      if (in.records[i].line == line) return i;
    }
    return 0;
  };
  if (b.records[0].t >= a.records[0].t) {
    if (const std::size_t k = find(a, b.records[0].line); k != 0) return {k, 0};
  }
  if (a.records[0].t >= b.records[0].t) {
    if (const std::size_t k = find(b, a.records[0].line); k != 0) return {0, k};
  }
  return {};
}

struct Divergence {
  std::size_t index;  ///< first differing record (0-based) counted from `at`
  std::string a, b;   ///< the two lines ("" when one side ended)
  Alignment at;       ///< where the compared overlap starts in each trace
};

inline std::optional<Divergence> first_divergence(const Trace& a, const Trace& b) {
  const Alignment at = align(a, b);
  const std::size_t len_a = a.records.size() - at.a;
  const std::size_t len_b = b.records.size() - at.b;
  const std::size_t n = std::min(len_a, len_b);
  for (std::size_t i = 0; i < n; ++i) {
    const std::string& la = a.records[at.a + i].line;
    const std::string& lb = b.records[at.b + i].line;
    if (la != lb) return Divergence{i, la, lb, at};
  }
  if (len_a != len_b) {
    const bool a_longer = len_a > len_b;
    return Divergence{n, a_longer ? a.records[at.a + n].line : std::string{},
                      a_longer ? std::string{} : b.records[at.b + n].line, at};
  }
  return std::nullopt;
}

}  // namespace icc::tracq

#ifndef TRACQ_NO_MAIN

namespace {

namespace sim = icc::sim;

int usage() {
  std::fprintf(stderr,
               "usage: tracq <filter|tree|latency|diff|export> <args...>\n"
               "       tracq --self-test\n"
               "  filter <file> [--type T] [--cat C] [--node N] [--span S]\n"
               "                [--uid U] [--since T0] [--until T1]\n"
               "  tree <file> <span>\n"
               "  latency <file>\n"
               "  diff <a> <b>\n"
               "  export <file> <out.json>\n");
  return 2;
}

std::optional<icc::tracq::Trace> load_or_complain(const std::string& path) {
  std::string error;
  auto trace = icc::tracq::load(path, error);
  if (!trace) std::fprintf(stderr, "tracq: %s\n", error.c_str());
  return trace;
}

int cmd_filter(int argc, char** argv) {
  if (argc < 1) return usage();
  icc::tracq::Filter filter;
  for (int i = 1; i < argc; i += 2) {
    if (i + 1 >= argc) return usage();  // option without value
    const std::string_view opt{argv[i]};
    const char* val = argv[i + 1];
    if (opt == "--type") {
      filter.type = val;
    } else if (opt == "--cat") {
      filter.cat = val;
    } else if (opt == "--node") {
      filter.node = icc::cli::parse_number<std::uint32_t>("tracq", opt, val);
    } else if (opt == "--span") {
      filter.span = icc::cli::parse_number<std::uint64_t>("tracq", opt, val);
    } else if (opt == "--uid") {
      filter.uid = icc::cli::parse_number<std::uint64_t>("tracq", opt, val);
    } else if (opt == "--since") {
      filter.since = icc::cli::parse_number<double>("tracq", opt, val);
    } else if (opt == "--until") {
      filter.until = icc::cli::parse_number<double>("tracq", opt, val);
    } else {
      return usage();
    }
  }
  const auto trace = load_or_complain(argv[0]);
  if (!trace) return 2;
  for (const icc::tracq::Record& r : trace->records) {
    if (filter.matches(r)) std::printf("%s\n", r.line.c_str());
  }
  return 0;
}

int cmd_tree(int argc, char** argv) {
  if (argc != 2) return usage();
  const auto id = icc::cli::parse_number<std::uint64_t>("tracq", "span", argv[1]);
  const auto trace = load_or_complain(argv[0]);
  if (!trace) return 2;
  const icc::tracq::Lineage lineage{trace->records};
  const std::uint64_t root = lineage.root_of(id);
  if (lineage.by_span.count(root) == 0 && lineage.children.count(root) == 0) {
    std::fprintf(stderr, "tracq: span %llu not found in trace\n",
                 static_cast<unsigned long long>(id));
    return 1;
  }
  if (root != id) {
    std::printf("(root of span %llu)\n", static_cast<unsigned long long>(id));
  }
  std::set<std::uint64_t> visited;
  icc::tracq::print_span(lineage, root, 0, stdout, visited);
  return 0;
}

int cmd_latency(int argc, char** argv) {
  if (argc != 1) return usage();
  const auto trace = load_or_complain(argv[0]);
  if (!trace) return 2;
  const auto rows = icc::tracq::detection_latency(trace->records);
  if (rows.empty()) {
    std::printf("no fault_injected records in trace\n");
    return 0;
  }
  std::printf("%-10s %10s %10s %14s %14s\n", "class", "injected", "linked", "mean_latency",
              "max_latency");
  for (const auto& [cls, row] : rows) {
    if (row.linked > 0) {
      std::printf("%-10s %10llu %10llu %14.6f %14.6f\n", cls.c_str(),
                  static_cast<unsigned long long>(row.injected),
                  static_cast<unsigned long long>(row.linked),
                  row.sum / static_cast<double>(row.linked), row.max);
    } else {
      std::printf("%-10s %10llu %10llu %14s %14s\n", cls.c_str(),
                  static_cast<unsigned long long>(row.injected),
                  static_cast<unsigned long long>(row.linked), "-", "-");
    }
  }
  return 0;
}

int cmd_diff(int argc, char** argv) {
  if (argc != 2) return usage();
  const auto a = load_or_complain(argv[0]);
  if (!a) return 2;
  const auto b = load_or_complain(argv[1]);
  if (!b) return 2;
  const icc::tracq::Alignment at = icc::tracq::align(*a, *b);
  const bool aligned = at.a != 0 || at.b != 0;
  if (aligned) {
    std::printf("aligned: %s starts at record %zu of %s (0-based); comparing from there\n",
                at.a != 0 ? "b" : "a", at.a != 0 ? at.a : at.b, at.a != 0 ? "a" : "b");
  }
  const auto div = icc::tracq::first_divergence(*a, *b);
  if (!div) {
    std::printf("identical: %zu records\n", a->records.size() - at.a);
    return 0;
  }
  if (aligned) {
    std::printf("divergence at record %zu of a, %zu of b (0-based):\n", at.a + div->index,
                at.b + div->index);
  } else {
    std::printf("divergence at record %zu (0-based):\n", div->index);
  }
  std::printf("  a: %s\n", div->a.empty() ? "<end of trace>" : div->a.c_str());
  std::printf("  b: %s\n", div->b.empty() ? "<end of trace>" : div->b.c_str());
  std::printf("(%zu records in a, %zu in b, first %zu %sidentical)\n", a->records.size(),
              b->records.size(), div->index, aligned ? "compared " : "");
  return 1;
}

int cmd_export(int argc, char** argv) {
  if (argc != 2) return usage();
  const auto trace = load_or_complain(argv[0]);
  if (!trace) return 2;
  std::ofstream out{argv[1], std::ios::trunc};
  if (!out) {
    std::fprintf(stderr, "tracq: cannot open '%s' for writing\n", argv[1]);
    return 2;
  }
  icc::tracq::write_perfetto(out, trace->records);
  std::printf("wrote %s (%zu records)\n", argv[1], trace->records.size());
  return 0;
}

int self_test() {
  using namespace icc::tracq;
  int failures = 0;
  const auto expect = [&](bool ok, const char* what) {
    if (!ok) {
      std::fprintf(stderr, "tracq --self-test: FAIL %s\n", what);
      ++failures;
    }
  };

  // Parse: a JSONL line round-trips through Record.
  const std::string line =
      R"({"t":1.500000000,"type":"packet_tx","cat":"packet","node":3,"peer":7,"uid":42,"size":512,"span":42,"parent":17})";
  const auto r = parse_jsonl_line(line);
  expect(r && r->t == 1.5 && r->type == "packet_tx" && r->cat == "packet" && r->node == 3 &&
             r->peer == 7 && r->uid == 42 && r->size == 512 && r->span == 42 &&
             r->parent == 17,
         "JSONL field extraction");
  expect(r && canonical_jsonl(to_event(*r)) == line, "canonical re-render");
  expect(!parse_jsonl_line(line.substr(0, line.size() - 1)), "a cut line is rejected");

  // Lineage: 17 -> 42 -> {43, 44}; annotation on 44.
  std::vector<Record> records;
  const auto mk = [&](double t, const char* type, std::uint64_t span, std::uint64_t parent) {
    Record rec;
    rec.t = t;
    rec.type = type;
    rec.span = span;
    rec.parent = parent;
    rec.line = canonical_jsonl(sim::TraceEvent{
        t, *type_from_name(type), 0, sim::kNoNode, 0, 0, 0.0, nullptr, span, parent});
    records.push_back(std::move(rec));
  };
  mk(0.1, "packet_tx", 17, 0);
  mk(0.2, "route_rreq_sent", 42, 17);
  mk(0.3, "packet_tx", 43, 42);
  mk(0.4, "route_rrep_sent", 44, 42);
  mk(0.5, "fault_detected", 0, 44);
  const Lineage lineage{records};
  expect(lineage.root_of(44) == 17 && lineage.root_of(17) == 17, "root climbing");
  expect(lineage.children.at(42) == std::set<std::uint64_t>{43, 44}, "children sets");
  expect(lineage.annotations.at(44).size() == 1, "annotations attach to parent span");

  // Latency: detection 0.25s after its lineage-linked injection.
  std::vector<Record> faults;
  Record inj;
  inj.t = 1.0;
  inj.type = "fault_injected";
  inj.detail = "channel";
  inj.span = 100;
  faults.push_back(inj);
  Record det;
  det.t = 1.25;
  det.type = "fault_detected";
  det.detail = "channel";
  det.parent = 100;
  faults.push_back(det);
  const auto rows = detection_latency(faults);
  expect(rows.count("channel") == 1 && rows.at("channel").injected == 1 &&
             rows.at("channel").linked == 1 &&
             std::abs(rows.at("channel").sum - 0.25) < 1e-12,
         "lineage-linked detection latency");

  // Diff: identical -> none; one mutated record -> exact index.
  Trace a;
  a.records = records;
  Trace b;
  b.records = records;
  expect(!first_divergence(a, b).has_value(), "identical traces");
  b.records[3].line += "x";
  const auto div = first_divergence(a, b);
  expect(div.has_value() && div->index == 3, "first divergent record index");
  b.records = records;
  b.records.pop_back();
  const auto tail = first_divergence(a, b);
  expect(tail.has_value() && tail->index == 4 && tail->b.empty(), "length divergence");
  // A trace that starts later (a ring-wrapped dump) is compared from where
  // its first record sits in the other.
  b.records.assign(records.begin() + 2, records.end());
  expect(!first_divergence(a, b).has_value() && align(a, b).a == 2, "aligned suffix");
  b.records[1].line += "x";
  const auto late = first_divergence(a, b);
  expect(late.has_value() && late->index == 1 && late->at.a == 2, "aligned divergence index");

  if (failures == 0) std::printf("tracq --self-test: OK\n");
  return failures == 0 ? 0 : 1;
}

}  // namespace

int main(int argc, char** argv) {
  if (argc >= 2 && std::string_view{argv[1]} == "--self-test") return self_test();
  if (argc < 2) return usage();
  const std::string_view cmd{argv[1]};
  if (cmd == "filter") return cmd_filter(argc - 2, argv + 2);
  if (cmd == "tree") return cmd_tree(argc - 2, argv + 2);
  if (cmd == "latency") return cmd_latency(argc - 2, argv + 2);
  if (cmd == "diff") return cmd_diff(argc - 2, argv + 2);
  if (cmd == "export") return cmd_export(argc - 2, argv + 2);
  return usage();
}

#endif  // TRACQ_NO_MAIN

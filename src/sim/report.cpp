#include "sim/report.hpp"

#include <cmath>
#include <cstdio>
#include <fstream>
#include <ostream>

namespace icc::sim {

namespace {

std::string json_escape(const std::string& s) {
  std::string out;
  out.reserve(s.size());
  for (const char c : s) {
    switch (c) {
      case '"': out += "\\\""; break;
      case '\\': out += "\\\\"; break;
      case '\n': out += "\\n"; break;
      case '\t': out += "\\t"; break;
      default:
        if (static_cast<unsigned char>(c) < 0x20) {
          char buf[8];
          std::snprintf(buf, sizeof buf, "\\u%04x", c);
          out += buf;
        } else {
          out += c;
        }
    }
  }
  return out;
}

/// NaN (empty-series min/max) -> null.
std::string json_number(double v) {
  if (std::isnan(v) || std::isinf(v)) return "null";
  char buf[32];
  std::snprintf(buf, sizeof buf, "%.17g", v);
  return buf;
}

/// `"key": {` + one `"name": <value>` line per entry + `}`; `write_value`
/// streams an entry's value.
template <typename Map, typename Fn>
void write_json_object(std::ostream& out, const char* key, const Map& map, Fn&& write_value,
                       bool trailing_comma) {
  out << "  \"" << key << "\": {";
  bool first = true;
  for (const auto& [name, value] : map) {
    out << (first ? "\n" : ",\n") << "    \"" << json_escape(name) << "\": ";
    write_value(value);
    first = false;
  }
  out << (first ? "" : "\n  ") << "}" << (trailing_comma ? ",\n" : "\n");
}

}  // namespace

void RunReport::set_meta(const std::string& key, std::string value) {
  meta_[key] = std::move(value);
}
void RunReport::set_meta(const std::string& key, const char* value) {
  meta_[key] = std::string{value};
}
void RunReport::set_meta(const std::string& key, double value) { meta_[key] = value; }
void RunReport::set_meta(const std::string& key, std::uint64_t value) { meta_[key] = value; }

void RunReport::add_counter(const std::string& name, double value) {
  counters_[name] = value;
}

void RunReport::add_gauge(const std::string& name, double value) { gauges_[name] = value; }

void RunReport::add_series(const std::string& name, const SampleSeries& s) {
  series_[name] =
      SeriesStats{s.count, s.mean(), s.stddev(), s.min, s.max, s.sum};
}

void RunReport::add_metrics(const MetricsRegistry& registry, const std::string& prefix) {
  registry.for_each_counter(
      [&](const std::string& name, double v) { counters_[prefix + name] = v; });
  registry.for_each_gauge(
      [&](const std::string& name, double v) { gauges_[prefix + name] = v; });
  registry.for_each_series([&](const std::string& name, const SampleSeries& s) {
    add_series(prefix + name, s);
  });
}

void RunReport::write_json(std::ostream& out) const {
  const auto number = [&out](double v) { out << json_number(v); };
  out << "{\n";
  write_json_object(out, "meta", meta_, [&out](const auto& v) {
    if (const auto* s = std::get_if<std::string>(&v)) {
      out << '"' << json_escape(*s) << '"';
    } else if (const auto* d = std::get_if<double>(&v)) {
      out << json_number(*d);
    } else {
      out << std::get<std::uint64_t>(v);
    }
  }, true);
  write_json_object(out, "counters", counters_, number, true);
  write_json_object(out, "gauges", gauges_, number, true);
  write_json_object(out, "series", series_, [&out](const SeriesStats& s) {
    out << "{\"count\":" << s.count << ",\"mean\":" << json_number(s.mean)
        << ",\"stddev\":" << json_number(s.stddev) << ",\"min\":" << json_number(s.min)
        << ",\"max\":" << json_number(s.max) << ",\"sum\":" << json_number(s.sum) << '}';
  }, false);
  out << "}\n";
}

bool RunReport::write_file(const std::string& path) const {
  std::ofstream out{path};
  if (!out) return false;
  write_json(out);
  return true;
}

}  // namespace icc::sim

// Machine-readable run reports: serialize a run's metadata (config, seeds)
// plus the full metrics registry to JSON, so the bench harness and offline
// analysis consume typed data instead of scraping printf tables.
//
// JSON schema (stable, documented in DESIGN.md §7):
//   {
//     "meta":       { "<key>": <string|number>, ... },
//     "counters":   { "<name>": <number>, ... },
//     "gauges":     { "<name>": <number>, ... },
//     "series":     { "<name>": {"count":N,"mean":..,"stddev":..,
//                                "min":..,"max":..,"sum":..}, ... }
//   }
// Missing statistics (min and max of an empty series) serialize as null.
// Keys are emitted in sorted order so reports diff cleanly.
#pragma once

#include <cstdint>
#include <iosfwd>
#include <map>
#include <string>
#include <variant>

#include "sim/metrics.hpp"

namespace icc::sim {

class RunReport {
 public:
  void set_meta(const std::string& key, std::string value);
  void set_meta(const std::string& key, const char* value);
  void set_meta(const std::string& key, double value);
  void set_meta(const std::string& key, std::uint64_t value);
  void set_meta(const std::string& key, int value) {
    set_meta(key, static_cast<double>(value));
  }

  /// Snapshot every metric in `registry`, name-prefixed with `prefix`.
  void add_metrics(const MetricsRegistry& registry, const std::string& prefix = "");

  /// Record one standalone series (e.g. a per-run statistic across a
  /// multi-run campaign, which never lives in any single world's registry).
  void add_series(const std::string& name, const SampleSeries& series);
  void add_counter(const std::string& name, double value);
  void add_gauge(const std::string& name, double value);

  void write_json(std::ostream& out) const;

  /// Convenience: write_json to `path`, whatever its extension. Returns
  /// false if the file could not be opened.
  bool write_file(const std::string& path) const;

 private:
  struct SeriesStats {
    std::uint64_t count{0};
    double mean{0.0}, stddev{0.0}, min{0.0}, max{0.0}, sum{0.0};
  };

  std::map<std::string, std::variant<std::string, double, std::uint64_t>> meta_;
  std::map<std::string, double> counters_;
  std::map<std::string, double> gauges_;
  std::map<std::string, SeriesStats> series_;
};

}  // namespace icc::sim

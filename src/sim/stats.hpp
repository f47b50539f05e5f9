// String-keyed facade over the interned-id MetricsRegistry (sim/metrics.hpp).
//
// Kept as a migration shim: legacy call sites write `stats().add("key")` and
// pay one hash per hit; hot paths should intern a MetricId once via
// `world.metrics()` and update through it instead. Both views share the same
// underlying registry, so a RunReport sees every metric regardless of which
// API recorded it.
#pragma once

#include <map>
#include <string>

#include "sim/metrics.hpp"

namespace icc::sim {

class Stats {
 public:
  // add/sample route through the registry's named entry points, which
  // intern on first use and then update.
  void add(const std::string& key, double v = 1.0) { registry_.add_named(key, v); }
  [[nodiscard]] double get(const std::string& key) const {
    return registry_.counter_value(key);
  }

  void sample(const std::string& key, double v) { registry_.sample_named(key, v); }
  [[nodiscard]] const SampleSeries& samples(const std::string& key) const {
    return registry_.series_by_name(key);
  }

  /// Snapshot of all counters, sorted by name (for reports and debugging).
  [[nodiscard]] std::map<std::string, double> counters() const {
    std::map<std::string, double> out;
    registry_.for_each_counter([&out](const std::string& name, double v) { out[name] = v; });
    return out;
  }

  MetricsRegistry& registry() noexcept { return registry_; }
  [[nodiscard]] const MetricsRegistry& registry() const noexcept { return registry_; }

 private:
  MetricsRegistry registry_;
};

}  // namespace icc::sim

#include "sim/metrics.hpp"

namespace icc::sim {

std::string MetricsRegistry::scoped(std::string_view base, NodeId node) {
  std::string name{base};
  name += ".n";
  name += std::to_string(node);
  return name;
}

MetricId MetricsRegistry::counter_id(std::string_view name) {
  return intern(counter_index_, counters_, name);
}

MetricId MetricsRegistry::gauge_id(std::string_view name) {
  return intern(gauge_index_, gauges_, name);
}

MetricId MetricsRegistry::series_id(std::string_view name) {
  return intern(series_index_, series_, name);
}

double MetricsRegistry::counter_value(std::string_view name) const {
  const auto it = counter_index_.find(name);
  return it == counter_index_.end() ? 0.0 : counters_[it->second].value;
}

double MetricsRegistry::gauge_value(std::string_view name) const {
  const auto it = gauge_index_.find(name);
  return it == gauge_index_.end() ? 0.0 : gauges_[it->second].value;
}

const SampleSeries& MetricsRegistry::series_by_name(std::string_view name) const {
  static const SampleSeries kEmpty{};
  const auto it = series_index_.find(name);
  return it == series_index_.end() ? kEmpty : series_[it->second].value;
}

}  // namespace icc::sim

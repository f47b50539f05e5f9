// Metrics registry: the simulator's measurement substrate.
//
// Components intern a metric once (a name -> dense MetricId lookup) and then
// update it through an index into a flat vector, so the per-packet hot path
// never hashes a string. Three metric kinds cover the paper's evaluation
// needs:
//
//   Counter    monotone accumulator ("cbr.sent", "aodv.rreq_sent")
//   Gauge      last-written value   ("fault.noise.budget_used")
//   SampleSeries  streaming mean / min / max / Welford variance
//                 ("cbr.latency", per-run throughput across a campaign)
//
// Per-packet sites update by an id interned once at construction; other
// sites update by name (add_named). A by-name update of an existing metric
// is one hash of the name's bytes and no allocation: the indexes look a
// std::string_view up directly and copy the name only on first use.
#pragma once

#include <cmath>
#include <cstdint>
#include <functional>
#include <limits>
#include <string>
#include <string_view>
#include <unordered_map>
#include <vector>

#include "sim/types.hpp"

namespace icc::sim {

/// Mean/min/max plus Welford-online variance over a stream of samples.
///
/// Empty-series semantics (all documented, all tested):
///   mean(), variance(), stddev(), sum  -> 0.0
///   min, max                           -> quiet NaN (not a misleading 0.0)
class SampleSeries {
 public:
  void add(double v) {
    if (count == 0 || v < min) min = v;
    if (count == 0 || v > max) max = v;
    sum += v;
    ++count;
    // Welford's online update: numerically stable single-pass variance.
    const double delta = v - mean_;
    mean_ += delta / static_cast<double>(count);
    m2_ += delta * (v - mean_);
  }

  [[nodiscard]] bool empty() const noexcept { return count == 0; }
  /// Mean of the samples; 0.0 for an empty series.
  [[nodiscard]] double mean() const noexcept { return count ? mean_ : 0.0; }
  /// Unbiased sample variance (n-1 denominator); 0.0 with fewer than two samples.
  [[nodiscard]] double variance() const noexcept {
    return count > 1 ? m2_ / static_cast<double>(count - 1) : 0.0;
  }
  [[nodiscard]] double stddev() const noexcept { return std::sqrt(variance()); }

  double sum{0.0};
  double min{std::numeric_limits<double>::quiet_NaN()};
  double max{std::numeric_limits<double>::quiet_NaN()};
  std::uint64_t count{0};

 private:
  double mean_{0.0};
  double m2_{0.0};
};

/// Dense handle to one metric. Obtain via MetricsRegistry interning; updates
/// through it are a single vector index — no hashing, no allocation.
using MetricId = std::uint32_t;

class MetricsRegistry {
 public:
  // ----------------------------------------------------- interning (cold)
  /// Intern lookups are idempotent: the same name always yields the same id.
  MetricId counter_id(std::string_view name);
  MetricId gauge_id(std::string_view name);
  MetricId series_id(std::string_view name);

  /// Per-node scoped name, e.g. scoped("blackhole.data_dropped", 12) ==
  /// "blackhole.data_dropped.n12".
  static std::string scoped(std::string_view base, NodeId node);
  MetricId node_counter_id(std::string_view base, NodeId node) {
    return counter_id(scoped(base, node));
  }

  // ------------------------------------------------------- updates (hot)
  void add(MetricId id, double v = 1.0) { counters_[id].value += v; }
  void set(MetricId id, double v) { gauges_[id].value = v; }
  void sample(MetricId id, double v) { series_[id].value.add(v); }

  /// By-name update: interns on first use, then adds.
  void add_named(std::string_view name, double v = 1.0) { add(counter_id(name), v); }

  // ------------------------------------------------------- reads (cold)
  [[nodiscard]] double counter(MetricId id) const { return counters_[id].value; }
  [[nodiscard]] double gauge(MetricId id) const { return gauges_[id].value; }
  [[nodiscard]] const SampleSeries& series(MetricId id) const { return series_[id].value; }

  /// Value of a counter by name; 0.0 when the name was never interned.
  [[nodiscard]] double counter_value(std::string_view name) const;
  [[nodiscard]] double gauge_value(std::string_view name) const;
  /// Series by name; a shared empty series when the name was never interned.
  [[nodiscard]] const SampleSeries& series_by_name(std::string_view name) const;

  // ---------------------------------------------------------- iteration
  /// Visit every metric of a kind as (name, value); insertion order.
  template <typename Fn>
  void for_each_counter(Fn&& fn) const {
    for (const auto& e : counters_) fn(e.name, e.value);
  }
  template <typename Fn>
  void for_each_gauge(Fn&& fn) const {
    for (const auto& e : gauges_) fn(e.name, e.value);
  }
  template <typename Fn>
  void for_each_series(Fn&& fn) const {
    for (const auto& e : series_) fn(e.name, e.value);
  }

 private:
  template <typename T>
  struct Entry {
    std::string name;
    T value{};
  };

  /// Transparent hash: the indexes find a std::string_view without
  /// building a std::string.
  struct NameHash {
    using is_transparent = void;
    std::size_t operator()(std::string_view name) const noexcept {
      return std::hash<std::string_view>{}(name);
    }
  };
  using NameIndex = std::unordered_map<std::string, MetricId, NameHash, std::equal_to<>>;

  template <typename T>
  static MetricId intern(NameIndex& index, std::vector<Entry<T>>& store, std::string_view name) {
    if (const auto it = index.find(name); it != index.end()) return it->second;
    const auto id = static_cast<MetricId>(store.size());
    index.emplace(name, id);
    store.push_back(Entry<T>{std::string{name}, T{}});
    return id;
  }

  NameIndex counter_index_;
  NameIndex gauge_index_;
  NameIndex series_index_;
  std::vector<Entry<double>> counters_;
  std::vector<Entry<double>> gauges_;
  std::vector<Entry<SampleSeries>> series_;
};

}  // namespace icc::sim

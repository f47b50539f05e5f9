// Metrics registry: the simulator's measurement substrate.
//
// Components intern a metric once (a name -> dense MetricId lookup) and then
// update it through an index into a flat vector, so the per-packet hot path
// never hashes a string. Four metric kinds cover the paper's evaluation
// needs:
//
//   Counter    monotone accumulator ("cbr.sent", "aodv.rreq_sent")
//   Gauge      last-written value   ("energy_j.n12")
//   SampleSeries  streaming mean / min / max / Welford variance
//                 ("cbr.latency", per-run throughput across a campaign)
//   Histogram  fixed buckets with p50/p90/p99 extraction
//
// The string-keyed `Stats` facade in sim/stats.hpp rides on top of this
// registry for call sites that have not migrated to interned ids yet.
#pragma once

#include <cmath>
#include <cstdint>
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

/// Fixed-bucket histogram: bucket i counts samples <= bounds[i]; one implicit
/// overflow bucket collects the rest. Percentiles interpolate linearly inside
/// the bucket that crosses the requested rank, clamped to the observed
/// min/max so a sparse histogram never reports a value outside its data.
class Histogram {
 public:
  Histogram() = default;
  explicit Histogram(std::vector<double> upper_bounds);

  void observe(double v);

  [[nodiscard]] std::uint64_t count() const noexcept { return series_.count; }
  [[nodiscard]] double sum() const noexcept { return series_.sum; }
  [[nodiscard]] double mean() const noexcept { return series_.mean(); }
  [[nodiscard]] double min() const noexcept { return series_.min; }
  [[nodiscard]] double max() const noexcept { return series_.max; }

  /// Value at quantile `q` in [0,1]; NaN for an empty histogram.
  [[nodiscard]] double percentile(double q) const;
  [[nodiscard]] double p50() const { return percentile(0.50); }
  [[nodiscard]] double p90() const { return percentile(0.90); }
  [[nodiscard]] double p99() const { return percentile(0.99); }

  [[nodiscard]] const std::vector<double>& bounds() const noexcept { return bounds_; }
  /// Per-bucket counts; size() == bounds().size() + 1 (last = overflow).
  [[nodiscard]] const std::vector<std::uint64_t>& buckets() const noexcept { return buckets_; }

  /// Exponential default covering microseconds..minutes, for time metrics.
  static std::vector<double> time_buckets();

 private:
  std::vector<double> bounds_;
  std::vector<std::uint64_t> buckets_{0};
  SampleSeries series_;  // exact count/sum/min/max alongside the buckets
};

/// Dense handle to one metric. Obtain via MetricsRegistry interning; updates
/// through it are a single vector index — no hashing, no allocation.
using MetricId = std::uint32_t;

class MetricsRegistry {
 public:
  // ----------------------------------------------------- interning (cold)
  /// Intern lookups are idempotent: the same name always yields the same id.
  MetricId counter_id(const std::string& name);
  MetricId gauge_id(const std::string& name);
  MetricId series_id(const std::string& name);
  /// Re-interning an existing histogram keeps its original bounds.
  MetricId histogram_id(const std::string& name, std::vector<double> upper_bounds);

  /// Per-node scoped name, e.g. scoped("energy_j", 12) == "energy_j.n12".
  static std::string scoped(std::string_view base, NodeId node);
  MetricId node_counter_id(std::string_view base, NodeId node) {
    return counter_id(scoped(base, node));
  }
  MetricId node_gauge_id(std::string_view base, NodeId node) {
    return gauge_id(scoped(base, node));
  }

  // ------------------------------------------------------- updates (hot)
  void add(MetricId id, double v = 1.0) { counters_[id].value += v; }
  void set(MetricId id, double v) { gauges_[id].value = v; }
  void sample(MetricId id, double v) { series_[id].value.add(v); }
  void observe(MetricId id, double v) { histograms_[id].value.observe(v); }

  /// String-keyed updates for call sites that intern at update time (the
  /// Stats facade, the coverage ledger).
  void add_named(const std::string& name, double v = 1.0) { add(counter_id(name), v); }
  void sample_named(const std::string& name, double v) { sample(series_id(name), v); }

  // ------------------------------------------------------- reads (cold)
  [[nodiscard]] double counter(MetricId id) const { return counters_[id].value; }
  [[nodiscard]] double gauge(MetricId id) const { return gauges_[id].value; }
  [[nodiscard]] const SampleSeries& series(MetricId id) const { return series_[id].value; }
  [[nodiscard]] const Histogram& histogram(MetricId id) const { return histograms_[id].value; }

  /// Value of a counter by name; 0.0 when the name was never interned.
  [[nodiscard]] double counter_value(const std::string& name) const;
  [[nodiscard]] double gauge_value(const std::string& name) const;
  /// Series by name; a shared empty series when the name was never interned.
  [[nodiscard]] const SampleSeries& series_by_name(const std::string& name) const;

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
  template <typename Fn>
  void for_each_histogram(Fn&& fn) const {
    for (const auto& e : histograms_) fn(e.name, e.value);
  }

 private:
  template <typename T>
  struct Entry {
    std::string name;
    T value{};
  };

  template <typename T>
  static MetricId intern(std::unordered_map<std::string, MetricId>& index,
                         std::vector<Entry<T>>& store, const std::string& name) {
    const auto [it, inserted] = index.emplace(name, static_cast<MetricId>(store.size()));
    if (inserted) store.push_back(Entry<T>{name, T{}});
    return it->second;
  }

  std::unordered_map<std::string, MetricId> counter_index_;
  std::unordered_map<std::string, MetricId> gauge_index_;
  std::unordered_map<std::string, MetricId> series_index_;
  std::unordered_map<std::string, MetricId> histogram_index_;
  std::vector<Entry<double>> counters_;
  std::vector<Entry<double>> gauges_;
  std::vector<Entry<SampleSeries>> series_;
  std::vector<Entry<Histogram>> histograms_;
};

}  // namespace icc::sim

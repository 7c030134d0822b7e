#ifndef EMSIM_OBS_METRICS_H_
#define EMSIM_OBS_METRICS_H_

#include <algorithm>
#include <cstdint>
#include <map>
#include <string>
#include <vector>

#include "stats/time_weighted.h"

namespace emsim::obs {

/// Monotonically increasing event count (requests served, events dispatched).
class Counter {
 public:
  void Increment(uint64_t n = 1) { value_ += n; }
  uint64_t value() const { return value_; }

 private:
  uint64_t value_ = 0;
};

/// Last-value-wins instantaneous measurement with a running maximum
/// (calendar depth, outstanding writes). Meaningful for signals >= 0.
class Gauge {
 public:
  void Set(double v) {
    value_ = v;
    max_ = std::max(max_, v);
  }
  void Add(double delta) { Set(value_ + delta); }
  double value() const { return value_; }
  double max() const { return max_; }

 private:
  double value_ = 0.0;
  double max_ = 0.0;
};

/// Piecewise-constant signal integrated over simulated time (disk busy
/// state, queue length, cache occupancy). A thin veneer over
/// stats::TimeWeighted so exporters can treat it uniformly with the other
/// instrument kinds.
class Timeline {
 public:
  /// Signal takes value `value` from time `now` on; times non-decreasing.
  void Update(double now, double value) { series_.Update(now, value); }

  /// Closes the integration window at `now` without changing the value.
  void Flush(double now) { series_.Flush(now); }

  const stats::TimeWeighted& series() const { return series_; }

 private:
  stats::TimeWeighted series_;
};

/// Name-keyed registry of Counters, Gauges and Timelines for one simulation.
///
/// Instrument references stay valid for the registry's lifetime (node-based
/// storage), so components look their instruments up once at wiring time and
/// touch only the instrument on the hot path.
///
/// Collection is opt-in by absence: a component handed no registry (nullptr)
/// keeps null instrument pointers and skips every hook behind one branch, so
/// instruments cost nothing when metrics are off.
class MetricsRegistry {
 public:
  MetricsRegistry() = default;

  MetricsRegistry(const MetricsRegistry&) = delete;
  MetricsRegistry& operator=(const MetricsRegistry&) = delete;

  /// Finds or creates the named instrument.
  Counter& GetCounter(const std::string& name) { return counters_[name]; }
  Gauge& GetGauge(const std::string& name) { return gauges_[name]; }
  Timeline& GetTimeline(const std::string& name) { return timelines_[name]; }

  /// True if the named instrument exists.
  bool HasCounter(const std::string& name) const { return counters_.contains(name); }
  bool HasGauge(const std::string& name) const { return gauges_.contains(name); }
  bool HasTimeline(const std::string& name) const { return timelines_.contains(name); }

  /// Closes every timeline's window at `now` (call once at end of run).
  void FlushTimelines(double now);

  /// One exported scalar. Timelines fan out into derived samples
  /// ("<name>.avg", "<name>.avg_active", "<name>.active_ms"), gauges into
  /// "<name>" and "<name>.max".
  struct Sample {
    std::string name;
    double value;
  };

  /// Deterministic flat export: samples sorted by name, one vector for all
  /// instrument kinds.
  std::vector<Sample> Samples() const;

 private:
  // std::map: stable references + deterministic (sorted) iteration.
  std::map<std::string, Counter> counters_;
  std::map<std::string, Gauge> gauges_;
  std::map<std::string, Timeline> timelines_;
};

}  // namespace emsim::obs

#endif  // EMSIM_OBS_METRICS_H_

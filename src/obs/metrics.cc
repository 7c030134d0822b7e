#include "obs/metrics.h"

namespace emsim::obs {

void MetricsRegistry::FlushTimelines(double now) {
  for (auto& [name, timeline] : timelines_) {
    timeline.Flush(now);
  }
}

std::vector<MetricsRegistry::Sample> MetricsRegistry::Samples() const {
  std::vector<Sample> out;
  out.reserve(counters_.size() + 2 * gauges_.size() + 3 * timelines_.size());
  for (const auto& [name, counter] : counters_) {
    out.push_back({name, static_cast<double>(counter.value())});
  }
  for (const auto& [name, gauge] : gauges_) {
    out.push_back({name, gauge.value()});
    out.push_back({name + ".max", gauge.max()});
  }
  for (const auto& [name, timeline] : timelines_) {
    const stats::TimeWeighted& s = timeline.series();
    out.push_back({name + ".active_ms", s.PositiveTime()});
    out.push_back({name + ".avg", s.Average()});
    out.push_back({name + ".avg_active", s.AverageWhilePositive()});
  }
  std::sort(out.begin(), out.end(),
            [](const Sample& a, const Sample& b) { return a.name < b.name; });
  return out;
}

}  // namespace emsim::obs

// The metrics registry's threading contract: one *unsynchronized*
// MetricsRegistry per simulation, never shared across threads — a threaded
// RunTrials runs one simulation (and thus one registry) per trial on
// worker threads, so the supported concurrent pattern is many independent
// registries ticking at once. The suite carries the `thread` label so the
// EMSIM_SANITIZE=thread CI job verifies there is no hidden shared state
// behind the unsynchronized API.

#include <cstddef>
#include <thread>
#include <vector>

#include <gtest/gtest.h>

#include "obs/metrics.h"

namespace emsim::obs {
namespace {

TEST(MetricsRegistryConcurrencyTest, IndependentRegistriesPerThread) {
  constexpr int kThreads = 4;
  constexpr int kTicks = 20000;
  std::vector<std::vector<MetricsRegistry::Sample>> samples(kThreads);
  std::vector<std::thread> workers;
  workers.reserve(kThreads);
  for (int w = 0; w < kThreads; ++w) {
    workers.emplace_back([&samples, w] {
      MetricsRegistry registry;
      Counter& events = registry.GetCounter("sim.events");
      Gauge& depth = registry.GetGauge("calendar.depth");
      Timeline& busy = registry.GetTimeline("disk.busy");
      for (int i = 0; i < kTicks; ++i) {
        events.Increment();
        depth.Set(static_cast<double>(i % 7));
        busy.Update(static_cast<double>(i), static_cast<double>(i % 2));
      }
      registry.FlushTimelines(static_cast<double>(kTicks));
      samples[static_cast<size_t>(w)] = registry.Samples();
    });
  }
  for (std::thread& worker : workers) {
    worker.join();
  }
  // Every thread ran the identical deterministic program, so every export
  // must be identical — and nonempty.
  ASSERT_FALSE(samples[0].empty());
  for (int w = 1; w < kThreads; ++w) {
    ASSERT_EQ(samples[static_cast<size_t>(w)].size(), samples[0].size());
    for (size_t i = 0; i < samples[0].size(); ++i) {
      EXPECT_EQ(samples[static_cast<size_t>(w)][i].name, samples[0][i].name);
      EXPECT_EQ(samples[static_cast<size_t>(w)][i].value, samples[0][i].value);
    }
  }
}

}  // namespace
}  // namespace emsim::obs

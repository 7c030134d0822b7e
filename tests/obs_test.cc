#include "obs/metrics.h"

#include <cstddef>
#include <string>
#include <utility>
#include <vector>

#include <gtest/gtest.h>

#include "core/config.h"
#include "core/merge_simulator.h"
#include "core/result.h"
#include "core/result_fields.h"

namespace emsim::obs {
namespace {

TEST(CounterTest, StartsAtZeroAndAccumulates) {
  Counter c;
  EXPECT_EQ(c.value(), 0u);
  c.Increment();
  c.Increment(41);
  EXPECT_EQ(c.value(), 42u);
}

TEST(GaugeTest, TracksLastValueAndMax) {
  Gauge g;
  EXPECT_EQ(g.value(), 0.0);
  g.Set(3.0);
  g.Set(1.5);
  EXPECT_DOUBLE_EQ(g.value(), 1.5);
  EXPECT_DOUBLE_EQ(g.max(), 3.0);
  g.Add(10.0);
  EXPECT_DOUBLE_EQ(g.value(), 11.5);
  EXPECT_DOUBLE_EQ(g.max(), 11.5);
}

TEST(TimelineTest, TimeWeightedUtilizationMath) {
  // A disk busy from t=10 to t=30 inside a 40 ms window: 50% utilization
  // overall, 100% while positive, 20 ms of positive time.
  Timeline t;
  t.Update(0.0, 0.0);
  t.Update(10.0, 1.0);
  t.Update(30.0, 0.0);
  t.Flush(40.0);
  EXPECT_DOUBLE_EQ(t.series().Average(), 0.5);
  EXPECT_DOUBLE_EQ(t.series().AverageWhilePositive(), 1.0);
  EXPECT_DOUBLE_EQ(t.series().PositiveTime(), 20.0);
  EXPECT_DOUBLE_EQ(t.series().TotalTime(), 40.0);
}

TEST(MetricsRegistryTest, SameNameReturnsSameInstrument) {
  MetricsRegistry reg;
  Counter& a = reg.GetCounter("x");
  a.Increment(5);
  EXPECT_EQ(reg.GetCounter("x").value(), 5u);
  EXPECT_NE(&reg.GetCounter("x"), &reg.GetCounter("y"));
  EXPECT_TRUE(reg.HasCounter("x"));
  EXPECT_FALSE(reg.HasCounter("z"));
}

TEST(MetricsRegistryTest, ReferencesStayValidAcrossGrowth) {
  MetricsRegistry reg;
  Counter& first = reg.GetCounter("a");
  for (int i = 0; i < 100; ++i) {
    // Built with += because string operator+ trips gcc 12's -Wrestrict
    // false positive in inlined libstdc++ code (GCC PR 105329) under -O2.
    std::string name = "c";
    name += std::to_string(i);
    reg.GetCounter(name);
  }
  first.Increment();
  EXPECT_EQ(reg.GetCounter("a").value(), 1u);
}

TEST(MetricsRegistryTest, SamplesAreSortedAndDerived) {
  MetricsRegistry reg;
  reg.GetCounter("zeta").Increment(7);
  reg.GetGauge("alpha").Set(2.0);
  Timeline& t = reg.GetTimeline("mid");
  t.Update(0.0, 4.0);
  reg.FlushTimelines(10.0);

  std::vector<MetricsRegistry::Sample> samples = reg.Samples();
  ASSERT_EQ(samples.size(), 6u);  // 1 counter + 2 gauge + 3 timeline samples.
  for (size_t i = 1; i < samples.size(); ++i) {
    EXPECT_LT(samples[i - 1].name, samples[i].name);
  }
  EXPECT_EQ(samples[0].name, "alpha");
  EXPECT_DOUBLE_EQ(samples[0].value, 2.0);
  EXPECT_EQ(samples[1].name, "alpha.max");
  EXPECT_EQ(samples[2].name, "mid.active_ms");
  EXPECT_DOUBLE_EQ(samples[2].value, 10.0);
  EXPECT_EQ(samples[3].name, "mid.avg");
  EXPECT_DOUBLE_EQ(samples[3].value, 4.0);
  EXPECT_EQ(samples[4].name, "mid.avg_active");
  EXPECT_EQ(samples[5].name, "zeta");
  EXPECT_DOUBLE_EQ(samples[5].value, 7.0);
}

core::MergeConfig SmallConfig() {
  core::MergeConfig cfg;
  cfg.num_runs = 4;
  cfg.num_disks = 2;
  cfg.blocks_per_run = 25;
  cfg.prefetch_depth = 2;
  cfg.strategy = core::Strategy::kAllDisksOneRun;
  cfg.seed = 7;
  return cfg;
}

TEST(MergeMetricsTest, CollectedRegistryReachesMergeResult) {
  core::MergeConfig cfg = SmallConfig();
  cfg.collect_metrics = true;
  auto result = core::SimulateMerge(cfg);
  ASSERT_TRUE(result.ok());
  ASSERT_FALSE(result->metrics.empty());

  auto value_of = [&](const std::string& name) -> double {
    for (const auto& sample : result->metrics) {
      if (sample.name == name) {
        return sample.value;
      }
    }
    ADD_FAILURE() << "missing metric " << name;
    return -1.0;
  };
  // Kernel: every recorded resume/callback is a calendar event.
  EXPECT_GT(value_of("sim.resumes"), 0.0);
  EXPECT_LE(value_of("sim.resumes") + value_of("sim.callbacks"),
            static_cast<double>(result->sim_events));
  // Disk: per-disk busy timelines and the shared request counter.
  EXPECT_EQ(value_of("disk.requests"), static_cast<double>(result->disk_totals.requests));
  EXPECT_GT(value_of("disk0.busy.avg"), 0.0);
  EXPECT_LE(value_of("disk0.busy.avg"), 1.0);
  EXPECT_GT(value_of("disks.concurrency.avg_active"), 0.0);
  // Cache: occupancy timeline matches the always-on statistic.
  EXPECT_NEAR(value_of("cache.occupancy.avg"), result->mean_cache_occupancy, 1e-9);
  EXPECT_EQ(value_of("cache.deposits"), static_cast<double>(result->cache_stats.deposits));
  // Merge loop: stall wait-time accounting.
  EXPECT_EQ(value_of("merge.demand_stalls"), static_cast<double>(result->stall_ms.count()));
  EXPECT_NEAR(value_of("merge.stall_ms"), result->stall_ms.sum(),
              1e-6 * (1.0 + result->stall_ms.sum()));
}

TEST(MergeMetricsTest, DisabledByDefaultButPerDiskAlwaysOn) {
  core::MergeConfig cfg = SmallConfig();
  auto result = core::SimulateMerge(cfg);
  ASSERT_TRUE(result.ok());
  EXPECT_TRUE(result->metrics.empty());
  ASSERT_EQ(result->per_disk.size(), 2u);
  for (const auto& u : result->per_disk) {
    EXPECT_GT(u.busy_fraction, 0.0);
    EXPECT_LE(u.busy_fraction, 1.0);
    EXPECT_GE(u.mean_queue_length, 0.0);
    EXPECT_GT(u.stats.requests, 0u);
  }
}

/// One trial's outcome with the metric samples cleared. Every configuration
/// below merges to completion.
core::MergeResult TrialWithoutMetrics(const core::MergeConfig& cfg) {
  auto result = core::SimulateMerge(cfg);
  EXPECT_TRUE(result.ok()) << result.status().ToString();
  if (!result.ok()) {
    return core::MergeResult{};
  }
  result->metrics.clear();
  return *std::move(result);
}

// With metrics off no layer holds an instrument; with them on every layer
// does. The two must simulate the same trial, field for field, on every wait
// path: both strategies and sync modes, both admission policies under a
// tight cache, each write mode, and each fault kind.
TEST(MergeMetricsTest, CollectionDoesNotPerturbTheSimulation) {
  using core::WriteTraffic;
  for (core::Strategy strategy :
       {core::Strategy::kDemandRunOnly, core::Strategy::kAllDisksOneRun}) {
    for (core::SyncMode sync : {core::SyncMode::kSynchronized, core::SyncMode::kUnsynchronized}) {
      for (core::AdmissionPolicy admission :
           {core::AdmissionPolicy::kConservative, core::AdmissionPolicy::kGreedy}) {
        for (WriteTraffic writes :
             {WriteTraffic::kNone, WriteTraffic::kSharedDisks, WriteTraffic::kSeparateDisks}) {
          for (int fault = 0; fault < 4; ++fault) {
            core::MergeConfig cfg = core::MergeConfig::Paper(6, 3, 3, strategy, sync);
            cfg.blocks_per_run = 40;
            cfg.cache_blocks = 24;
            cfg.admission = admission;
            cfg.write_traffic = writes;
            cfg.num_write_disks = 2;
            cfg.seed = 7;
            if (fault == 1) {
              cfg.fault.media_error_rate = 0.05;
              cfg.fault.latency_spike_rate = 0.1;
              cfg.fault.latency_spike_ms = 30.0;
            } else if (fault == 2) {
              cfg.fault.fail_stop_disk = 1;
              cfg.fault.fail_stop_start_ms = 100.0;
              cfg.fault.fail_stop_end_ms = 900.0;
            } else if (fault == 3) {
              cfg.fault.fail_slow_disk = 1;
              cfg.fault.fail_slow_factor = 3.0;
            }
            SCOPED_TRACE(cfg.ToString());
            const core::MergeResult off = TrialWithoutMetrics(cfg);
            cfg.collect_metrics = true;
            EXPECT_EQ(core::DiffFields(off, TrialWithoutMetrics(cfg)), std::vector<std::string>{});
          }
        }
      }
    }
  }
}

}  // namespace
}  // namespace emsim::obs

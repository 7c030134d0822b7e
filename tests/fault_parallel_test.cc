// Fault injection under the parallel trial runner: every trial owns its
// private FaultPlan / HealthTracker / retry driver, so fault-injected
// experiments must stay bit-identical to serial execution for every thread
// count (the TSan `thread` CI job runs this suite).

#include <cstddef>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "core/config.h"
#include "core/experiment.h"
#include "core/result_fields.h"
#include "fault/fault_plan.h"
#include "util/status.h"

namespace emsim::core {
namespace {

MergeConfig FaultyConfig() {
  MergeConfig cfg = MergeConfig::Paper(6, 3, 4, Strategy::kAllDisksOneRun,
                                       SyncMode::kUnsynchronized);
  cfg.blocks_per_run = 60;
  cfg.fault.media_error_rate = 0.05;
  cfg.fault.latency_spike_rate = 0.1;
  cfg.fault.retry.max_retries = 30;
  cfg.fault.retry.backoff_base_ms = 5.0;
  return cfg;
}

TEST(FaultParallelTest, ParallelTrialsBitIdenticalToSerial) {
  MergeConfig cfg = FaultyConfig();
  ExperimentResult serial = RunTrials(cfg, 6);
  for (int threads : {1, 2, 4}) {
    ExperimentResult parallel = RunTrials(cfg, 6, threads);
    ASSERT_EQ(parallel.trials.size(), serial.trials.size()) << threads;
    for (size_t t = 0; t < serial.trials.size(); ++t) {
      EXPECT_EQ(DiffFields(serial.trials[t], parallel.trials[t]), std::vector<std::string>{})
          << "threads=" << threads << " trial=" << t;
    }
    EXPECT_DOUBLE_EQ(parallel.total_ms.Mean(), serial.total_ms.Mean());
  }
}

TEST(FaultParallelTest, SweepWithFaultPointsMatchesSerialPoints) {
  MergeConfig clean = FaultyConfig();
  clean.fault = fault::FaultConfig{};  // Fault-free point in the same sweep.
  MergeConfig faulty = FaultyConfig();
  Result<std::vector<ExperimentResult>> swept =
      RunSweep({SweepUnit{"clean", clean, 3}, SweepUnit{"faulty", faulty, 3}}, 4);
  ASSERT_TRUE(swept.ok()) << swept.status().ToString();
  const std::vector<ExperimentResult>& sweep = *swept;
  ASSERT_EQ(sweep.size(), 2u);

  ExperimentResult serial_clean = RunTrials(clean, 3);
  ExperimentResult serial_faulty = RunTrials(faulty, 3);
  for (size_t t = 0; t < 3; ++t) {
    EXPECT_EQ(DiffFields(serial_clean.trials[t], sweep[0].trials[t]), std::vector<std::string>{})
        << t;
    EXPECT_EQ(DiffFields(serial_faulty.trials[t], sweep[1].trials[t]), std::vector<std::string>{})
        << t;
    EXPECT_FALSE(sweep[0].trials[t].fault.injection_enabled);
    EXPECT_TRUE(sweep[1].trials[t].fault.injection_enabled);
  }
}

TEST(FaultParallelTest, DeadlinePlumbingIsHarmlessWhenGenerous) {
  MergeConfig cfg = FaultyConfig();
  ExperimentResult unbounded = RunTrials(cfg, 4, 4);
  TrialDeadline deadline;
  deadline.max_sim_events = 100'000'000;
  deadline.max_wall_ms = 600'000.0;
  ExperimentResult bounded = RunTrials(cfg, 4, 4, deadline);
  for (size_t t = 0; t < 4; ++t) {
    EXPECT_EQ(DiffFields(unbounded.trials[t], bounded.trials[t]), std::vector<std::string>{}) << t;
  }
}

}  // namespace
}  // namespace emsim::core

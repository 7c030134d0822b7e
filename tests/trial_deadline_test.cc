// Per-trial runaway guards: the engine converts a trial that exceeds its
// simulated-event cap or wall-clock budget into kDeadlineExceeded (echoing
// the offending config), and the experiment runners propagate that failure
// with the trial index instead of hanging the whole experiment.

#include <cstdint>
#include <string>
#include <utility>
#include <vector>

#include <gtest/gtest.h>

#include "core/config.h"
#include "core/experiment.h"
#include "core/merge_simulator.h"
#include "core/result.h"
#include "sim/process.h"
#include "sim/simulation.h"
#include "util/status.h"

namespace emsim::core {
namespace {

MergeConfig SmallConfig() {
  MergeConfig cfg = MergeConfig::Paper(5, 2, 2, Strategy::kDemandRunOnly,
                                       SyncMode::kUnsynchronized);
  cfg.blocks_per_run = 40;
  return cfg;
}

TEST(TrialDeadlineTest, EventCapConvertsToDeadlineExceeded) {
  MergeConfig cfg = SmallConfig();
  cfg.max_sim_events = 50;  // Far below what the merge needs.
  Result<MergeResult> result = SimulateMerge(cfg);
  ASSERT_FALSE(result.ok());
  EXPECT_EQ(result.status().code(), StatusCode::kDeadlineExceeded);
  // The offending config is echoed so a stuck sweep names its culprit.
  EXPECT_NE(result.status().message().find("MergeConfig{"), std::string::npos)
      << result.status().ToString();
}

TEST(TrialDeadlineTest, GenerousEventCapDoesNotPerturbTheResult) {
  MergeConfig cfg = SmallConfig();
  Result<MergeResult> unbounded = SimulateMerge(cfg);
  ASSERT_TRUE(unbounded.ok());
  cfg.max_sim_events = unbounded->sim_events * 2;
  Result<MergeResult> bounded = SimulateMerge(cfg);
  ASSERT_TRUE(bounded.ok());
  // Chunked RunBounded execution pops the identical event sequence.
  EXPECT_DOUBLE_EQ(bounded->total_ms, unbounded->total_ms);
  EXPECT_EQ(bounded->sim_events, unbounded->sim_events);
  EXPECT_EQ(bounded->blocks_merged, unbounded->blocks_merged);
}

TEST(TrialDeadlineTest, WallClockBudgetConvertsToDeadlineExceeded) {
  // The wall-clock watchdog is checked between 64 Ki-event chunks, so the
  // config must generate more events than one chunk; k=25 x 3000 blocks
  // does (~90k events). An infinitesimal budget then trips the first check.
  MergeConfig cfg = MergeConfig::Paper(25, 5, 10, Strategy::kDemandRunOnly,
                                       SyncMode::kUnsynchronized);
  cfg.blocks_per_run = 3000;
  cfg.max_wall_ms = 1e-6;
  Result<MergeResult> result = SimulateMerge(cfg);
  ASSERT_FALSE(result.ok());
  EXPECT_EQ(result.status().code(), StatusCode::kDeadlineExceeded);
  EXPECT_NE(result.status().message().find("wall-clock"), std::string::npos)
      << result.status().ToString();
}

sim::Process Waiter(int repeats, double delay) {
  for (int j = 0; j < repeats; ++j) {
    co_await sim::Delay(delay);
  }
}

TEST(TrialDeadlineTest, RunBoundedMatchesRunByteForByte) {
  // The chunk primitive itself: driving a simulation in 1-event steps pops
  // the same sequence (and final clock) as one Run() call.
  auto drive = [](bool bounded) {
    sim::Simulation sim;
    for (int i = 0; i < 10; ++i) {
      sim.Spawn(Waiter(i, 1.5 * (i + 1)));
    }
    if (bounded) {
      while (!sim.RunBounded(1)) {
      }
    } else {
      sim.Run();
    }
    return std::pair<double, uint64_t>(sim.Now(), sim.events_processed());
  };
  EXPECT_EQ(drive(true), drive(false));
}

TEST(TrialDeadlineDeathTest, SerialRunnerAbortsWithTrialIndexAndConfig) {
  MergeConfig cfg = SmallConfig();
  TrialDeadline deadline;
  deadline.max_sim_events = 50;
  EXPECT_DEATH(RunTrials(cfg, 2, /*num_threads=*/1, deadline),
               "trial 0 failed.*DeadlineExceeded");
}

TEST(TrialDeadlineDeathTest, ParallelRunnerAbortsWithTrialIndexAndConfig) {
  MergeConfig cfg = SmallConfig();
  TrialDeadline deadline;
  deadline.max_sim_events = 50;
  EXPECT_DEATH(RunTrials(cfg, 4, /*num_threads=*/2, deadline),
               "trial 0 failed.*DeadlineExceeded.*MergeConfig\\{");
}

TEST(TrialDeadlineTest, SweepRunnerReturnsTaskIndex) {
  std::vector<SweepUnit> units = {SweepUnit{"a", SmallConfig(), 2},
                                  SweepUnit{"b", SmallConfig(), 2}};
  TrialDeadline deadline;
  deadline.max_sim_events = 50;
  Result<std::vector<ExperimentResult>> swept = RunSweep(units, 2, deadline);
  ASSERT_FALSE(swept.ok());
  EXPECT_EQ(swept.status().code(), StatusCode::kDeadlineExceeded);
  EXPECT_EQ(swept.status().message().rfind("sweep task 0 failed: DeadlineExceeded", 0), 0u)
      << swept.status().ToString();
}

TEST(TrialDeadlineTest, ConfigBoundsTakePrecedenceWhenTighter) {
  // A config-level event cap tighter than the harness deadline must win —
  // the echo then names the config's own bound.
  MergeConfig cfg = SmallConfig();
  cfg.max_sim_events = 50;
  Result<MergeResult> direct = SimulateMerge(cfg);
  ASSERT_FALSE(direct.ok());
  EXPECT_NE(direct.status().message().find("50 simulated events"), std::string::npos);
}

}  // namespace
}  // namespace emsim::core

// RunTrials and RunSweep promise aggregates bit-identical to the serial path —
// the whole paper-reproduction rests on trials being deterministic per seed
// regardless of how they are scheduled onto threads. These tests pin that
// contract across thread counts, including the MergeResult::metrics export
// and the JSON projection. They carry the `thread` ctest label so the
// EMSIM_SANITIZE=thread CI job runs them under TSan.

#include <atomic>
#include <cstddef>
#include <string>
#include <thread>
#include <vector>

#include <gtest/gtest.h>

#include "core/config.h"
#include "core/experiment.h"
#include "core/result.h"
#include "core/result_fields.h"
#include "core/result_json.h"
#include "util/status.h"
#include "util/thread_pool.h"

namespace emsim::core {
namespace {

MergeConfig SmallConfig() {
  MergeConfig cfg = MergeConfig::Paper(5, 2, 2, Strategy::kDemandRunOnly,
                                       SyncMode::kUnsynchronized);
  cfg.blocks_per_run = 40;
  cfg.check_invariants = true;
  cfg.collect_metrics = true;  // Exercise the registry under concurrent trials.
  return cfg;
}

// Every field of every trial, through the field table; DiffFields and
// EXPECT_EQ on doubles are exact comparisons — deliberate: the contract is
// bit-identity, not closeness.
void ExpectTrialsIdentical(const ExperimentResult& serial, const ExperimentResult& parallel) {
  ASSERT_EQ(parallel.trials.size(), serial.trials.size());
  for (size_t t = 0; t < serial.trials.size(); ++t) {
    EXPECT_EQ(DiffFields(serial.trials[t], parallel.trials[t]), std::vector<std::string>{})
        << "trial " << t;
  }
  EXPECT_EQ(parallel.total_ms.Mean(), serial.total_ms.Mean());
  EXPECT_EQ(parallel.total_ms.Variance(), serial.total_ms.Variance());
  EXPECT_EQ(parallel.success_ratio.Mean(), serial.success_ratio.Mean());
  EXPECT_EQ(parallel.concurrency.Mean(), serial.concurrency.Mean());
  EXPECT_EQ(parallel.io_operations.Mean(), serial.io_operations.Mean());
  EXPECT_EQ(parallel.cache_occupancy.Mean(), serial.cache_occupancy.Mean());
}

TEST(RunTrialsThreadsTest, BitIdenticalToSerialAcrossThreadCounts) {
  MergeConfig cfg = SmallConfig();
  const int trials = 6;
  ExperimentResult serial = RunTrials(cfg, trials);

  int hardware = static_cast<int>(std::thread::hardware_concurrency());
  if (hardware <= 0) {
    hardware = 2;
  }
  for (int threads : {1, 2, hardware}) {
    SCOPED_TRACE("threads=" + std::to_string(threads));
    ExperimentResult parallel = RunTrials(cfg, trials, threads);
    ExpectTrialsIdentical(serial, parallel);
  }
}

TEST(RunTrialsThreadsTest, ZeroThreadsUsesHardwareConcurrency) {
  MergeConfig cfg = SmallConfig();
  ExperimentResult serial = RunTrials(cfg, 4);
  ExperimentResult parallel = RunTrials(cfg, 4, /*num_threads=*/0);
  ExpectTrialsIdentical(serial, parallel);
}

TEST(RunTrialsThreadsTest, JsonExportBytesIdenticalToSerial) {
  MergeConfig cfg = SmallConfig();
  ExperimentResult serial = RunTrials(cfg, 5);
  ExperimentResult parallel = RunTrials(cfg, 5, 2);
  std::string doc_serial = ExperimentSetToJson({NamedExperiment{"t", cfg, &serial}});
  std::string doc_parallel = ExperimentSetToJson({NamedExperiment{"t", cfg, &parallel}});
  EXPECT_EQ(doc_serial, doc_parallel);
}

TEST(RunTrialsThreadsTest, MetricsCollectedForEveryTrial) {
  MergeConfig cfg = SmallConfig();
  ExperimentResult parallel = RunTrials(cfg, 4, 2);
  for (const MergeResult& trial : parallel.trials) {
    EXPECT_FALSE(trial.metrics.empty());
  }
}

// A failing trial must abort from the *joining* thread with the lowest
// failing task index — not whichever worker happened to fail first — so the
// diagnostic is deterministic across thread counts and pool states.
TEST(RunTrialsThreadsDeathTest, FailureSurfacesLowestTrialIndex) {
  // Re-exec style: the child must start without the parent's pool threads.
  testing::FLAGS_gtest_death_test_style = "threadsafe";
  MergeConfig cfg = SmallConfig();
  cfg.num_runs = 0;  // Invalid: every trial fails validation.
  EXPECT_DEATH(RunTrials(cfg, 4, 2), "trial 0 failed");
}

TEST(RunSweepTest, BitIdenticalToPerConfigSerialRuns) {
  const int trials = 3;
  std::vector<SweepUnit> units;
  std::vector<ExperimentResult> serial;
  for (int depth : {1, 2, 4}) {
    MergeConfig cfg = SmallConfig();
    cfg.prefetch_depth = depth;
    units.push_back(SweepUnit{"", cfg, trials});
    serial.push_back(RunTrials(cfg, trials));
  }
  int hardware = static_cast<int>(std::thread::hardware_concurrency());
  if (hardware <= 0) {
    hardware = 2;
  }
  for (int threads : {1, 2, hardware}) {
    SCOPED_TRACE("threads=" + std::to_string(threads));
    Result<std::vector<ExperimentResult>> swept = RunSweep(units, threads);
    ASSERT_TRUE(swept.ok()) << swept.status().ToString();
    const std::vector<ExperimentResult>& sweep = *swept;
    ASSERT_EQ(sweep.size(), serial.size());
    for (size_t c = 0; c < serial.size(); ++c) {
      SCOPED_TRACE("config=" + std::to_string(c));
      ExpectTrialsIdentical(serial[c], sweep[c]);
    }
  }
}

TEST(ThreadPoolTest, RunsEveryTaskExactlyOnce) {
  const int kTasks = 64;
  std::vector<std::atomic<int>> hits(kTasks);
  ThreadPool::Instance().Run(4, kTasks, [&hits](int i) {
    hits[static_cast<size_t>(i)].fetch_add(1, std::memory_order_relaxed);
  });
  for (int i = 0; i < kTasks; ++i) {
    EXPECT_EQ(hits[static_cast<size_t>(i)].load(), 1) << "task " << i;
  }
}

TEST(ThreadPoolTest, WorkersPersistAndGrowOnlyOnDemand) {
  // The pool is a process-wide singleton, so earlier tests may already have
  // spawned workers; assert growth relative to the current state.
  ThreadPool& pool = ThreadPool::Instance();
  int before = pool.WorkersSpawned();
  int target = before + 2;
  pool.Run(target + 1, 4 * (target + 1), [](int) {});
  EXPECT_EQ(pool.WorkersSpawned(), target);  // Caller counts toward parallelism.
  pool.Run(2, 8, [](int) {});
  EXPECT_EQ(pool.WorkersSpawned(), target);  // Persistent; smaller runs grow nothing.
}

TEST(ThreadPoolTest, SerialFallbackRunsInline) {
  std::thread::id caller = std::this_thread::get_id();
  std::vector<std::thread::id> ran(3);
  ThreadPool::Instance().Run(
      1, 3, [&](int i) { ran[static_cast<size_t>(i)] = std::this_thread::get_id(); });
  for (const std::thread::id& id : ran) {
    EXPECT_EQ(id, caller);
  }
}

}  // namespace
}  // namespace emsim::core

// Cross-module integration: the full pipeline from record generation through
// run formation and a real merge's depletion trace to trace-driven timing
// simulation, plus end-to-end agreement between the analytic models and the
// discrete-event simulator.

#include <algorithm>
#include <cstddef>
#include <cstdint>
#include <type_traits>
#include <utility>
#include <vector>

#include <gtest/gtest.h>

#include "analysis/model_params.h"
#include "analysis/predictor.h"
#include "core/config.h"
#include "core/experiment.h"
#include "core/merge_simulator.h"
#include "extsort/depletion_trace.h"
#include "extsort/record.h"
#include "extsort/run_formation.h"
#include "workload/record_generator.h"

namespace emsim {
namespace {

using core::MergeConfig;
using core::Strategy;
using core::SyncMode;

/// Sorts real records into runs and returns (trace, per-run block lengths).
std::pair<std::vector<int>, std::vector<int64_t>> RealMergeTrace(
    size_t n, workload::KeyDistribution dist,
    extsort::RunFormationStrategy strategy, size_t memory_records) {
  workload::RecordGeneratorOptions gen_opt;
  gen_opt.distribution = dist;
  gen_opt.seed = 404;
  workload::RecordGenerator gen(gen_opt);
  std::vector<extsort::Record> input;
  input.reserve(n);
  for (size_t i = 0; i < n; ++i) {
    input.push_back({gen.NextKey(), i});
  }
  extsort::RunFormationOptions rf;
  rf.memory_records = memory_records;
  rf.strategy = strategy;
  auto runs = extsort::FormRuns(input, rf);
  EXPECT_TRUE(runs.ok());
  auto outcome = extsort::ExtractDepletionTrace(*runs, extsort::kRecordsPerBlock);
  EXPECT_TRUE(outcome.ok());
  return {outcome->trace, outcome->run_blocks};
}

TEST(PipelineTest, RealTraceDrivesSimulator) {
  auto [trace, run_blocks] =
      RealMergeTrace(51000, workload::KeyDistribution::kUniform,
                     extsort::RunFormationStrategy::kLoadSort, /*memory_records=*/5100);
  ASSERT_EQ(run_blocks.size(), 10u);

  MergeConfig cfg;
  cfg.num_runs = static_cast<int>(run_blocks.size());
  cfg.num_disks = 5;
  cfg.run_lengths = run_blocks;
  cfg.prefetch_depth = 5;
  cfg.strategy = Strategy::kAllDisksOneRun;
  cfg.sync = SyncMode::kUnsynchronized;
  cfg.depletion = core::DepletionKind::kTrace;
  cfg.trace = trace;
  cfg.check_invariants = true;
  ASSERT_TRUE(cfg.Validate().ok()) << cfg.Validate().ToString();

  auto ador = core::SimulateMerge(cfg);
  ASSERT_TRUE(ador.ok());
  EXPECT_EQ(ador->blocks_merged, static_cast<int64_t>(trace.size()));

  cfg.strategy = Strategy::kDemandRunOnly;
  cfg.cache_blocks = MergeConfig::kAutoCache;
  auto demand = core::SimulateMerge(cfg);
  ASSERT_TRUE(demand.ok());

  // Inter-run prefetching should beat intra-run on a real uniform-key merge
  // too, not just under the random-depletion model.
  EXPECT_LT(ador->total_ms, demand->total_ms);
  EXPECT_GT(ador->avg_concurrency, demand->avg_concurrency);
}

TEST(PipelineTest, ReplacementSelectionTraceRunsWithUnequalRuns) {
  auto [trace, run_blocks] =
      RealMergeTrace(30000, workload::KeyDistribution::kUniform,
                     extsort::RunFormationStrategy::kReplacementSelection,
                     /*memory_records=*/2000);
  ASSERT_GT(run_blocks.size(), 1u);
  // Replacement selection produces unequal runs.
  auto [min_it, max_it] = std::minmax_element(run_blocks.begin(), run_blocks.end());
  EXPECT_NE(*min_it, *max_it);

  MergeConfig cfg;
  cfg.num_runs = static_cast<int>(run_blocks.size());
  cfg.num_disks = 3;
  cfg.run_lengths = run_blocks;
  cfg.prefetch_depth = 4;
  cfg.strategy = Strategy::kAllDisksOneRun;
  cfg.sync = SyncMode::kUnsynchronized;
  cfg.depletion = core::DepletionKind::kTrace;
  cfg.trace = trace;
  cfg.check_invariants = true;
  ASSERT_TRUE(cfg.Validate().ok()) << cfg.Validate().ToString();
  auto result = core::SimulateMerge(cfg);
  ASSERT_TRUE(result.ok());
  EXPECT_EQ(result->blocks_merged, static_cast<int64_t>(trace.size()));
}

TEST(PipelineTest, SortedDataDepletesSequentially) {
  // Disjoint key ranges (load-sort over sorted input) deplete run by run —
  // the antithesis of the random model; the pipeline must still work.
  workload::RecordGeneratorOptions gen_opt;
  gen_opt.distribution = workload::KeyDistribution::kNearlySorted;
  gen_opt.nearly_sorted_window = 0;  // Exactly sorted.
  workload::RecordGenerator gen(gen_opt);
  std::vector<extsort::Record> input;
  for (size_t i = 0; i < 10000; ++i) {
    input.push_back({gen.NextKey(), i});
  }
  extsort::RunFormationOptions rf;
  rf.memory_records = 2500;
  auto runs = extsort::FormRuns(input, rf);
  ASSERT_TRUE(runs.ok());
  auto outcome = extsort::ExtractDepletionTrace(*runs, extsort::kRecordsPerBlock);
  ASSERT_TRUE(outcome.ok());
  // The trace must be a concatenation: run i fully before run i+1.
  const auto& trace = outcome->trace;
  EXPECT_TRUE(std::is_sorted(trace.begin(), trace.end()));
}

TEST(AgreementTest, AnalyticPredictionsTrackSimulation) {
  // The end-to-end validation table of EXPERIMENTS.md, in test form.
  struct Case {
    int k, d, n;
    Strategy strategy;
    SyncMode sync;
    analysis::Scenario scenario;
    double tolerance;  // Relative.
  };
  const Case cases[] = {
      {25, 1, 1, Strategy::kDemandRunOnly, SyncMode::kUnsynchronized,
       analysis::Scenario::kNoPrefetchSingleDisk, 0.01},
      {50, 1, 1, Strategy::kDemandRunOnly, SyncMode::kUnsynchronized,
       analysis::Scenario::kNoPrefetchSingleDisk, 0.01},
      {25, 1, 10, Strategy::kDemandRunOnly, SyncMode::kUnsynchronized,
       analysis::Scenario::kIntraRunSingleDisk, 0.01},
      {25, 5, 1, Strategy::kDemandRunOnly, SyncMode::kUnsynchronized,
       analysis::Scenario::kNoPrefetchMultiDisk, 0.01},
      {25, 5, 10, Strategy::kDemandRunOnly, SyncMode::kSynchronized,
       analysis::Scenario::kIntraRunMultiDiskSync, 0.01},
      {25, 5, 10, Strategy::kAllDisksOneRun, SyncMode::kSynchronized,
       analysis::Scenario::kInterRunSync, 0.02},
  };
  for (const Case& c : cases) {
    MergeConfig cfg = MergeConfig::Paper(c.k, c.d, c.n, c.strategy, c.sync);
    auto result = core::RunTrials(cfg, 3);
    analysis::ModelParams p = analysis::ModelParams::Paper(c.k, c.d);
    analysis::Prediction pred = analysis::Predict(p, c.scenario, c.n);
    EXPECT_NEAR(result.total_ms.Mean(), pred.total_ms, pred.total_ms * c.tolerance)
        << analysis::ScenarioName(c.scenario) << " k=" << c.k << " D=" << c.d
        << " N=" << c.n;
  }
}

TEST(AgreementTest, UnsyncAsymptoteBracketsSimulation) {
  // Unsynchronized intra-run at finite N sits between the asymptotic model
  // and the synchronized time (the paper reports the same bracketing).
  MergeConfig cfg =
      MergeConfig::Paper(25, 5, 30, Strategy::kDemandRunOnly, SyncMode::kUnsynchronized);
  auto result = core::RunTrials(cfg, 3);
  analysis::ModelParams p = analysis::ModelParams::Paper(25, 5);
  double asymptote =
      analysis::Predict(p, analysis::Scenario::kIntraRunMultiDiskUnsync, 30).total_ms;
  double sync =
      analysis::Predict(p, analysis::Scenario::kIntraRunMultiDiskSync, 30).total_ms;
  EXPECT_GT(result.total_ms.Mean(), asymptote);
  EXPECT_LT(result.total_ms.Mean(), sync);
}

TEST(AgreementTest, InterRunApproachesTransferBound) {
  // Paper Fig. 3.5: with ample cache and growing N the inter-run time tends
  // to B*T/D (12.8 s for k=25, D=5) but needs N >> 10 to get close.
  analysis::ModelParams p = analysis::ModelParams::Paper(25, 5);
  double bound =
      analysis::Predict(p, analysis::Scenario::kInterRunUnsyncBound, 1).total_ms;
  MergeConfig cfg =
      MergeConfig::Paper(25, 5, 50, Strategy::kAllDisksOneRun, SyncMode::kUnsynchronized);
  auto result = core::RunTrials(cfg, 3);
  EXPECT_GT(result.total_ms.Mean(), bound);
  EXPECT_LT(result.total_ms.Mean(), bound * 1.15);  // Within 15% at N=50.
}

TEST(AgreementTest, SuperlinearSpeedupOverSingleDisk) {
  // The paper's headline: prefetching + D disks yields superlinear speedup
  // over the single-disk no-prefetch baseline (seek/latency amortization
  // compounds with concurrency).
  MergeConfig base =
      MergeConfig::Paper(25, 1, 1, Strategy::kDemandRunOnly, SyncMode::kUnsynchronized);
  MergeConfig best =
      MergeConfig::Paper(25, 5, 10, Strategy::kAllDisksOneRun, SyncMode::kUnsynchronized);
  auto base_result = core::RunTrials(base, 3);
  auto best_result = core::RunTrials(best, 3);
  double speedup = base_result.total_ms.Mean() / best_result.total_ms.Mean();
  EXPECT_GT(speedup, 5.0) << "speedup should exceed the disk count (superlinear)";
}

}  // namespace
}  // namespace emsim

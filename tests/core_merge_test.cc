#include <cstddef>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "analysis/equations.h"
#include "analysis/model_params.h"
#include "core/config.h"
#include "core/experiment.h"
#include "core/merge_simulator.h"
#include "core/result_fields.h"
#include "disk/layout.h"
#include "util/status.h"
#include "workload/depletion_generator.h"

namespace emsim::core {
namespace {

MergeConfig SmallConfig() {
  MergeConfig cfg = MergeConfig::Paper(5, 2, 2, Strategy::kDemandRunOnly,
                                       SyncMode::kUnsynchronized);
  cfg.blocks_per_run = 40;
  cfg.check_invariants = true;
  return cfg;
}

TEST(MergeConfigTest, AutoCacheSizes) {
  MergeConfig intra = MergeConfig::Paper(25, 5, 10, Strategy::kDemandRunOnly,
                                         SyncMode::kUnsynchronized);
  EXPECT_EQ(intra.EffectiveCacheBlocks(), 250);  // k*N, the paper's requirement.
  MergeConfig inter = MergeConfig::Paper(25, 5, 10, Strategy::kAllDisksOneRun,
                                         SyncMode::kUnsynchronized);
  EXPECT_GT(inter.EffectiveCacheBlocks(), 1000);  // Ample for success ratio ~1.
  inter.cache_blocks = 123;
  EXPECT_EQ(inter.EffectiveCacheBlocks(), 123);
}

TEST(MergeConfigTest, ValidationRejectsNonsense) {
  MergeConfig cfg = SmallConfig();
  cfg.num_runs = 0;
  EXPECT_FALSE(cfg.Validate().ok());

  cfg = SmallConfig();
  cfg.prefetch_depth = 0;
  EXPECT_FALSE(cfg.Validate().ok());

  cfg = SmallConfig();
  cfg.prefetch_depth = 41;  // > blocks_per_run
  EXPECT_FALSE(cfg.Validate().ok());

  cfg = SmallConfig();
  cfg.cache_blocks = 3;  // Below one block per run.
  EXPECT_FALSE(cfg.Validate().ok());

  cfg = SmallConfig();
  cfg.cpu_ms_per_block = -1;
  EXPECT_FALSE(cfg.Validate().ok());

  EXPECT_TRUE(SmallConfig().Validate().ok());
}

TEST(MergeConfigTest, ValidationRejectsCountsThatCannotBeBuilt) {
  // Each count is rejected by name before any per-run or per-disk structure
  // exists; at INT_MAX a RunLayout would exhaust memory.
  MergeConfig cfg = SmallConfig();
  cfg.num_disks = 2147483647;
  Status status = cfg.Validate();
  EXPECT_EQ(status.code(), StatusCode::kInvalidArgument);
  EXPECT_NE(status.message().find("disks"), std::string::npos) << status.ToString();

  cfg = SmallConfig();
  cfg.num_runs = 2147483647;
  status = cfg.Validate();
  EXPECT_EQ(status.code(), StatusCode::kInvalidArgument);
  EXPECT_NE(status.message().find("runs"), std::string::npos) << status.ToString();

  cfg = SmallConfig();
  cfg.write_traffic = WriteTraffic::kSeparateDisks;
  cfg.num_write_disks = 2147483647;
  status = cfg.Validate();
  EXPECT_EQ(status.code(), StatusCode::kInvalidArgument);
  EXPECT_NE(status.message().find("write_disks"), std::string::npos) << status.ToString();

  // The limits themselves are accepted.
  cfg = SmallConfig();
  cfg.num_disks = MergeConfig::kMaxDisks;
  EXPECT_TRUE(cfg.Validate().ok()) << cfg.Validate().ToString();
  cfg = SmallConfig();
  cfg.num_runs = MergeConfig::kMaxRuns;
  cfg.num_disks = 20;  // One-block runs fit on 20 paper disks.
  cfg.blocks_per_run = 1;
  cfg.prefetch_depth = 1;
  EXPECT_TRUE(cfg.Validate().ok()) << cfg.Validate().ToString();
}

TEST(MergeConfigTest, ToStringAppendsTheFaultSpecOnlyWhenInjecting) {
  MergeConfig cfg = SmallConfig();
  const std::string plain = cfg.ToString();
  EXPECT_EQ(plain.find("fault{"), std::string::npos);
  EXPECT_EQ(plain.back(), '}');

  cfg.fault.fail_stop_disk = 1;
  EXPECT_EQ(cfg.ToString(), plain + " " + cfg.fault.ToString());
}

TEST(MergeConfigTest, TraceValidation) {
  MergeConfig cfg = SmallConfig();
  cfg.depletion = DepletionKind::kTrace;
  cfg.trace = {0, 1};  // Wrong size.
  EXPECT_FALSE(cfg.Validate().ok());
  cfg.trace = workload::RoundRobinDepletionTrace(cfg.num_runs, cfg.blocks_per_run);
  EXPECT_TRUE(cfg.Validate().ok());
  cfg.trace[0] = 99;  // Out of range (and unbalances the counts).
  EXPECT_FALSE(cfg.Validate().ok());
}

TEST(MergeSimulatorTest, InvalidConfigReturnsStatus) {
  MergeConfig cfg = SmallConfig();
  cfg.num_disks = 0;
  auto result = SimulateMerge(cfg);
  EXPECT_FALSE(result.ok());
  EXPECT_EQ(result.status().code(), StatusCode::kInvalidArgument);
}

TEST(MergeSimulatorTest, ConservationOfBlocks) {
  auto result = SimulateMerge(SmallConfig());
  ASSERT_TRUE(result.ok());
  EXPECT_EQ(result->blocks_merged, 5 * 40);
  EXPECT_GT(result->total_ms, 0.0);
  // Every block is read from disk exactly once.
  EXPECT_EQ(result->disk_totals.blocks_transferred, 5u * 40u);
  EXPECT_EQ(result->cache_stats.deposits, 5u * 40u);
  EXPECT_EQ(result->cache_stats.consumptions, 5u * 40u);
}

TEST(MergeSimulatorTest, DeterministicForSeed) {
  MergeConfig cfg = SmallConfig();
  cfg.seed = 77;
  auto a = SimulateMerge(cfg);
  auto b = SimulateMerge(cfg);
  ASSERT_TRUE(a.ok());
  ASSERT_TRUE(b.ok());
  EXPECT_DOUBLE_EQ(a->total_ms, b->total_ms);
  EXPECT_EQ(a->sim_events, b->sim_events);
  EXPECT_EQ(a->io_operations, b->io_operations);
}

TEST(MergeSimulatorTest, SeedsChangeOutcome) {
  MergeConfig cfg = SmallConfig();
  cfg.seed = 1;
  auto a = SimulateMerge(cfg);
  cfg.seed = 2;
  auto b = SimulateMerge(cfg);
  ASSERT_TRUE(a.ok());
  ASSERT_TRUE(b.ok());
  EXPECT_NE(a->total_ms, b->total_ms);
}

TEST(MergeSimulatorTest, NoPrefetchSingleDiskMatchesEq1) {
  MergeConfig cfg = MergeConfig::Paper(25, 1, 1, Strategy::kDemandRunOnly,
                                       SyncMode::kUnsynchronized);
  auto result = SimulateMerge(cfg);
  ASSERT_TRUE(result.ok());
  analysis::ModelParams p = analysis::ModelParams::Paper(25, 1);
  double expect = analysis::TotalMs(p, analysis::Eq1NoPrefetchSingleDisk(p));
  EXPECT_NEAR(result->total_ms, expect, expect * 0.01);
}

TEST(MergeSimulatorTest, IntraRunSingleDiskMatchesEq2) {
  MergeConfig cfg = MergeConfig::Paper(25, 1, 10, Strategy::kDemandRunOnly,
                                       SyncMode::kUnsynchronized);
  auto result = SimulateMerge(cfg);
  ASSERT_TRUE(result.ok());
  analysis::ModelParams p = analysis::ModelParams::Paper(25, 1);
  double expect = analysis::TotalMs(p, analysis::Eq2IntraRunSingleDisk(p, 10));
  EXPECT_NEAR(result->total_ms, expect, expect * 0.01);
}

TEST(MergeSimulatorTest, NoPrefetchMultiDiskMatchesEq3) {
  MergeConfig cfg = MergeConfig::Paper(25, 5, 1, Strategy::kDemandRunOnly,
                                       SyncMode::kUnsynchronized);
  auto result = SimulateMerge(cfg);
  ASSERT_TRUE(result.ok());
  analysis::ModelParams p = analysis::ModelParams::Paper(25, 5);
  double expect = analysis::TotalMs(p, analysis::Eq3NoPrefetchMultiDisk(p));
  EXPECT_NEAR(result->total_ms, expect, expect * 0.01);
}

TEST(MergeSimulatorTest, IntraRunMultiDiskSyncMatchesEq4) {
  MergeConfig cfg = MergeConfig::Paper(25, 5, 10, Strategy::kDemandRunOnly,
                                       SyncMode::kSynchronized);
  auto result = SimulateMerge(cfg);
  ASSERT_TRUE(result.ok());
  analysis::ModelParams p = analysis::ModelParams::Paper(25, 5);
  double expect = analysis::TotalMs(p, analysis::Eq4IntraRunMultiDiskSync(p, 10));
  EXPECT_NEAR(result->total_ms, expect, expect * 0.01);
}

TEST(MergeSimulatorTest, InterRunSyncMatchesEq5AtFullSuccess) {
  MergeConfig cfg = MergeConfig::Paper(25, 5, 10, Strategy::kAllDisksOneRun,
                                       SyncMode::kSynchronized);
  auto result = SimulateMerge(cfg);
  ASSERT_TRUE(result.ok());
  EXPECT_NEAR(result->SuccessRatio(), 1.0, 0.01);
  analysis::ModelParams p = analysis::ModelParams::Paper(25, 5);
  double expect = analysis::TotalMs(p, analysis::Eq5InterRunSync(p, 10));
  EXPECT_NEAR(result->total_ms, expect, expect * 0.02);
}

TEST(MergeSimulatorTest, SingleDiskSyncEqualsUnsyncIoTime) {
  // With one disk there is no overlap to exploit; the paper says the total
  // I/O time is essentially identical (CPU is infinitely fast here).
  MergeConfig sync_cfg = MergeConfig::Paper(10, 1, 5, Strategy::kDemandRunOnly,
                                            SyncMode::kSynchronized);
  sync_cfg.blocks_per_run = 200;
  MergeConfig unsync_cfg = sync_cfg;
  unsync_cfg.sync = SyncMode::kUnsynchronized;
  auto s = SimulateMerge(sync_cfg);
  auto u = SimulateMerge(unsync_cfg);
  ASSERT_TRUE(s.ok());
  ASSERT_TRUE(u.ok());
  EXPECT_NEAR(s->total_ms, u->total_ms, s->total_ms * 0.01);
}

TEST(MergeSimulatorTest, UnsyncBeatsSyncOnMultipleDisks) {
  MergeConfig sync_cfg = MergeConfig::Paper(25, 5, 20, Strategy::kDemandRunOnly,
                                            SyncMode::kSynchronized);
  MergeConfig unsync_cfg = sync_cfg;
  unsync_cfg.sync = SyncMode::kUnsynchronized;
  auto s = SimulateMerge(sync_cfg);
  auto u = SimulateMerge(unsync_cfg);
  ASSERT_TRUE(s.ok());
  ASSERT_TRUE(u.ok());
  EXPECT_LT(u->total_ms, s->total_ms * 0.75);
  EXPECT_GT(u->avg_concurrency, 1.5);
}

TEST(MergeSimulatorTest, UnsyncIntraConcurrencyNearUrnPrediction) {
  MergeConfig cfg = MergeConfig::Paper(25, 5, 30, Strategy::kDemandRunOnly,
                                       SyncMode::kUnsynchronized);
  auto result = SimulateMerge(cfg);
  ASSERT_TRUE(result.ok());
  // Paper: asymptotic overlap 2.51 for D=5; N=30 is sub-asymptotic, so allow
  // a band below it.
  EXPECT_GT(result->avg_concurrency, 1.9);
  EXPECT_LT(result->avg_concurrency, 2.8);
}

TEST(MergeSimulatorTest, FiniteCpuAddsTimeWhenSynchronized) {
  MergeConfig cfg = MergeConfig::Paper(10, 2, 5, Strategy::kDemandRunOnly,
                                       SyncMode::kSynchronized);
  cfg.blocks_per_run = 100;
  auto fast = SimulateMerge(cfg);
  cfg.cpu_ms_per_block = 0.5;
  auto slow = SimulateMerge(cfg);
  ASSERT_TRUE(fast.ok());
  ASSERT_TRUE(slow.ok());
  double cpu_total = 0.5 * 10 * 100;
  EXPECT_NEAR(slow->total_ms, fast->total_ms + cpu_total, fast->total_ms * 0.02);
  EXPECT_DOUBLE_EQ(slow->cpu_busy_ms, cpu_total);
}

TEST(MergeSimulatorTest, FiniteCpuOverlapsWhenUnsynchronized) {
  MergeConfig cfg = MergeConfig::Paper(25, 5, 10, Strategy::kAllDisksOneRun,
                                       SyncMode::kUnsynchronized);
  auto fast = SimulateMerge(cfg);
  cfg.cpu_ms_per_block = 0.3;
  auto slow = SimulateMerge(cfg);
  ASSERT_TRUE(fast.ok());
  ASSERT_TRUE(slow.ok());
  double cpu_total = 0.3 * 25 * 1000;
  // Overlap: the slowdown is well below the full CPU demand.
  EXPECT_LT(slow->total_ms, fast->total_ms + cpu_total * 0.8);
  EXPECT_GT(slow->total_ms, fast->total_ms);
}

TEST(MergeSimulatorTest, TraceDepletionReplaysExactly) {
  MergeConfig cfg = SmallConfig();
  cfg.depletion = DepletionKind::kTrace;
  cfg.trace = workload::RoundRobinDepletionTrace(cfg.num_runs, cfg.blocks_per_run);
  auto a = SimulateMerge(cfg);
  auto b = SimulateMerge(cfg);
  ASSERT_TRUE(a.ok());
  // Trace + fixed seed: fully deterministic.
  EXPECT_DOUBLE_EQ(a->total_ms, b->total_ms);
  EXPECT_EQ(a->blocks_merged, 200);
}

TEST(MergeSimulatorTest, ZipfDepletionCompletes) {
  MergeConfig cfg = SmallConfig();
  cfg.depletion = DepletionKind::kZipf;
  cfg.zipf_theta = 0.99;
  auto result = SimulateMerge(cfg);
  ASSERT_TRUE(result.ok());
  EXPECT_EQ(result->blocks_merged, 200);
}

TEST(MergeSimulatorTest, VariableRunLengths) {
  MergeConfig cfg = SmallConfig();
  cfg.run_lengths = {10, 20, 30, 40, 50};
  auto result = SimulateMerge(cfg);
  ASSERT_TRUE(result.ok());
  EXPECT_EQ(result->blocks_merged, 150);
  EXPECT_EQ(result->disk_totals.blocks_transferred, 150u);
}

TEST(MergeSimulatorTest, GreedyAdmissionCompletesAndFillsCache) {
  MergeConfig cfg = MergeConfig::Paper(25, 5, 10, Strategy::kAllDisksOneRun,
                                       SyncMode::kUnsynchronized);
  cfg.cache_blocks = 400;  // Tight: forces partial admissions.
  cfg.check_invariants = true;
  cfg.blocks_per_run = 200;
  cfg.admission = AdmissionPolicy::kGreedy;
  auto result = SimulateMerge(cfg);
  ASSERT_TRUE(result.ok());
  EXPECT_EQ(result->blocks_merged, 25 * 200);
  EXPECT_LT(result->SuccessRatio(), 1.0);
}

TEST(MergeSimulatorTest, AdmissionPoliciesEquivalentAtUnitDepth) {
  // The paper's Markov analysis compares the policies at unit fetches
  // (N = 1, one block per disk); there the two admission policies are
  // within noise of each other in this simulator (see the
  // bench_ablation_cache_policy discussion: with N > 1 greedy's partial
  // multi-block fetches amortize seeks and win on total time).
  MergeConfig cfg = MergeConfig::Paper(25, 5, 1, Strategy::kAllDisksOneRun,
                                       SyncMode::kUnsynchronized);
  cfg.cache_blocks = 80;
  auto conservative = RunTrials(cfg, 3);
  cfg.admission = AdmissionPolicy::kGreedy;
  auto greedy = RunTrials(cfg, 3);
  EXPECT_NEAR(conservative.MeanTotalSeconds(), greedy.MeanTotalSeconds(),
              conservative.MeanTotalSeconds() * 0.03);
}

TEST(MergeSimulatorTest, GreedyNeverSlowerAtDepth) {
  // With N > 1 and a tight cache, greedy admission outperforms the paper's
  // conservative policy on total time in this simulator (measured ablation).
  MergeConfig cfg = MergeConfig::Paper(25, 5, 10, Strategy::kAllDisksOneRun,
                                       SyncMode::kUnsynchronized);
  cfg.cache_blocks = 500;
  auto conservative = RunTrials(cfg, 3);
  cfg.admission = AdmissionPolicy::kGreedy;
  auto greedy = RunTrials(cfg, 3);
  EXPECT_LT(greedy.MeanTotalSeconds(), conservative.MeanTotalSeconds());
}

TEST(MergeSimulatorTest, VictimPoliciesAllComplete) {
  for (auto victim : {VictimPolicy::kRandom, VictimPolicy::kRoundRobin,
                      VictimPolicy::kFewestBuffered, VictimPolicy::kNearestHead}) {
    MergeConfig cfg = SmallConfig();
    cfg.strategy = Strategy::kAllDisksOneRun;
    cfg.victim = victim;
    auto result = SimulateMerge(cfg);
    ASSERT_TRUE(result.ok());
    EXPECT_EQ(result->blocks_merged, 200);
  }
}

TEST(MergeSimulatorTest, ClairvoyantRequiresTrace) {
  MergeConfig cfg = SmallConfig();
  cfg.strategy = Strategy::kAllDisksOneRun;
  cfg.victim = VictimPolicy::kClairvoyant;
  EXPECT_FALSE(cfg.Validate().ok());
  cfg.depletion = DepletionKind::kTrace;
  cfg.trace = workload::UniformDepletionTrace(cfg.num_runs, cfg.blocks_per_run, 3);
  EXPECT_TRUE(cfg.Validate().ok());
}

TEST(MergeSimulatorTest, ClairvoyantNeverLosesToRandomOnTraces) {
  // Aggarwal-Vitter prediction is an upper bound for victim choice: with a
  // tight cache it should beat (or tie) the random policy.
  MergeConfig cfg = MergeConfig::Paper(25, 5, 5, Strategy::kAllDisksOneRun,
                                       SyncMode::kUnsynchronized);
  cfg.blocks_per_run = 400;
  cfg.cache_blocks = 300;  // Tight: victim choice matters.
  cfg.depletion = DepletionKind::kTrace;
  cfg.trace = workload::UniformDepletionTrace(cfg.num_runs, cfg.blocks_per_run, 11);
  auto random = SimulateMerge(cfg);
  cfg.victim = VictimPolicy::kClairvoyant;
  auto clairvoyant = SimulateMerge(cfg);
  ASSERT_TRUE(random.ok());
  ASSERT_TRUE(clairvoyant.ok());
  EXPECT_LE(clairvoyant->total_ms, random->total_ms * 1.02);
}

TEST(MergeSimulatorTest, DegenerateSizes) {
  // k=1: a single run, pure sequential reading.
  MergeConfig cfg = MergeConfig::Paper(1, 1, 1, Strategy::kDemandRunOnly,
                                       SyncMode::kUnsynchronized);
  cfg.blocks_per_run = 10;
  cfg.check_invariants = true;
  auto result = SimulateMerge(cfg);
  ASSERT_TRUE(result.ok());
  EXPECT_EQ(result->blocks_merged, 10);

  // One block per run.
  cfg = MergeConfig::Paper(8, 3, 1, Strategy::kAllDisksOneRun, SyncMode::kSynchronized);
  cfg.blocks_per_run = 1;
  cfg.check_invariants = true;
  result = SimulateMerge(cfg);
  ASSERT_TRUE(result.ok());
  EXPECT_EQ(result->blocks_merged, 8);

  // N equal to the whole run.
  cfg = MergeConfig::Paper(4, 2, 10, Strategy::kDemandRunOnly, SyncMode::kUnsynchronized);
  cfg.blocks_per_run = 10;
  cfg.check_invariants = true;
  result = SimulateMerge(cfg);
  ASSERT_TRUE(result.ok());
  EXPECT_EQ(result->blocks_merged, 40);
  // Everything fits: after preload there are no further I/O operations.
  EXPECT_EQ(result->io_operations, 0u);
}

TEST(MergeSimulatorTest, StripedPlacementCompletesAndOverlaps) {
  MergeConfig cfg = MergeConfig::Paper(10, 5, 10, Strategy::kDemandRunOnly,
                                       SyncMode::kUnsynchronized);
  cfg.blocks_per_run = 200;
  cfg.placement = disk::RunPlacement::kStriped;
  cfg.check_invariants = true;
  auto striped = SimulateMerge(cfg);
  ASSERT_TRUE(striped.ok()) << striped.status().ToString();
  EXPECT_EQ(striped->blocks_merged, 2000);

  cfg.placement = disk::RunPlacement::kRoundRobin;
  auto clustered = SimulateMerge(cfg);
  ASSERT_TRUE(clustered.ok());
  // A striped N-block fetch engages min(N, D) disks at once; clustered
  // demand-only tops out at the urn-game overlap.
  EXPECT_GT(striped->avg_concurrency, clustered->avg_concurrency * 1.5);
  EXPECT_LT(striped->total_ms, clustered->total_ms);
}

TEST(MergeSimulatorTest, StripedRejectsInterRun) {
  MergeConfig cfg = MergeConfig::Paper(10, 5, 10, Strategy::kAllDisksOneRun,
                                       SyncMode::kUnsynchronized);
  cfg.placement = disk::RunPlacement::kStriped;
  EXPECT_FALSE(cfg.Validate().ok());
}

TEST(MergeSimulatorTest, StripedRejectsIndivisibleRuns) {
  MergeConfig cfg = MergeConfig::Paper(10, 3, 5, Strategy::kDemandRunOnly,
                                       SyncMode::kUnsynchronized);
  cfg.blocks_per_run = 100;  // Not divisible by 3.
  cfg.placement = disk::RunPlacement::kStriped;
  EXPECT_FALSE(cfg.Validate().ok());
}

TEST(MergeSimulatorTest, StripedUnitFetchMatchesClusteredBaseline) {
  // With N = 1 striping buys nothing (every fetch is one block on one
  // disk); time matches the clustered no-prefetch baseline.
  MergeConfig cfg = MergeConfig::Paper(10, 5, 1, Strategy::kDemandRunOnly,
                                       SyncMode::kUnsynchronized);
  cfg.blocks_per_run = 200;
  cfg.placement = disk::RunPlacement::kStriped;
  auto striped = RunTrials(cfg, 3);
  cfg.placement = disk::RunPlacement::kRoundRobin;
  auto clustered = RunTrials(cfg, 3);
  EXPECT_NEAR(striped.MeanTotalSeconds(), clustered.MeanTotalSeconds(),
              clustered.MeanTotalSeconds() * 0.05);
}

TEST(MergeSimulatorTest, MoreDisksNeverSlower) {
  double prev = 1e18;
  for (int d : {1, 5, 25}) {
    MergeConfig cfg = MergeConfig::Paper(25, d, 10, Strategy::kDemandRunOnly,
                                         SyncMode::kUnsynchronized);
    auto result = SimulateMerge(cfg);
    ASSERT_TRUE(result.ok());
    EXPECT_LE(result->total_ms, prev * 1.01);
    prev = result->total_ms;
  }
}

TEST(ExperimentTest, AggregatesTrials) {
  MergeConfig cfg = SmallConfig();
  auto result = RunTrials(cfg, 4);
  EXPECT_EQ(result.trials.size(), 4u);
  EXPECT_EQ(result.total_ms.count(), 4u);
  EXPECT_GT(result.MeanTotalSeconds(), 0.0);
  auto ci = result.TotalSecondsCi();
  EXPECT_TRUE(ci.Contains(result.MeanTotalSeconds()));
  EXPECT_FALSE(result.ToString().empty());
}

TEST(ExperimentTest, TrialsUseDistinctSeeds) {
  MergeConfig cfg = SmallConfig();
  auto result = RunTrials(cfg, 3);
  EXPECT_GT(result.total_ms.StdDev(), 0.0);
}

TEST(ExperimentTest, ParallelTrialsMatchSerialExactly) {
  MergeConfig cfg = SmallConfig();
  auto serial = RunTrials(cfg, 6);
  auto parallel = RunTrials(cfg, 6, 3);
  ASSERT_EQ(parallel.trials.size(), serial.trials.size());
  for (size_t t = 0; t < serial.trials.size(); ++t) {
    EXPECT_EQ(DiffFields(serial.trials[t], parallel.trials[t]), std::vector<std::string>{}) << t;
  }
  EXPECT_DOUBLE_EQ(parallel.total_ms.Mean(), serial.total_ms.Mean());
  EXPECT_DOUBLE_EQ(parallel.total_ms.Variance(), serial.total_ms.Variance());
}

TEST(ExperimentTest, ParallelHandlesMoreThreadsThanTrials) {
  MergeConfig cfg = SmallConfig();
  auto result = RunTrials(cfg, 2, 16);
  EXPECT_EQ(result.trials.size(), 2u);
}

}  // namespace
}  // namespace emsim::core

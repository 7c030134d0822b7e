// Property-based sweeps over the configuration space: invariants that must
// hold for EVERY strategy/geometry combination, exercised with parameterized
// gtest suites.

#include <algorithm>
#include <cmath>
#include <cstddef>
#include <cstdint>
#include <string>
#include <tuple>
#include <vector>

#include <gtest/gtest.h>

#include "analysis/equations.h"
#include "analysis/model_params.h"
#include "core/config.h"
#include "core/experiment.h"
#include "core/merge_simulator.h"
#include "core/result.h"
#include "core/result_fields.h"
#include "disk/layout.h"

namespace emsim::core {
namespace {

using ConfigPoint = std::tuple<int, int, int, Strategy, SyncMode, AdmissionPolicy>;

class MergeInvariants : public ::testing::TestWithParam<ConfigPoint> {
 protected:
  MergeConfig Config() const {
    auto [k, d, n, strategy, sync, admission] = GetParam();
    MergeConfig cfg = MergeConfig::Paper(k, d, n, strategy, sync);
    cfg.blocks_per_run = 60;  // Small enough to sweep broadly.
    cfg.admission = admission;
    cfg.check_invariants = true;
    cfg.seed = 1234;
    return cfg;
  }
};

TEST_P(MergeInvariants, CompletesWithConservedBlocks) {
  MergeConfig cfg = Config();
  auto result = SimulateMerge(cfg);
  ASSERT_TRUE(result.ok()) << result.status().ToString();
  int64_t total = cfg.TotalBlocks();
  EXPECT_EQ(result->blocks_merged, total);
  EXPECT_EQ(result->cache_stats.consumptions, static_cast<uint64_t>(total));
  EXPECT_EQ(result->disk_totals.blocks_transferred, static_cast<uint64_t>(total));
}

TEST_P(MergeInvariants, TimeRespectsTransferLowerBound) {
  MergeConfig cfg = Config();
  auto result = SimulateMerge(cfg);
  ASSERT_TRUE(result.ok());
  double bound = cfg.disk_params.TransferMsPerBlock() *
                 static_cast<double>(cfg.TotalBlocks()) / cfg.num_disks;
  EXPECT_GE(result->total_ms, bound * 0.999);
}

TEST_P(MergeInvariants, StatisticsWithinRanges) {
  MergeConfig cfg = Config();
  auto result = SimulateMerge(cfg);
  ASSERT_TRUE(result.ok());
  EXPECT_GE(result->SuccessRatio(), 0.0);
  EXPECT_LE(result->SuccessRatio(), 1.0);
  EXPECT_GE(result->avg_concurrency, 0.99);
  EXPECT_LE(result->avg_concurrency, cfg.num_disks + 1e-9);
  EXPECT_GE(result->disk_active_fraction, 0.0);
  EXPECT_LE(result->disk_active_fraction, 1.0 + 1e-9);
  EXPECT_LE(result->cache_stats.peak_occupancy, cfg.EffectiveCacheBlocks());
  EXPECT_GE(result->mean_cache_occupancy, 0.0);
  EXPECT_LE(result->mean_cache_occupancy,
            static_cast<double>(cfg.EffectiveCacheBlocks()));
}

TEST_P(MergeInvariants, SyncNeverFasterThanUnsync) {
  MergeConfig cfg = Config();
  cfg.sync = SyncMode::kSynchronized;
  auto sync_result = SimulateMerge(cfg);
  cfg.sync = SyncMode::kUnsynchronized;
  auto unsync_result = SimulateMerge(cfg);
  ASSERT_TRUE(sync_result.ok());
  ASSERT_TRUE(unsync_result.ok());
  // Identical depletion RNG stream; overlap can only help. Allow slack for
  // different rotational draws along the divergent schedules.
  EXPECT_LE(unsync_result->total_ms, sync_result->total_ms * 1.03);
}

INSTANTIATE_TEST_SUITE_P(
    StrategyGrid, MergeInvariants,
    ::testing::Combine(::testing::Values(3, 10, 25),         // k
                       ::testing::Values(1, 2, 5),           // D
                       ::testing::Values(1, 4, 15),          // N
                       ::testing::Values(Strategy::kDemandRunOnly,
                                         Strategy::kAllDisksOneRun),
                       ::testing::Values(SyncMode::kSynchronized,
                                         SyncMode::kUnsynchronized),
                       ::testing::Values(AdmissionPolicy::kConservative,
                                         AdmissionPolicy::kGreedy)));

class DepthMonotonicity : public ::testing::TestWithParam<std::tuple<int, int>> {};

TEST_P(DepthMonotonicity, DeeperPrefetchNeverMuchSlower) {
  auto [k, d] = GetParam();
  double prev = 1e18;
  for (int n : {1, 2, 5, 10, 20}) {
    MergeConfig cfg =
        MergeConfig::Paper(k, d, n, Strategy::kDemandRunOnly, SyncMode::kUnsynchronized);
    cfg.blocks_per_run = 200;
    auto result = RunTrials(cfg, 2);
    double t = result.total_ms.Mean();
    EXPECT_LE(t, prev * 1.02) << "k=" << k << " D=" << d << " N=" << n;
    prev = t;
  }
}

INSTANTIATE_TEST_SUITE_P(Geometries, DepthMonotonicity,
                         ::testing::Combine(::testing::Values(10, 25),
                                            ::testing::Values(1, 5)));

class CacheMonotonicity : public ::testing::TestWithParam<int> {};

TEST_P(CacheMonotonicity, SuccessRatioNonDecreasingInCache) {
  int n = GetParam();
  double prev_success = -1.0;
  double prev_time = 1e18;
  for (int64_t c : {100, 300, 600, 1000, 1400}) {
    MergeConfig cfg = MergeConfig::Paper(25, 5, n, Strategy::kAllDisksOneRun,
                                         SyncMode::kUnsynchronized);
    cfg.blocks_per_run = 400;
    cfg.cache_blocks = c;
    auto result = RunTrials(cfg, 3);
    double success = result.MeanSuccessRatio();
    EXPECT_GE(success, prev_success - 0.03) << "N=" << n << " C=" << c;
    EXPECT_LE(result.total_ms.Mean(), prev_time * 1.05) << "N=" << n << " C=" << c;
    prev_success = success;
    prev_time = result.total_ms.Mean();
  }
  EXPECT_GT(prev_success, 0.9);  // Ample cache ends near success ratio 1.
}

INSTANTIATE_TEST_SUITE_P(Depths, CacheMonotonicity, ::testing::Values(1, 5, 10));

class AnalyticAgreement
    : public ::testing::TestWithParam<std::tuple<int, int, int>> {};

TEST_P(AnalyticAgreement, SimulationWithinTwoPercentOfFormula) {
  auto [k, d, n] = GetParam();
  // Synchronized demand-run-only is eq.4 (eq.1-3 are its special cases).
  MergeConfig cfg =
      MergeConfig::Paper(k, d, n, Strategy::kDemandRunOnly, SyncMode::kSynchronized);
  auto result = RunTrials(cfg, 3);
  analysis::ModelParams p = analysis::ModelParams::Paper(k, d);
  double expect = analysis::TotalMs(p, analysis::Eq4IntraRunMultiDiskSync(p, n));
  EXPECT_NEAR(result.total_ms.Mean(), expect, expect * 0.02)
      << "k=" << k << " D=" << d << " N=" << n;
}

INSTANTIATE_TEST_SUITE_P(PaperGrid, AnalyticAgreement,
                         ::testing::Combine(::testing::Values(25, 50),
                                            ::testing::Values(1, 5),
                                            ::testing::Values(1, 5, 10, 20)));

// Metamorphic relations of the model: two configurations that the model
// says are the same merge must give the same answer. Exact relations compare
// every field of one trial (DiffFields); distributional ones compare trial
// samples drawn across seeds.

/// Two-sample Kolmogorov-Smirnov statistic: the largest gap between the
/// empirical CDFs of `a` and `b`.
double KsStatistic(std::vector<double> a, std::vector<double> b) {
  std::sort(a.begin(), a.end());
  std::sort(b.begin(), b.end());
  size_t i = 0;
  size_t j = 0;
  double gap = 0.0;
  while (i < a.size() && j < b.size()) {
    double x = std::min(a[i], b[j]);
    while (i < a.size() && a[i] <= x) {
      ++i;
    }
    while (j < b.size() && b[j] <= x) {
      ++j;
    }
    gap = std::max(gap, std::fabs(static_cast<double>(i) / static_cast<double>(a.size()) -
                                  static_cast<double>(j) / static_cast<double>(b.size())));
  }
  return gap;
}

/// KS rejection threshold at significance 0.001 for two samples of m each
/// (c(alpha) = sqrt(-ln(alpha/2) / 2) = 1.95).
double KsCritical(size_t m) { return 1.95 * std::sqrt(2.0 / static_cast<double>(m)); }

std::vector<double> TotalMsSamples(const ExperimentResult& result) {
  std::vector<double> out;
  for (const MergeResult& trial : result.trials) {
    out.push_back(trial.total_ms);
  }
  return out;
}

std::vector<double> SuccessSamples(const ExperimentResult& result) {
  std::vector<double> out;
  for (const MergeResult& trial : result.trials) {
    out.push_back(trial.SuccessRatio());
  }
  return out;
}

// Relation 1: intra-run prefetching at N = 1 is no prefetching. After the
// initial one-block-per-run load, only the demand block is ever read, one
// request at a time: waiting for "the batch" (synchronized) and for the
// demand block (unsynchronized) are the same wait, and cache beyond one
// frame per run is never used.
using DepthOnePoint = std::tuple<int, DepletionKind, uint64_t>;  // D, depletion, seed

class NoPrefetchAtDepthOne : public ::testing::TestWithParam<DepthOnePoint> {
 protected:
  MergeConfig Config(SyncMode sync) const {
    auto [d, depletion, seed] = GetParam();
    MergeConfig cfg = MergeConfig::Paper(20, d, 1, Strategy::kDemandRunOnly, sync);
    cfg.blocks_per_run = 120;
    cfg.depletion = depletion;
    cfg.zipf_theta = 0.8;
    cfg.seed = seed;
    return cfg;
  }
};

TEST_P(NoPrefetchAtDepthOne, SynchronizedEqualsUnsynchronized) {
  auto sync = SimulateMerge(Config(SyncMode::kSynchronized));
  auto unsync = SimulateMerge(Config(SyncMode::kUnsynchronized));
  ASSERT_TRUE(sync.ok()) << sync.status().ToString();
  ASSERT_TRUE(unsync.ok()) << unsync.status().ToString();
  EXPECT_EQ(DiffFields(*sync, *unsync), std::vector<std::string>{});
  EXPECT_EQ(unsync->disk_totals.blocks_transferred, unsync->disk_totals.requests);
}

TEST_P(NoPrefetchAtDepthOne, CacheBeyondOneBlockPerRunIsUnused) {
  MergeConfig cfg = Config(SyncMode::kUnsynchronized);
  auto tight = SimulateMerge(cfg);
  cfg.cache_blocks = 10 * cfg.num_runs;
  auto roomy = SimulateMerge(cfg);
  ASSERT_TRUE(tight.ok()) << tight.status().ToString();
  ASSERT_TRUE(roomy.ok()) << roomy.status().ToString();
  EXPECT_EQ(DiffFields(*tight, *roomy), std::vector<std::string>{});
  EXPECT_LE(roomy->cache_stats.peak_occupancy, cfg.num_runs);
}

INSTANTIATE_TEST_SUITE_P(
    DisksAndDepletion, NoPrefetchAtDepthOne,
    ::testing::Values(DepthOnePoint{1, DepletionKind::kUniform, 301},
                      DepthOnePoint{2, DepletionKind::kUniform, 302},
                      DepthOnePoint{4, DepletionKind::kUniform, 303},
                      DepthOnePoint{5, DepletionKind::kUniform, 304},
                      DepthOnePoint{10, DepletionKind::kUniform, 305},
                      DepthOnePoint{1, DepletionKind::kZipf, 306},
                      DepthOnePoint{2, DepletionKind::kZipf, 307},
                      DepthOnePoint{4, DepletionKind::kZipf, 308},
                      DepthOnePoint{5, DepletionKind::kZipf, 309},
                      DepthOnePoint{10, DepletionKind::kZipf, 310}));

// Relation 2: under uniform depletion the runs are exchangeable, so which
// disk holds which run is a relabelling. Round-robin (run r on disk r mod D)
// and blocked (runs in contiguous groups) placement put k/D runs on every
// disk and differ only by a permutation of run ids; the time and success
// distributions over seeds must agree.
using RelabelPoint = std::tuple<Strategy, SyncMode, int>;  // strategy, sync, D

class DiskRelabelling : public ::testing::TestWithParam<RelabelPoint> {
 protected:
  static constexpr int kTrials = 30;

  ExperimentResult Run(disk::RunPlacement placement, DepletionKind depletion) const {
    auto [strategy, sync, d] = GetParam();
    MergeConfig cfg = MergeConfig::Paper(20, d, 4, strategy, sync);
    cfg.blocks_per_run = 120;
    // A cache between the intra-run need (k*N) and the inter-run one
    // (k*N + D*N) keeps the inter-run success ratio away from 0 and 1.
    cfg.cache_blocks = cfg.num_runs * cfg.prefetch_depth + d * cfg.prefetch_depth / 2;
    cfg.placement = placement;
    cfg.depletion = depletion;
    cfg.zipf_theta = 1.2;
    cfg.seed = 4000 + 100 * static_cast<uint64_t>(d) +
               10 * static_cast<uint64_t>(strategy) + static_cast<uint64_t>(sync);
    return RunTrials(cfg, kTrials);
  }
};

TEST_P(DiskRelabelling, TimeDistributionUnchanged) {
  ExperimentResult round_robin = Run(disk::RunPlacement::kRoundRobin, DepletionKind::kUniform);
  ExperimentResult blocked = Run(disk::RunPlacement::kBlocked, DepletionKind::kUniform);
  EXPECT_LE(KsStatistic(TotalMsSamples(round_robin), TotalMsSamples(blocked)),
            KsCritical(kTrials));
}

INSTANTIATE_TEST_SUITE_P(
    StrategySyncDisks, DiskRelabelling,
    ::testing::Combine(::testing::Values(Strategy::kDemandRunOnly, Strategy::kAllDisksOneRun),
                       ::testing::Values(SyncMode::kSynchronized, SyncMode::kUnsynchronized),
                       ::testing::Values(2, 4, 5)));

// Intra-run fetches always fit the k*N cache, so only inter-run prefetching
// has a success ratio that can move.
class InterRunDiskRelabelling : public DiskRelabelling {};

TEST_P(InterRunDiskRelabelling, SuccessDistributionUnchanged) {
  ExperimentResult round_robin = Run(disk::RunPlacement::kRoundRobin, DepletionKind::kUniform);
  ExperimentResult blocked = Run(disk::RunPlacement::kBlocked, DepletionKind::kUniform);
  EXPECT_LE(KsStatistic(SuccessSamples(round_robin), SuccessSamples(blocked)),
            KsCritical(kTrials));
}

// The control: Zipf depletion ranks runs by id, so blocked placement piles
// the hot runs onto disk 0 while round-robin spreads them. Wherever requests
// on different disks overlap, the same comparison must then see two
// different distributions, or it could not see a broken relabelling either.
// (Synchronized intra-run prefetching has one request in flight at a time,
// so there the skewed placement costs no measurable time.)
class SkewedPlacementControl : public DiskRelabelling {};

TEST_P(SkewedPlacementControl, SkewedDepletionBreaksTheRelation) {
  ExperimentResult round_robin = Run(disk::RunPlacement::kRoundRobin, DepletionKind::kZipf);
  ExperimentResult blocked = Run(disk::RunPlacement::kBlocked, DepletionKind::kZipf);
  EXPECT_GT(KsStatistic(TotalMsSamples(round_robin), TotalMsSamples(blocked)),
            KsCritical(kTrials));
}

INSTANTIATE_TEST_SUITE_P(
    StrategyDisks, SkewedPlacementControl,
    ::testing::Combine(::testing::Values(Strategy::kDemandRunOnly, Strategy::kAllDisksOneRun),
                       ::testing::Values(SyncMode::kUnsynchronized),
                       ::testing::Values(2, 4, 5)));

INSTANTIATE_TEST_SUITE_P(
    SyncDisks, InterRunDiskRelabelling,
    ::testing::Combine(::testing::Values(Strategy::kAllDisksOneRun),
                       ::testing::Values(SyncMode::kSynchronized, SyncMode::kUnsynchronized),
                       ::testing::Values(2, 4, 5)));

// Relation 3: with one disk there is no other disk to prefetch from, so
// inter-run prefetching issues exactly the intra-run fetches. Given the same
// cache, the two strategies are the same merge.
using OneDiskPoint = std::tuple<int, SyncMode, AdmissionPolicy>;  // N, sync, admission

class InterEqualsIntraOnOneDisk : public ::testing::TestWithParam<OneDiskPoint> {
 protected:
  MergeConfig Config(Strategy strategy) const {
    auto [n, sync, admission] = GetParam();
    MergeConfig cfg = MergeConfig::Paper(15, 1, n, strategy, sync);
    cfg.blocks_per_run = 120;
    cfg.admission = admission;
    cfg.cpu_ms_per_block = 1.0;
    cfg.seed = 700 + 10 * static_cast<uint64_t>(n) + 2 * static_cast<uint64_t>(sync) +
               static_cast<uint64_t>(admission);
    return cfg;
  }

  void ExpectSameMerge(int64_t cache_blocks) const {
    MergeConfig intra = Config(Strategy::kDemandRunOnly);
    MergeConfig inter = Config(Strategy::kAllDisksOneRun);
    intra.cache_blocks = cache_blocks;
    inter.cache_blocks = cache_blocks;
    auto intra_result = SimulateMerge(intra);
    auto inter_result = SimulateMerge(inter);
    ASSERT_TRUE(intra_result.ok()) << intra_result.status().ToString();
    ASSERT_TRUE(inter_result.ok()) << inter_result.status().ToString();
    EXPECT_EQ(DiffFields(*intra_result, *inter_result), std::vector<std::string>{});
  }
};

TEST_P(InterEqualsIntraOnOneDisk, SameMergeAtIntraRunCache) {
  MergeConfig cfg = Config(Strategy::kDemandRunOnly);
  ExpectSameMerge(cfg.EffectiveCacheBlocks());
}

TEST_P(InterEqualsIntraOnOneDisk, SameMergeAtStarvedCache) {
  // Room for one block per run plus one N-block fetch: most wish lists are
  // cut short, so admission decides what is read.
  MergeConfig cfg = Config(Strategy::kDemandRunOnly);
  ExpectSameMerge(cfg.num_runs + cfg.prefetch_depth);
}

INSTANTIATE_TEST_SUITE_P(
    DepthSyncAdmission, InterEqualsIntraOnOneDisk,
    ::testing::Combine(::testing::Values(1, 4, 10),
                       ::testing::Values(SyncMode::kSynchronized, SyncMode::kUnsynchronized),
                       ::testing::Values(AdmissionPolicy::kConservative,
                                         AdmissionPolicy::kGreedy)));

}  // namespace
}  // namespace emsim::core

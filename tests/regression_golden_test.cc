// Golden regression values: the simulator is deterministic per seed, so key
// headline numbers are pinned here (loose 0.5% tolerance absorbs FP-order
// differences across compilers). If one of these moves, either a model
// change was intended — update the constant and EXPERIMENTS.md — or a
// regression slipped in.

#include <cstdint>

#include <gtest/gtest.h>

#include "core/config.h"
#include "core/merge_simulator.h"
#include "core/result.h"
#include "core/result_json.h"
#include "disk/disk_params.h"
#include "disk/layout.h"
#include "stats/json_writer.h"
#include "sweep/shard.h"
#include "util/status.h"

namespace emsim::core {
namespace {

double RunSeconds(MergeConfig cfg) {
  cfg.seed = 1;
  auto result = SimulateMerge(cfg);
  EXPECT_TRUE(result.ok());
  return result->total_ms / 1e3;
}

TEST(GoldenTest, PaperHeadlineNumbers) {
  EXPECT_NEAR(RunSeconds(MergeConfig::Paper(25, 1, 1, Strategy::kDemandRunOnly,
                                            SyncMode::kUnsynchronized)),
              292.62, 292.62 * 0.005);
  EXPECT_NEAR(RunSeconds(MergeConfig::Paper(25, 1, 10, Strategy::kDemandRunOnly,
                                            SyncMode::kUnsynchronized)),
              87.05, 87.05 * 0.005);
  EXPECT_NEAR(RunSeconds(MergeConfig::Paper(25, 5, 10, Strategy::kDemandRunOnly,
                                            SyncMode::kSynchronized)),
              84.83, 84.83 * 0.005);
  EXPECT_NEAR(RunSeconds(MergeConfig::Paper(25, 5, 10, Strategy::kAllDisksOneRun,
                                            SyncMode::kSynchronized)),
              19.86, 19.86 * 0.005);
  EXPECT_NEAR(RunSeconds(MergeConfig::Paper(25, 5, 10, Strategy::kAllDisksOneRun,
                                            SyncMode::kUnsynchronized)),
              17.63, 17.63 * 0.005);
}

TEST(GoldenTest, StallAccountingConsistent) {
  // With an infinitely fast CPU, total time = preload + the summed stalls.
  MergeConfig cfg = MergeConfig::Paper(25, 5, 10, Strategy::kAllDisksOneRun,
                                       SyncMode::kUnsynchronized);
  auto result = SimulateMerge(cfg);
  ASSERT_TRUE(result.ok());
  double stalled = result->stall_ms.sum();
  EXPECT_GT(result->stall_ms.count(), 0u);
  EXPECT_LE(stalled, result->total_ms);
  EXPECT_GT(stalled, result->total_ms * 0.8);  // Preload is the small rest.
  EXPECT_GT(result->stall_ms.Max(), result->stall_ms.Mean());
}

TEST(GoldenTest, StallDistributionsDifferByStrategy) {
  MergeConfig demand = MergeConfig::Paper(25, 5, 10, Strategy::kDemandRunOnly,
                                          SyncMode::kUnsynchronized);
  MergeConfig ador = MergeConfig::Paper(25, 5, 10, Strategy::kAllDisksOneRun,
                                        SyncMode::kUnsynchronized);
  auto d = SimulateMerge(demand);
  auto a = SimulateMerge(ador);
  ASSERT_TRUE(d.ok());
  ASSERT_TRUE(a.ok());
  // Inter-run prefetching converts many stalls into cache hits and shortens
  // the ones that remain on average.
  EXPECT_LT(a->stall_ms.Mean() * static_cast<double>(a->stall_ms.count()),
            d->stall_ms.Mean() * static_cast<double>(d->stall_ms.count()));
}

MergeConfig WaitPathBase(Strategy strategy, SyncMode sync) {
  MergeConfig cfg = MergeConfig::Paper(10, 5, 4, strategy, sync);
  cfg.blocks_per_run = 100;
  return cfg;
}

struct WaitPathPin {
  uint64_t digest;  ///< FNV-1a of the trial's result JSON.
  uint64_t sim_events;
  uint64_t demand_stalls;
  uint64_t cache_hits;
};

MergeResult ExpectPinned(const char* label, const MergeConfig& cfg, const WaitPathPin& pin) {
  Result<MergeResult> result = SimulateMerge(cfg);
  EXPECT_TRUE(result.ok()) << label << ": " << result.status().ToString();
  if (!result.ok()) {
    return MergeResult();
  }
  stats::JsonWriter w;
  WriteJson(w, *result);
  EXPECT_EQ(sweep::Fnv1aDigest(w.Take()), pin.digest) << label;
  EXPECT_EQ(result->sim_events, pin.sim_events) << label;
  EXPECT_EQ(result->demand_stalls, pin.demand_stalls) << label;
  EXPECT_EQ(result->cache_hits, pin.cache_hits) << label;
  return *result;
}

// One test per way the merge can wait: on a leading block already in
// flight, on a whole synchronized batch, on multi-disk spans, on write-behind
// backpressure and on retried spans, plus the abort of an unreadable run.
// The result bytes and the calendar event count catch any change to when a
// wait starts, ends or is counted; the fig-3.2 and sweep goldens carry no
// write traffic, striped placement or abort. The cases that collect metrics
// also pin the kernel's instruments (sim.resumes, sim.ticks, ...) through the
// digest.
TEST(MergeWaitPathTest, UnsyncInterRun) {
  MergeConfig cfg = WaitPathBase(Strategy::kAllDisksOneRun, SyncMode::kUnsynchronized);
  cfg.collect_metrics = true;
  ExpectPinned("unsync inter-run", cfg, {362610315134361116ULL, 1517, 153, 1000});
}

// Striped demand-run misses mostly at the top of the loop: 989 of 1000
// leading blocks are hits, the rest wait for a block already in flight.
TEST(MergeWaitPathTest, StripedDemandRunUnsync) {
  MergeConfig cfg = WaitPathBase(Strategy::kDemandRunOnly, SyncMode::kUnsynchronized);
  cfg.placement = disk::RunPlacement::kStriped;
  ExpectPinned("striped demand-run unsync", cfg, {8443309138116355236ULL, 3349, 275, 989});
}

TEST(MergeWaitPathTest, SyncInterRun) {
  MergeConfig cfg = WaitPathBase(Strategy::kAllDisksOneRun, SyncMode::kSynchronized);
  cfg.collect_metrics = true;
  ExpectPinned("sync inter-run", cfg, {1157408087842161805ULL, 1550, 48, 1000});
}

TEST(MergeWaitPathTest, StripedDemandRunSync) {
  MergeConfig cfg = WaitPathBase(Strategy::kDemandRunOnly, SyncMode::kSynchronized);
  cfg.placement = disk::RunPlacement::kStriped;
  ExpectPinned("striped demand-run sync", cfg, {7898484124662992749ULL, 3211, 240, 1000});
}

TEST(MergeWaitPathTest, GreedyTightCacheSharedWrites) {
  MergeConfig cfg = WaitPathBase(Strategy::kAllDisksOneRun, SyncMode::kUnsynchronized);
  cfg.admission = AdmissionPolicy::kGreedy;
  cfg.cache_blocks = 30;
  cfg.write_traffic = WriteTraffic::kSharedDisks;
  cfg.write_batch_blocks = 5;
  cfg.write_buffer_blocks = 15;
  cfg.collect_metrics = true;
  const MergeResult written = ExpectPinned("greedy tight cache, shared writes", cfg,
                                           {2627080450546092479ULL, 3308, 339, 1000});
  EXPECT_GT(written.write_stalls, 0u);
}

TEST(MergeWaitPathTest, SeparateWriteDisksSync) {
  MergeConfig cfg = WaitPathBase(Strategy::kAllDisksOneRun, SyncMode::kSynchronized);
  cfg.write_traffic = WriteTraffic::kSeparateDisks;
  cfg.num_write_disks = 2;
  ExpectPinned("separate write disks, sync", cfg, {6906611962187544657ULL, 2702, 48, 1000});
}

TEST(MergeWaitPathTest, MediaErrorsAndTimeouts) {
  MergeConfig cfg = WaitPathBase(Strategy::kAllDisksOneRun, SyncMode::kUnsynchronized);
  cfg.fault.media_error_rate = 0.05;
  cfg.fault.latency_spike_rate = 0.1;
  cfg.fault.latency_spike_ms = 80.0;
  cfg.fault.retry.timeout_ms = 60.0;
  const MergeResult recovered = ExpectPinned("media errors and timeouts", cfg,
                                             {3284913007761581078ULL, 2148, 173, 999});
  EXPECT_GT(recovered.fault.timeouts, 0u);
  EXPECT_GT(recovered.fault.media_errors, 0u);
}

// The paths where a block delivery can tie with, or overtake, another event:
// fixed-mean rotation (equal service times, so cross-disk completions land on
// the same tick), SSTF (requests served out of arrival order), angular
// rotation with sequential reads (zero positioning: the first block follows
// service start directly), a CPU-bound merge (its own per-block delay races
// the disks' block deliveries) and a fail-slow disk (a transfer time unequal
// to the other disks').
TEST(MergeWaitPathTest, FixedMeanRotationTies) {
  MergeConfig cfg = WaitPathBase(Strategy::kAllDisksOneRun, SyncMode::kUnsynchronized);
  cfg.disk_params.rotation = disk::RotationalLatencyModel::kFixedMean;
  ExpectPinned("fixed-mean rotation", cfg, {5830436015801851883ULL, 1472, 146, 1000});
}

TEST(MergeWaitPathTest, SstfServesOutOfOrder) {
  MergeConfig cfg = WaitPathBase(Strategy::kDemandRunOnly, SyncMode::kUnsynchronized);
  cfg.placement = disk::RunPlacement::kStriped;
  cfg.disk_params.scheduling = disk::SchedulingPolicy::kSstf;
  ExpectPinned("sstf striped demand-run", cfg, {1010135571912664982ULL, 3338, 276, 988});
}

TEST(MergeWaitPathTest, AngularSequentialReads) {
  MergeConfig cfg = WaitPathBase(Strategy::kAllDisksOneRun, SyncMode::kUnsynchronized);
  cfg.disk_params.rotation = disk::RotationalLatencyModel::kAngular;
  cfg.disk_params.sequential_optimization = true;
  ExpectPinned("angular sequential", cfg, {11069933549240288345ULL, 1372, 136, 1000});
}

TEST(MergeWaitPathTest, CpuBoundMerge) {
  MergeConfig cfg = WaitPathBase(Strategy::kAllDisksOneRun, SyncMode::kUnsynchronized);
  cfg.cpu_ms_per_block = 2.0;
  ExpectPinned("cpu-bound merge", cfg, {4569412962282335640ULL, 2533, 52, 1000});
}

TEST(MergeWaitPathTest, FailSlowDisk) {
  MergeConfig cfg = WaitPathBase(Strategy::kAllDisksOneRun, SyncMode::kUnsynchronized);
  cfg.fault.fail_slow_disk = 2;
  cfg.fault.fail_slow_factor = 3.0;
  ExpectPinned("fail-slow disk", cfg, {8601541347599099966ULL, 1835, 168, 1000});
}

// A disk that stops at t=0 aborts the trial while it waits out the preload.
TEST(MergeWaitPathTest, FailStopAbortsThePreload) {
  MergeConfig cfg = WaitPathBase(Strategy::kAllDisksOneRun, SyncMode::kUnsynchronized);
  cfg.fault.fail_stop_disk = 1;
  cfg.fault.retry.timeout_ms = 50.0;
  cfg.fault.retry.max_retries = 2;
  Result<MergeResult> aborted = SimulateMerge(cfg);
  ASSERT_FALSE(aborted.ok());
  EXPECT_EQ(aborted.status().ToString(),
            "IoError: run unreadable: disk 1 span at block 0 (4 blocks) failed after 2 retries");
}

// The same disk stopping for good mid-merge aborts the trial from the wait
// in progress: a synchronized merge is waiting out a batch, an
// unsynchronized one a leading block, and a merge with write-behind may be
// parked on the write buffer. Each must surface the unreadable span and end.
MergeConfig StopsMidMerge(Strategy strategy, SyncMode sync) {
  MergeConfig cfg = WaitPathBase(strategy, sync);
  cfg.fault.fail_stop_disk = 1;
  cfg.fault.fail_stop_start_ms = 1000.0;
  cfg.fault.retry.timeout_ms = 50.0;
  cfg.fault.retry.max_retries = 2;
  return cfg;
}

TEST(MergeWaitPathTest, FailStopAbortsASynchronizedBatchWait) {
  Result<MergeResult> aborted =
      SimulateMerge(StopsMidMerge(Strategy::kAllDisksOneRun, SyncMode::kSynchronized));
  ASSERT_FALSE(aborted.ok());
  EXPECT_EQ(aborted.status().ToString(),
            "IoError: run unreadable: disk 1 span at block 88 (4 blocks) failed after 2 retries");
}

TEST(MergeWaitPathTest, FailStopAbortsALeadingBlockWait) {
  Result<MergeResult> aborted =
      SimulateMerge(StopsMidMerge(Strategy::kAllDisksOneRun, SyncMode::kUnsynchronized));
  ASSERT_FALSE(aborted.ok());
  EXPECT_EQ(aborted.status().ToString(),
            "IoError: run unreadable: disk 1 span at block 196 (4 blocks) failed after 2 retries");
}

TEST(MergeWaitPathTest, FailStopAbortsAStripedDemandWait) {
  MergeConfig cfg = StopsMidMerge(Strategy::kDemandRunOnly, SyncMode::kSynchronized);
  cfg.placement = disk::RunPlacement::kStriped;
  Result<MergeResult> aborted = SimulateMerge(cfg);
  ASSERT_FALSE(aborted.ok());
  EXPECT_EQ(aborted.status().ToString(),
            "IoError: run unreadable: disk 1 span at block 107 (1 blocks) failed after 2 retries");
}

TEST(MergeWaitPathTest, FailStopAbortsWithWritesOutstanding) {
  MergeConfig cfg = StopsMidMerge(Strategy::kAllDisksOneRun, SyncMode::kUnsynchronized);
  cfg.cache_blocks = 30;
  cfg.write_traffic = WriteTraffic::kSharedDisks;
  cfg.write_batch_blocks = 5;
  cfg.write_buffer_blocks = 15;
  Result<MergeResult> aborted = SimulateMerge(cfg);
  ASSERT_FALSE(aborted.ok());
  EXPECT_EQ(aborted.status().ToString(),
            "IoError: run unreadable: disk 1 span at block 114 (1 blocks) failed after 2 retries");
}

}  // namespace
}  // namespace emsim::core

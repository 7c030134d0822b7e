// Pins the merge engine's heap use. The marginal tests pin the fetch path as
// allocation-free: a longer merge does more fetches, so any per-fetch or
// per-block heap allocation shows up as a difference between two trial
// lengths, while per-trial setup allocations appear in both and drop out.
// The whole-trial tests pin that setup too: the engine, the disks, the cache
// frames and the run layout take a few dozen allocations, however long the
// trial.
//
// Heap allocations are counted by replacing the global operator new in this
// binary. Sanitizer builds install their own allocator, so tests/CMakeLists.txt
// leaves this suite out of them.

#include <atomic>
#include <cstdint>
#include <cstdlib>
#include <new>

#include <gtest/gtest.h>

#include "core/config.h"
#include "core/merge_simulator.h"
#include "core/result.h"
#include "disk/layout.h"
#include "util/status.h"

namespace emsim::core {
namespace {

std::atomic<uint64_t> g_heap_allocs{0};

/// Heap allocations made by one trial of `config` at `blocks_per_run`.
uint64_t TrialAllocs(MergeConfig config, int64_t blocks_per_run) {
  config.blocks_per_run = blocks_per_run;
  const uint64_t before = g_heap_allocs.load(std::memory_order_relaxed);
  Result<MergeResult> result = SimulateMerge(config);
  const uint64_t after = g_heap_allocs.load(std::memory_order_relaxed);
  EXPECT_TRUE(result.ok()) << result.status().ToString();
  if (result.ok()) {
    EXPECT_EQ(result->blocks_merged,
              static_cast<uint64_t>(config.num_runs) * static_cast<uint64_t>(blocks_per_run));
  }
  return after - before;
}

/// Allocations per extra merged block between a short and a long trial.
double MarginalAllocsPerBlock(const MergeConfig& config) {
  constexpr int64_t kShort = 200;
  constexpr int64_t kLong = 1000;
  const uint64_t short_allocs = TrialAllocs(config, kShort);
  const uint64_t long_allocs = TrialAllocs(config, kLong);
  const double extra_blocks = static_cast<double>(config.num_runs) * (kLong - kShort);
  return (static_cast<double>(long_allocs) - static_cast<double>(short_allocs)) / extra_blocks;
}

// The cache's frames are allocated up front, so a longer trial adds only
// ~0.001 allocations per block (fetch buffers growing to a slightly higher
// peak). A per-run std::deque, which takes a chunk every 64 blocks,
// measured ~0.015.
constexpr double kMaxAllocsPerBlock = 0.005;

// Whole-trial pins, each a little above the count measured when the cache's
// frames became one up-front allocation (42 and 49; the per-run growing
// buffers, per-run signals and a second layout build took 210 and 507).
TEST(MergeAllocTest, WholeTrialFetchHeavy) {
  // perfbench's fetch-heavy geometry: k=25, D=5, N=1, 1000 blocks per run.
  MergeConfig config =
      MergeConfig::Paper(25, 5, 1, Strategy::kAllDisksOneRun, SyncMode::kUnsynchronized);
  EXPECT_LE(TrialAllocs(config, 1000), 48u);
}

TEST(MergeAllocTest, WholeTrialDeepPrefetch) {
  // perfbench's deep-prefetch geometry: k=50, D=10, N=30, 1000 blocks per run.
  MergeConfig config =
      MergeConfig::Paper(50, 10, 30, Strategy::kAllDisksOneRun, SyncMode::kUnsynchronized);
  EXPECT_LE(TrialAllocs(config, 1000), 56u);
}

TEST(MergeAllocTest, FetchHeavyInterRun) {
  // k=25, D=5, N=1 inter-run unsynchronized: a D-way fetch every few blocks.
  MergeConfig config =
      MergeConfig::Paper(25, 5, 1, Strategy::kAllDisksOneRun, SyncMode::kUnsynchronized);
  EXPECT_LT(MarginalAllocsPerBlock(config), kMaxAllocsPerBlock);
}

TEST(MergeAllocTest, GreedyAdmissionUnderTightCache) {
  // The cache holds far less than a full D*N fan-out, so most fetches are
  // trimmed by greedy admission (with its random permutation).
  MergeConfig config =
      MergeConfig::Paper(25, 5, 8, Strategy::kAllDisksOneRun, SyncMode::kUnsynchronized);
  config.admission = AdmissionPolicy::kGreedy;
  config.cache_blocks = 60;
  EXPECT_LT(MarginalAllocsPerBlock(config), kMaxAllocsPerBlock);
}

TEST(MergeAllocTest, Synchronized) {
  // The merge waits for every fetch to complete before it continues.
  MergeConfig config =
      MergeConfig::Paper(25, 5, 2, Strategy::kAllDisksOneRun, SyncMode::kSynchronized);
  EXPECT_LT(MarginalAllocsPerBlock(config), kMaxAllocsPerBlock);
}

TEST(MergeAllocTest, StripedDemandRunOnly) {
  // One logical read splits into several per-disk spans.
  MergeConfig config =
      MergeConfig::Paper(25, 5, 5, Strategy::kDemandRunOnly, SyncMode::kUnsynchronized);
  config.placement = disk::RunPlacement::kStriped;
  EXPECT_LT(MarginalAllocsPerBlock(config), kMaxAllocsPerBlock);
}

TEST(MergeAllocTest, SharedWriteTraffic) {
  // Write-behind requests queue beside the reads on the input disks.
  MergeConfig config =
      MergeConfig::Paper(25, 5, 4, Strategy::kAllDisksOneRun, SyncMode::kUnsynchronized);
  config.write_traffic = WriteTraffic::kSharedDisks;
  EXPECT_LT(MarginalAllocsPerBlock(config), kMaxAllocsPerBlock);
}

TEST(MergeAllocTest, RetriedFetchesUnderMediaErrors) {
  // Every fetch goes through the retry driver; injected media errors and
  // latency spikes exercise its resubmission path, which recycles job and
  // attempt slots. Timeouts are off, so this pins the driver and the
  // backoff resubmits alone; WatchdogArmedUnderMediaErrors adds the
  // watchdogs.
  MergeConfig config =
      MergeConfig::Paper(25, 5, 2, Strategy::kAllDisksOneRun, SyncMode::kUnsynchronized);
  config.fault.media_error_rate = 0.01;
  config.fault.latency_spike_rate = 0.02;
  config.fault.latency_spike_ms = 10;
  config.fault.retry.timeout_ms = 0;
  EXPECT_LT(MarginalAllocsPerBlock(config), kMaxAllocsPerBlock);
}

TEST(MergeAllocTest, WatchdogArmedUnderMediaErrors) {
  // As above with the default 2 s timeout: every attempt also arms a
  // watchdog, and about a hundred of them are pending at once. They sit on
  // the kernel's calendar heap, which grows to the peak pending count and
  // then recycles, so a longer trial adds no allocation per watchdog.
  MergeConfig config =
      MergeConfig::Paper(25, 5, 2, Strategy::kAllDisksOneRun, SyncMode::kUnsynchronized);
  config.fault.media_error_rate = 0.01;
  config.fault.latency_spike_rate = 0.02;
  config.fault.latency_spike_ms = 10;
  ASSERT_GT(config.fault.retry.timeout_ms, 0.0);
  EXPECT_LT(MarginalAllocsPerBlock(config), kMaxAllocsPerBlock);
}

}  // namespace
}  // namespace emsim::core

// Counting replacements for the global allocation functions (the standard's
// [replacement.functions] hook), as in bench/bench_kernel_micro.cc.
#pragma GCC diagnostic ignored "-Wmismatched-new-delete"
void* operator new(std::size_t size) {
  emsim::core::g_heap_allocs.fetch_add(1, std::memory_order_relaxed);
  if (void* p = std::malloc(size)) {
    return p;
  }
  throw std::bad_alloc();
}

void* operator new(std::size_t size, const std::nothrow_t&) noexcept {
  emsim::core::g_heap_allocs.fetch_add(1, std::memory_order_relaxed);
  return std::malloc(size);
}

void operator delete(void* p) noexcept { std::free(p); }
void operator delete(void* p, std::size_t) noexcept { std::free(p); }
void operator delete(void* p, const std::nothrow_t&) noexcept { std::free(p); }

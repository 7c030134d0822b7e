// Google-benchmark microbenchmarks of the simulation substrate: event
// calendar throughput, coroutine process switching, disk service pricing and
// full merge-trial cost. These calibrate how much simulated work one wall
// second buys (the figure benches run hundreds of trials). The last two
// price a sweep's artifact path: the shard codec and the JSON export.

#include <benchmark/benchmark.h>

#include <atomic>
#include <cstdint>
#include <cstdlib>
#include <new>
#include <string>
#include <utility>
#include <vector>

#include "core/config.h"
#include "core/experiment.h"
#include "core/merge_simulator.h"
#include "core/result.h"
#include "core/result_json.h"
#include "disk/disk_params.h"
#include "disk/mechanism.h"
#include "obs/metrics.h"
#include "sim/frame_pool.h"
#include "sim/process.h"
#include "sim/simulation.h"
#include "sweep/shard.h"
#include "util/rng.h"

namespace emsim {
namespace {

// Counts every global heap allocation (see the replaced operator new below).
// The kernel benches report allocs_per_op so a regression that silently
// reintroduces per-event or per-frame heap traffic shows up in the numbers,
// not just in wall time.
std::atomic<uint64_t> g_heap_allocs{0};

uint64_t HeapAllocs() { return g_heap_allocs.load(std::memory_order_relaxed); }

/// Attaches the standard kernel counters to `state` after the timed loop:
/// events per wall second, simulation events per benchmark op, and global
/// heap allocations per op.
void SetKernelCounters(benchmark::State& state, uint64_t events,
                       uint64_t heap_allocs_before) {
  auto ops = static_cast<double>(state.iterations());
  state.counters["events_per_second"] =
      benchmark::Counter(static_cast<double>(events), benchmark::Counter::kIsRate);
  state.counters["events_per_op"] = static_cast<double>(events) / ops;
  state.counters["allocs_per_op"] =
      static_cast<double>(HeapAllocs() - heap_allocs_before) / ops;
}

// Fill-then-drain: 1000 events pushed from cold, so the heap pays its growth
// and a deep drain inside every op.
void BM_CalendarScheduleExecute(benchmark::State& state) {
  uint64_t events = 0;
  uint64_t allocs0 = HeapAllocs();
  for (auto _ : state) {
    sim::Simulation sim;
    int64_t counter = 0;
    for (int i = 0; i < 1000; ++i) {
      sim.ScheduleCallback(static_cast<double>(i % 97), [&counter] { ++counter; });
    }
    sim.Run();
    benchmark::DoNotOptimize(counter);
    events += sim.events_processed();
  }
  state.SetItemsProcessed(state.iterations() * 1000);
  SetKernelCounters(state, events, allocs0);
}
BENCHMARK(BM_CalendarScheduleExecute);

// Self-rescheduling callback for the hold model below: each invocation pops
// as the minimum and pushes one replacement at now + U[0.5, 2.5), keeping the
// population constant. The whole struct (16 bytes, trivially copyable) rides
// inline in a recycled callback cell, so steady state allocates nothing; the
// xorshift stream lives in the struct and travels with each copy.
struct HoldHopper {
  sim::Simulation* sim;
  uint64_t rng_state;

  void operator()() {
    uint64_t x = rng_state;
    x ^= x << 13;
    x ^= x >> 7;
    x ^= x << 17;
    rng_state = x;
    double delta = 0.5 + static_cast<double>(x >> 44) * (1.0 / 524288.0);
    sim->ScheduleCallback(sim->Now() + delta, *this);
  }
};

// Classic hold model (the standard event-calendar benchmark): fixed
// population n, each op replaces the minimum, an O(log n) sift on the
// kernel's heap. Fault-free merge trials pop with at most ~10 calendar
// entries pending, and a fault trial's retry watchdogs hold ~125-250
// (docs/PERFORMANCE.md); larger n prices depths no paper geometry reaches.
// The heap and the callback pool are warmed before the counter snapshot, so
// allocs_per_op gates at zero.
void BM_CalendarHold(benchmark::State& state) {
  const int n = static_cast<int>(state.range(0));
  sim::Simulation sim;
  for (int i = 0; i < n; ++i) {
    HoldHopper hopper{&sim, 0x9E3779B97F4A7C15ull * static_cast<uint64_t>(i + 1)};
    sim.ScheduleCallback(static_cast<double>(i) / static_cast<double>(n), hopper);
  }
  // Warm-up: settle the heap's and the callback pool's capacity before
  // counters are snapshotted.
  sim.RunBounded(static_cast<uint64_t>(8 * n) + 10000);
  uint64_t allocs0 = HeapAllocs();
  uint64_t events0 = sim.events_processed();
  for (auto _ : state) {
    sim.RunBounded(1000);
  }
  state.SetItemsProcessed(state.iterations() * 1000);
  SetKernelCounters(state, sim.events_processed() - events0, allocs0);
}
BENCHMARK(BM_CalendarHold)->Arg(16)->Arg(64)->Arg(256)->Arg(1024)->Arg(4096);

sim::Process Hopper(sim::Simulation& /*sim*/, int hops) {
  for (int i = 0; i < hops; ++i) {
    co_await sim::Delay(1.0);
  }
}

void BM_CoroutineContextSwitch(benchmark::State& state) {
  uint64_t events = 0;
  uint64_t allocs0 = HeapAllocs();
  for (auto _ : state) {
    sim::Simulation sim;
    sim.Spawn(Hopper(sim, 1000));
    sim.Run();
    events += sim.events_processed();
  }
  state.SetItemsProcessed(state.iterations() * 1000);
  SetKernelCounters(state, events, allocs0);
}
BENCHMARK(BM_CoroutineContextSwitch);

sim::Process Nop(sim::Simulation& /*sim*/) { co_return; }

// Spawn/finish cost of a shortest-possible process: one frame-pool
// allocation, live-table insert, inline completion, frame free. The
// frame-pool counters confirm the frames recycle (pool_allocs grows,
// bytes_reserved does not).
void BM_ProcessSpawnFinish(benchmark::State& state) {
  uint64_t allocs0 = HeapAllocs();
  sim::FramePool::ResetThreadStats();
  uint64_t events = 0;
  for (auto _ : state) {
    sim::Simulation sim;
    for (int i = 0; i < 1000; ++i) {
      sim.Spawn(Nop(sim));
    }
    sim.Run();
    events += sim.events_processed();
  }
  state.SetItemsProcessed(state.iterations() * 1000);
  SetKernelCounters(state, events, allocs0);
  sim::FramePool::Stats fp = sim::FramePool::ThreadStats();
  state.counters["frame_pool_allocs_per_op"] =
      static_cast<double>(fp.pool_allocs) / static_cast<double>(state.iterations());
  state.counters["frame_pool_bytes_reserved"] = static_cast<double>(fp.bytes_reserved);
}
BENCHMARK(BM_ProcessSpawnFinish);

void BM_MechanismAccess(benchmark::State& state) {
  disk::Mechanism mech{disk::DiskParams::Paper()};
  Rng rng(1);
  int64_t block = 0;
  for (auto _ : state) {
    block = (block + 2048) % 60000;
    benchmark::DoNotOptimize(mech.Access(block, 10, rng));
  }
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_MechanismAccess);

/// One seed-1 trial per op, so events_per_op is that trial's exact event
/// count whatever the iteration count.
void RunFixedSeedTrials(benchmark::State& state, core::MergeConfig cfg) {
  cfg.seed = 1;
  uint64_t allocs0 = HeapAllocs();
  uint64_t events = 0;
  for (auto _ : state) {
    auto result = core::SimulateMerge(cfg);
    benchmark::DoNotOptimize(result->total_ms);
    events += result->sim_events;
  }
  state.SetItemsProcessed(state.iterations() * cfg.num_runs * cfg.blocks_per_run);
  SetKernelCounters(state, events, allocs0);
}

void BM_FullMergeTrial(benchmark::State& state) {
  RunFixedSeedTrials(state, core::MergeConfig::Paper(25, 5, static_cast<int>(state.range(0)),
                                                     core::Strategy::kAllDisksOneRun,
                                                     core::SyncMode::kUnsynchronized));
}
BENCHMARK(BM_FullMergeTrial)->Arg(1)->Arg(10);

// The perfbench deep-prefetch geometry: k=50, D=10, N=30, so nearly every
// event is a block delivery.
void BM_FullMergeTrialDeepPrefetch(benchmark::State& state) {
  RunFixedSeedTrials(state, core::MergeConfig::Paper(50, 10, 30, core::Strategy::kAllDisksOneRun,
                                                     core::SyncMode::kUnsynchronized));
}
BENCHMARK(BM_FullMergeTrialDeepPrefetch);

// The perfbench cache-bound-writes geometry: k=50, D=5, N=10, a 600-block
// cache under conservative admission, and write-behind to the input disks.
void BM_FullMergeTrialCacheBoundWrites(benchmark::State& state) {
  core::MergeConfig cfg = core::MergeConfig::Paper(50, 5, 10, core::Strategy::kAllDisksOneRun,
                                                   core::SyncMode::kUnsynchronized);
  cfg.cache_blocks = 600;
  cfg.admission = core::AdmissionPolicy::kConservative;
  cfg.write_traffic = core::WriteTraffic::kSharedDisks;
  RunFixedSeedTrials(state, cfg);
}
BENCHMARK(BM_FullMergeTrialCacheBoundWrites);

// The fault geometry: k=25, D=5, N=5 under injected media errors and latency
// spikes with the default 2 s timeout, so every attempt arms a watchdog on
// the calendar and about a hundred are pending at once.
void BM_FullMergeTrialMediaErrors(benchmark::State& state) {
  core::MergeConfig cfg = core::MergeConfig::Paper(25, 5, 5, core::Strategy::kAllDisksOneRun,
                                                   core::SyncMode::kUnsynchronized);
  cfg.fault.media_error_rate = 0.01;
  cfg.fault.latency_spike_rate = 0.02;
  cfg.fault.latency_spike_ms = 10;
  RunFixedSeedTrials(state, cfg);
}
BENCHMARK(BM_FullMergeTrialMediaErrors);

/// A fixed 80-task shard: one unit of 80 short k=10, D=5 inter-run trials,
/// run once and shared by the artifact-path benches.
struct CodecFixture {
  core::MergeConfig config;
  sweep::ShardArtifact artifact;
};

const CodecFixture& EightyTaskArtifact() {
  static const CodecFixture fixture = [] {
    CodecFixture f;
    f.config = core::MergeConfig::Paper(10, 5, 2, core::Strategy::kAllDisksOneRun,
                                        core::SyncMode::kUnsynchronized);
    f.config.blocks_per_run = 100;
    core::SweepGrid grid({core::SweepUnit{"codec", f.config, 80}});
    f.artifact = sweep::RunShard(grid, 0, 1, 1, {});
    return f;
  }();
  return fixture;
}

/// Heap allocations per op; the artifact-path benches run no simulation, so
/// they report no event counters.
void SetAllocCounter(benchmark::State& state, uint64_t heap_allocs_before) {
  state.counters["allocs_per_op"] = static_cast<double>(HeapAllocs() - heap_allocs_before) /
                                    static_cast<double>(state.iterations());
}

// Encode, seal, unseal and decode of the 80-task artifact: what one shard
// costs a sweep between its worker and the merge.
void BM_ShardCodecRoundTrip(benchmark::State& state) {
  const sweep::ShardArtifact& artifact = EightyTaskArtifact().artifact;
  int64_t sealed_bytes = 0;
  uint64_t allocs0 = HeapAllocs();
  for (auto _ : state) {
    std::string sealed = sweep::SealShardArtifact(sweep::EncodeShardArtifact(artifact));
    auto decoded = sweep::DecodeShardArtifact(*sweep::UnsealShardArtifact(sealed));
    benchmark::DoNotOptimize(decoded->tasks.size());
    sealed_bytes = static_cast<int64_t>(sealed.size());
  }
  state.SetItemsProcessed(state.iterations() * 80);  // Tasks per op.
  state.SetBytesProcessed(state.iterations() * sealed_bytes);
  SetAllocCounter(state, allocs0);
}
BENCHMARK(BM_ShardCodecRoundTrip);

// Seal and unseal of the encoded 80-task artifact alone: the integrity
// digest runs once each way, plus the payload copy Seal consumes.
void BM_SealUnseal(benchmark::State& state) {
  const std::string payload = sweep::EncodeShardArtifact(EightyTaskArtifact().artifact);
  uint64_t allocs0 = HeapAllocs();
  for (auto _ : state) {
    std::string sealed = sweep::SealShardArtifact(payload);
    auto unsealed = sweep::UnsealShardArtifact(sealed);
    benchmark::DoNotOptimize(unsealed->size());
  }
  state.SetBytesProcessed(state.iterations() * static_cast<int64_t>(payload.size()));
  SetAllocCounter(state, allocs0);
}
BENCHMARK(BM_SealUnseal);

// The --json export of the 80 trials' aggregate (per-trial results included).
void BM_ExportJson(benchmark::State& state) {
  const CodecFixture& fixture = EightyTaskArtifact();
  std::vector<core::MergeResult> trials;
  for (const sweep::ShardTask& task : fixture.artifact.tasks) {
    trials.push_back(task.result);
  }
  const core::ExperimentResult result = core::AggregateTrials(std::move(trials));
  const std::vector<core::NamedExperiment> named = {{"codec", fixture.config, &result}};
  int64_t json_bytes = 0;
  uint64_t allocs0 = HeapAllocs();
  for (auto _ : state) {
    std::string json = core::ExperimentSetToJson(named);
    benchmark::DoNotOptimize(json.data());
    json_bytes = static_cast<int64_t>(json.size());
  }
  state.SetItemsProcessed(state.iterations() * 80);  // Trials per op.
  state.SetBytesProcessed(state.iterations() * json_bytes);
  SetAllocCounter(state, allocs0);
}
BENCHMARK(BM_ExportJson);

}  // namespace
}  // namespace emsim

// Counting replacements for the global allocation functions. Replacing
// operator new/delete is the standard-sanctioned hook ([replacement.functions]);
// malloc keeps its libc definition, so the counter covers exactly the C++
// allocations the kernel could issue (std::function boxes, vector growth,
// coroutine frames that miss the pool). GCC flags free() on new-ed pointers
// when it inlines both sides, but pairing malloc with the replaced operator
// new is exactly the sanctioned layout.
#pragma GCC diagnostic ignored "-Wmismatched-new-delete"
void* operator new(std::size_t size) {
  emsim::g_heap_allocs.fetch_add(1, std::memory_order_relaxed);
  if (void* p = std::malloc(size)) {
    return p;
  }
  throw std::bad_alloc();
}

void* operator new(std::size_t size, const std::nothrow_t&) noexcept {
  emsim::g_heap_allocs.fetch_add(1, std::memory_order_relaxed);
  return std::malloc(size);
}

void operator delete(void* p) noexcept { std::free(p); }
void operator delete(void* p, std::size_t) noexcept { std::free(p); }
void operator delete(void* p, const std::nothrow_t&) noexcept { std::free(p); }

BENCHMARK_MAIN();

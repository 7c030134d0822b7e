// Google-benchmark microbenchmarks of the simulation substrate: event
// calendar throughput, coroutine process switching, disk service pricing and
// full merge-trial cost. These calibrate how much simulated work one wall
// second buys (the figure benches run hundreds of trials).

#include <benchmark/benchmark.h>

#include <atomic>
#include <cstdint>
#include <cstdlib>
#include <new>

#include "core/config.h"
#include "core/merge_simulator.h"
#include "disk/disk_params.h"
#include "disk/mechanism.h"
#include "extsort/loser_tree.h"
#include "obs/metrics.h"
#include "sim/event.h"
#include "sim/frame_pool.h"
#include "sim/process.h"
#include "sim/simulation.h"
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

// Fill-then-drain: 1000 events pushed from cold, so the calendar crosses the
// heap -> calendar-queue switch and the queue pays its growth resizes inside
// every op.
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
// population n, each op replaces the minimum. This is the steady-state
// shape of a running merge — a calendar of pending disk completions at
// roughly constant depth. Every n here is at or above the kernel's switch
// depth, so the hold runs on the calendar queue (amortized O(1) per hold).
// Pools and buckets are warmed before the counter snapshot, so allocs_per_op
// gates at zero.
void BM_CalendarHold(benchmark::State& state) {
  const int n = static_cast<int>(state.range(0));
  sim::Simulation sim;
  for (int i = 0; i < n; ++i) {
    HoldHopper hopper{&sim, 0x9E3779B97F4A7C15ull * static_cast<uint64_t>(i + 1)};
    sim.ScheduleCallback(static_cast<double>(i) / static_cast<double>(n), hopper);
  }
  // Warm-up: settle calendar-queue resizes, bucket capacities and the
  // callback pool before counters are snapshotted.
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

// A cohort member for the same-timestamp-burst bench: alternates between two
// latch events so the driver can rearm one while everyone waits on the other.
sim::Process BurstCohortWaiter(sim::Event& ping, sim::Event& pong) {
  for (;;) {
    co_await ping.Wait();
    co_await pong.Wait();
  }
}

// The high-prefetch-depth common case: D disk completions land on one tick
// and Event::Set releases the whole cohort through ScheduleHandleBurst — one
// calendar entry for D resumes instead of D pushes + D pops. Each op is one
// full burst cycle (Set, dispatch D waiters, rearm); events_per_op = D
// because a burst still counts one processed event per member. Ping-pong
// between two latches keeps every waiter list and the pooled burst cell at
// steady-state capacity, so allocs_per_op gates at zero here too.
void BM_CalendarSameTimeBurst(benchmark::State& state) {
  const int d = static_cast<int>(state.range(0));
  sim::Simulation sim;
  sim::Event ping(&sim);
  sim::Event pong(&sim);
  for (int i = 0; i < d; ++i) {
    sim.Spawn(BurstCohortWaiter(ping, pong));
  }
  sim.Run();  // Everyone parks on ping.
  sim::Event* phases[2] = {&ping, &pong};
  int cur = 0;
  for (int round = 0; round < 4; ++round) {  // Warm both waiter lists.
    phases[cur]->Set();
    sim.Run();
    phases[cur]->Reset();
    cur ^= 1;
  }
  uint64_t allocs0 = HeapAllocs();
  uint64_t events0 = sim.events_processed();
  for (auto _ : state) {
    phases[cur]->Set();
    sim.Run();
    phases[cur]->Reset();
    cur ^= 1;
  }
  state.SetItemsProcessed(state.iterations() * d);
  SetKernelCounters(state, sim.events_processed() - events0, allocs0);
}
BENCHMARK(BM_CalendarSameTimeBurst)->Arg(4)->Arg(16)->Arg(64);

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

void BM_LoserTreeReplay(benchmark::State& state) {
  int k = static_cast<int>(state.range(0));
  Rng rng(7);
  extsort::LoserTree<uint64_t> tree(k);
  for (int s = 0; s < k; ++s) {
    tree.SetInitial(s, rng.Next64());
  }
  tree.Build();
  for (auto _ : state) {
    tree.ReplaceWinner(tree.WinnerItem() + rng.UniformInt(1024));
  }
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_LoserTreeReplay)->Arg(8)->Arg(64)->Arg(512);

void BM_FullMergeTrial(benchmark::State& state) {
  core::MergeConfig cfg =
      core::MergeConfig::Paper(25, 5, static_cast<int>(state.range(0)),
                               core::Strategy::kAllDisksOneRun,
                               core::SyncMode::kUnsynchronized);
  uint64_t seed = 1;
  uint64_t allocs0 = HeapAllocs();
  uint64_t events = 0;
  for (auto _ : state) {
    cfg.seed = seed++;
    auto result = core::SimulateMerge(cfg);
    benchmark::DoNotOptimize(result->total_ms);
    events += result->sim_events;
  }
  state.SetItemsProcessed(state.iterations() * 25000);  // Blocks per trial.
  SetKernelCounters(state, events, allocs0);
}
BENCHMARK(BM_FullMergeTrial)->Arg(1)->Arg(10);

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

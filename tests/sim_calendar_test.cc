// Property and stress tests pinning the kernel's event calendar — a 4-ary
// heap that moves to a Brown-1988 calendar queue once kQueueSwitchDepth
// entries are pending — to a reference model (std::priority_queue over
// (time, seq)), plus burst-resume equivalence, the seq-wrap renormalization,
// the frame pool's reuse guarantee and the O(1) live-process bookkeeping.
// These guard the invariant that the calendar preserves exact (time, seq)
// FIFO ordering on both sides of the switch and across it: under every
// driver (Run, RunUntil, Step), under reentrant scheduling from callbacks,
// and under adversarial time distributions (all-equal timestamps, sparse
// exponential spreads, resize churn). Each contract case runs twice: from a
// fresh Simulation, where small populations stay on the heap and large ones
// cross the switch, and from one already on the queue. Labeled `unit;thread` so the
// sanitizer CI jobs run them under ASan and TSan builds as well.

#include <algorithm>
#include <array>
#include <cmath>
#include <cstddef>
#include <cstdint>
#include <memory>
#include <queue>
#include <string>
#include <utility>
#include <vector>

#include <gtest/gtest.h>

#include "obs/metrics.h"
#include "sim/calendar.h"
#include "sim/event.h"
#include "sim/frame_pool.h"
#include "sim/process.h"
#include "sim/simulation.h"
#include "util/rng.h"

namespace emsim::sim {
namespace {

// ---------------------------------------------------------------------------
// Reference-model stress test.
//
// A static event tree is generated up front: root events at random times,
// each event spawning 0-2 children at `parent_time + delta` when executed
// (reentrant scheduling — the sim schedules children from inside callbacks).
// The same tree is replayed against a std::priority_queue reference that
// implements the documented contract directly: earliest time first, FIFO by
// insertion sequence on ties. The execution orders must match exactly.
// ---------------------------------------------------------------------------

struct EventTree {
  std::vector<double> time_of;
  std::vector<std::vector<std::pair<int, double>>> kids;  // (child id, delta)
  int num_ids = 0;
  int num_roots = 0;
};

/// Each event gets `min_children` to 2 children: 0 gives a tree whose
/// pending population random-walks, 1 one whose population only grows.
EventTree MakeTree(uint64_t seed, int roots, int max_ids, uint64_t min_children = 0) {
  EventTree tree;
  tree.num_roots = roots;
  tree.time_of.resize(static_cast<size_t>(max_ids), 0.0);
  tree.kids.resize(static_cast<size_t>(max_ids));
  Rng rng(seed);
  int next_id = roots;
  for (int i = 0; i < roots; ++i) {
    // Coarse grid so distinct events frequently collide on the same time and
    // exercise the FIFO tie-break, not just the time ordering.
    tree.time_of[static_cast<size_t>(i)] = static_cast<double>(rng.UniformInt(40));
  }
  for (int id = 0; id < next_id; ++id) {
    uint64_t n_children = min_children + rng.UniformInt(3 - min_children);
    for (uint64_t c = 0; c < n_children && next_id < max_ids; ++c) {
      double delta = static_cast<double>(rng.UniformInt(10));
      tree.kids[static_cast<size_t>(id)].emplace_back(next_id, delta);
      tree.time_of[static_cast<size_t>(next_id)] =
          tree.time_of[static_cast<size_t>(id)] + delta;
      ++next_id;
    }
  }
  tree.num_ids = next_id;
  return tree;
}

/// Executes the tree on the reference model: a binary heap over
/// (time, insertion seq) with no knowledge of the production calendar.
std::vector<int> ReferenceOrder(const EventTree& tree) {
  struct Entry {
    double time;
    uint64_t seq;
    int id;
  };
  struct Later {
    bool operator()(const Entry& a, const Entry& b) const {
      if (a.time != b.time) {
        return a.time > b.time;
      }
      return a.seq > b.seq;
    }
  };
  std::priority_queue<Entry, std::vector<Entry>, Later> queue;
  uint64_t seq = 0;
  for (int i = 0; i < tree.num_roots; ++i) {
    queue.push(Entry{tree.time_of[static_cast<size_t>(i)], seq++, i});
  }
  std::vector<int> order;
  while (!queue.empty()) {
    Entry top = queue.top();
    queue.pop();
    order.push_back(top.id);
    for (const auto& [child, delta] : tree.kids[static_cast<size_t>(top.id)]) {
      queue.push(Entry{tree.time_of[static_cast<size_t>(child)], seq++, child});
    }
  }
  return order;
}

/// Schedules the tree's roots into `sim`; executed ids append to `log` and
/// reentrantly schedule their children.
class TreeDriver {
 public:
  TreeDriver(Simulation* sim, const EventTree* tree) : sim_(sim), tree_(tree) {}

  void ScheduleRoots() {
    for (int i = 0; i < tree_->num_roots; ++i) {
      Schedule(i);
    }
  }

  const std::vector<int>& log() const { return log_; }
  size_t max_depth() const { return max_depth_; }

 private:
  void Schedule(int id) {
    sim_->ScheduleCallback(tree_->time_of[static_cast<size_t>(id)],
                           [this, id] { Execute(id); });
  }

  void Execute(int id) {
    log_.push_back(id);
    for (const auto& [child, delta] : tree_->kids[static_cast<size_t>(id)]) {
      Schedule(child);
    }
    max_depth_ = std::max(max_depth_, sim_->CalendarDepth());
  }

  Simulation* sim_;
  const EventTree* tree_;
  std::vector<int> log_;
  size_t max_depth_ = 0;
};

/// Which structure a contract test's Simulation starts on.
enum class Start { kHeap, kQueue };

/// Puts a fresh `sim` on the structure `start` names and returns the events
/// that took. A fresh Simulation is on the heap already (0 events). For the
/// queue, kQueueSwitchDepth + 1 no-op callbacks at t=0 cross the switch and
/// run; the Simulation keeps the queue, now empty, with the clock still at 0.
uint64_t StartOn(Start start, Simulation& sim) {
  if (start == Start::kQueue) {
    for (size_t i = 0; i <= Simulation::kQueueSwitchDepth; ++i) {
      sim.ScheduleCallback(0.0, [] {});
    }
    sim.Run();
  }
  EXPECT_EQ(sim.on_calendar_queue(), start == Start::kQueue);
  EXPECT_EQ(sim.Now(), 0.0);
  EXPECT_EQ(sim.CalendarDepth(), 0u);
  return sim.events_processed();
}

/// Every contract test runs twice. On `heap` the Simulation starts on the
/// heap, and the tests that fill it past kQueueSwitchDepth cross the switch
/// mid-run. On `cq` it is on the calendar queue before the first event, so
/// even the shallow phases run there. The (time, seq) contract holds on both
/// structures and across the switch; this suite is what pins it.
class CalendarContractTest : public ::testing::TestWithParam<Start> {
 protected:
  uint64_t Prepare(Simulation& sim) const { return StartOn(GetParam(), sim); }
};

INSTANTIATE_TEST_SUITE_P(Start, CalendarContractTest,
                         ::testing::Values(Start::kHeap, Start::kQueue),
                         [](const ::testing::TestParamInfo<Start>& info) {
                           return std::string(info.param == Start::kHeap ? "heap" : "cq");
                         });

TEST_P(CalendarContractTest, RunMatchesReferenceModel) {
  // 200 roots cross the heap -> queue switch while the roots are scheduled;
  // 4 roots whose events each have 1-2 children start on the heap and cross
  // it from inside a running callback, as the children pile up.
  for (int roots : {200, 4}) {
    for (uint64_t seed : {1ULL, 7ULL, 42ULL, 1234ULL}) {
      SCOPED_TRACE("roots=" + std::to_string(roots) + " seed=" + std::to_string(seed));
      EventTree tree = MakeTree(seed, roots, /*max_ids=*/4000,
                                /*min_children=*/roots < 8 ? 1 : 0);
      std::vector<int> expected = ReferenceOrder(tree);

      Simulation sim;
      const uint64_t primed = Prepare(sim);
      TreeDriver driver(&sim, &tree);
      driver.ScheduleRoots();
      sim.Run();

      EXPECT_EQ(driver.log(), expected);
      EXPECT_GE(driver.max_depth(), Simulation::kQueueSwitchDepth);
      EXPECT_EQ(sim.events_processed() - primed, static_cast<uint64_t>(tree.num_ids));
      EXPECT_TRUE(sim.on_calendar_queue());
      EXPECT_EQ(sim.CalendarDepth(), 0u);
    }
  }
}

TEST_P(CalendarContractTest, InterleavedStepAndRunUntilMatchesReferenceModel) {
  EventTree tree = MakeTree(/*seed=*/99, /*roots=*/150, /*max_ids=*/3000);
  std::vector<int> expected = ReferenceOrder(tree);

  Simulation sim;
  const uint64_t primed = Prepare(sim);
  TreeDriver driver(&sim, &tree);
  driver.ScheduleRoots();
  // Drain through every driver the kernel offers: single steps, bounded
  // runs, then the terminal Run. Execution order must be invariant.
  for (int i = 0; i < 25; ++i) {
    ASSERT_TRUE(sim.Step());
  }
  sim.RunUntil(sim.Now() + 10.0);
  sim.RunUntil(sim.Now());  // Degenerate deadline: only same-time events.
  sim.Run();

  EXPECT_EQ(driver.log(), expected);
  EXPECT_EQ(sim.events_processed() - primed, static_cast<uint64_t>(tree.num_ids));
}

TEST_P(CalendarContractTest, RunUntilStopsRightAfterTheSwitch) {
  // Eight roots fill the heap: seven at 10..16 and root 7 at t=1. Root 7's
  // callback leaves seven pending, pushes one more on the heap, and its
  // second push finds eight pending and moves the calendar to the queue.
  // RunUntil(1) then reads its deadline test from the new queue: it must
  // run the same-tick child, stop before t=2, and leave the rest of the
  // run in the reference order. On `cq` there is no switch left to cross,
  // and the same stops must hold on the queue throughout.
  EventTree tree;
  tree.num_roots = 8;
  for (int i = 0; i < 7; ++i) {
    tree.time_of.push_back(10.0 + i);
  }
  tree.time_of.push_back(1.0);
  tree.kids.resize(8);
  for (double delta : {1.0, 19.0, 4.0, 0.0, 9.0}) {
    tree.kids[7].emplace_back(static_cast<int>(tree.time_of.size()), delta);
    tree.time_of.push_back(1.0 + delta);
    tree.kids.emplace_back();
  }
  tree.num_ids = static_cast<int>(tree.time_of.size());
  std::vector<int> expected = ReferenceOrder(tree);

  Simulation sim;
  Prepare(sim);
  TreeDriver driver(&sim, &tree);
  driver.ScheduleRoots();
  ASSERT_EQ(sim.CalendarDepth(), Simulation::kQueueSwitchDepth);
  EXPECT_EQ(sim.on_calendar_queue(), GetParam() == Start::kQueue);
  sim.RunUntil(1.0);
  EXPECT_TRUE(sim.on_calendar_queue());
  ASSERT_EQ(driver.log(), std::vector<int>({7, 11}));  // The t=1 root and its t=1 child.
  EXPECT_EQ(sim.Now(), 1.0);
  EXPECT_EQ(sim.CalendarDepth(), 11u);
  sim.RunUntil(5.0);
  sim.Run();
  EXPECT_EQ(driver.log(), expected);
}

TEST_P(CalendarContractTest, FifoTieBreakAcrossInterleavedTimes) {
  Simulation sim;
  Prepare(sim);
  std::vector<int> log;
  // Interleave registrations across two times; within a time, execution must
  // follow registration order exactly.
  for (int i = 0; i < 64; ++i) {
    double at = (i % 2 == 0) ? 5.0 : 3.0;
    sim.ScheduleCallback(at, [&log, i] { log.push_back(i); });
  }
  sim.Run();
  ASSERT_EQ(log.size(), 64u);
  for (int i = 0; i < 32; ++i) {
    EXPECT_EQ(log[static_cast<size_t>(i)], 2 * i + 1) << "time-3 group order";
    EXPECT_EQ(log[static_cast<size_t>(32 + i)], 2 * i) << "time-5 group order";
  }
}

// ---------------------------------------------------------------------------
// Adversarial time distributions. Each targets a calendar-queue failure mode
// (bucket collapse, sparse buckets, resize churn) and fills the calendar far
// past the switch depth: the expected order comes from the contract, not
// from either structure.
// ---------------------------------------------------------------------------

TEST_P(CalendarContractTest, AllEqualTimestampsPreserveFifo) {
  // Every event on one tick: the calendar queue degenerates to a single
  // sorted bucket (width adaptation cannot separate equal times), so order
  // is decided purely on seq. Reentrant same-time scheduling must interleave
  // exactly as the reference does.
  Simulation sim;
  Prepare(sim);
  std::vector<int> log;
  constexpr int kFirstWave = 500;
  for (int i = 0; i < kFirstWave; ++i) {
    sim.ScheduleCallback(7.0, [&log, &sim, i] {
      log.push_back(i);
      if (i % 3 == 0) {
        // A same-tick child: must run after everything already registered.
        sim.ScheduleCallback(7.0, [&log, i] { log.push_back(kFirstWave + i); });
      }
    });
  }
  sim.Run();
  std::vector<int> expected;
  for (int i = 0; i < kFirstWave; ++i) {
    expected.push_back(i);
  }
  for (int i = 0; i < kFirstWave; i += 3) {
    expected.push_back(kFirstWave + i);
  }
  EXPECT_EQ(log, expected);
  EXPECT_EQ(sim.Now(), 7.0);
}

TEST_P(CalendarContractTest, ExponentiallySpreadTimestampsMatchReference) {
  // Times spanning ~10 decades leave nearly every calendar-queue bucket
  // empty and force its direct-search fallback (a whole "year" scan finds
  // nothing due). Expected order: stable sort by time (seq breaks ties by
  // registration order).
  Rng rng(2024);
  std::vector<double> times;
  for (int i = 0; i < 3000; ++i) {
    double t = rng.Exponential(1.0) * std::pow(10.0, static_cast<double>(rng.UniformInt(10)));
    times.push_back(t);
  }
  std::vector<int> expected(times.size());
  for (size_t i = 0; i < times.size(); ++i) {
    expected[i] = static_cast<int>(i);
  }
  std::stable_sort(expected.begin(), expected.end(),
                   [&times](int a, int b) {
                     return times[static_cast<size_t>(a)] < times[static_cast<size_t>(b)];
                   });

  Simulation sim;
  Prepare(sim);
  std::vector<int> log;
  for (size_t i = 0; i < times.size(); ++i) {
    sim.ScheduleCallback(times[i], [&log, i] { log.push_back(static_cast<int>(i)); });
  }
  sim.Run();
  EXPECT_EQ(log, expected);
}

TEST_P(CalendarContractTest, PopulationChurnWavesMatchReference) {
  // Sawtooth population (fill to ~2000, drain to ~50, repeat) drives the
  // calendar queue through repeated grow/shrink resizes while events keep
  // executing; a tree replay per wave cross-checks the full order.
  Simulation sim;
  const uint64_t primed = Prepare(sim);
  Rng rng(31337);
  std::vector<double> pending;  // Times scheduled but not yet executed.
  std::vector<std::pair<double, int>> executed;
  int next_id = 0;
  auto schedule = [&](double at, int id) {
    sim.ScheduleCallback(at, [&executed, at, id] { executed.emplace_back(at, id); });
    pending.push_back(at);
  };
  for (int wave = 0; wave < 6; ++wave) {
    for (int i = 0; i < 2000; ++i) {
      double at = sim.Now() + static_cast<double>(rng.UniformInt(500)) * 0.25;
      schedule(at, next_id++);
    }
    // Drain most of the population, leaving a deadline-ordered remainder.
    std::sort(pending.begin(), pending.end());
    double cutoff = pending[pending.size() - 50];
    pending.erase(pending.begin(), pending.end() - 50);
    sim.RunUntil(cutoff);
  }
  sim.Run();
  // The contract gives the expected order directly: sort executions by
  // (time, registration id) — ids were assigned in scheduling order.
  std::vector<std::pair<double, int>> expected = executed;
  std::sort(expected.begin(), expected.end());
  EXPECT_EQ(executed, expected);
  EXPECT_EQ(sim.events_processed() - primed, static_cast<uint64_t>(next_id));
}

// ---------------------------------------------------------------------------
// Batched same-timestamp resume. Ground truth comes from the kernel itself:
// with the calendar-depth timeline attached, ScheduleHandleBurst falls back
// to per-handle scheduling, so running one scenario with and without metrics
// must produce identical logs, event counts and clocks.
// ---------------------------------------------------------------------------

Process BurstWaiter(Simulation& sim, Event& ready, std::vector<int>& log, int id) {
  co_await ready.Wait();
  log.push_back(id);
  // Same-tick follow-up work: must run after every burst member resumed.
  sim.ScheduleCallback(sim.Now(), [&log, id] { log.push_back(1000 + id); });
  co_await Delay(0.0);  // Lone-runner bait: time must not advance mid-burst.
  log.push_back(2000 + id);
}

Process BurstSetter(Event& ready) {
  co_await Delay(5.0);
  ready.Set();
}

struct BurstRunResult {
  std::vector<int> log;
  uint64_t events = 0;
  double now = 0.0;
};

BurstRunResult RunBurstScenario(Start start, bool attach_metrics) {
  Simulation sim;
  StartOn(start, sim);
  obs::MetricsRegistry metrics(true);
  if (attach_metrics) {
    sim.AttachMetrics(&metrics);
  }
  BurstRunResult result;
  Event ready(&sim);
  for (int id = 0; id < 16; ++id) {
    sim.Spawn(BurstWaiter(sim, ready, result.log, id));
  }
  sim.Spawn(BurstSetter(ready));
  sim.Run();
  result.events = sim.events_processed();
  result.now = sim.Now();
  return result;
}

TEST_P(CalendarContractTest, EventBurstResumesWaitersInFifoOrder) {
  BurstRunResult burst = RunBurstScenario(GetParam(), /*attach_metrics=*/false);
  ASSERT_EQ(burst.log.size(), 48u);
  // All 16 members resume first (FIFO); then their same-tick follow-ups in
  // seq order — each member registered its callback then its Delay(0)
  // continuation, so the tail interleaves (1000+id, 2000+id) pairs.
  for (int id = 0; id < 16; ++id) {
    EXPECT_EQ(burst.log[static_cast<size_t>(id)], id) << "waiter order";
    EXPECT_EQ(burst.log[static_cast<size_t>(16 + 2 * id)], 1000 + id) << "follow-up order";
    EXPECT_EQ(burst.log[static_cast<size_t>(17 + 2 * id)], 2000 + id) << "post-delay order";
  }
  EXPECT_EQ(burst.now, 5.0);
}

TEST_P(CalendarContractTest, BurstPathMatchesUnbatchedFallbackExactly) {
  BurstRunResult burst = RunBurstScenario(GetParam(), /*attach_metrics=*/false);
  BurstRunResult unbatched = RunBurstScenario(GetParam(), /*attach_metrics=*/true);
  EXPECT_EQ(burst.log, unbatched.log);
  EXPECT_EQ(burst.events, unbatched.events);
  EXPECT_EQ(burst.now, unbatched.now);
}

Process ParkedWaiter(Event& ready, std::vector<int>& log, int id) {
  co_await ready.Wait();
  log.push_back(id);
}

TEST_P(CalendarContractTest, BurstParkedAcrossTheSwitch) {
  // Sixteen waiters park on one Event, spawned in waves of four so the
  // calendar never reaches the switch depth. Set() parks all sixteen resumes
  // in one burst entry on the heap; the ten callbacks scheduled right after
  // push the calendar past the switch, so the burst entry moves into the
  // queue while pending. It still pops first (lowest seq at t=5). With
  // metrics attached, Set() falls back to sixteen individual entries: the
  // unbatched reference must produce the same log. On `cq` the burst entry
  // is pushed straight into the queue.
  for (bool attach_metrics : {false, true}) {
    SCOPED_TRACE(attach_metrics ? "unbatched" : "burst");
    Simulation sim;
    const uint64_t primed = Prepare(sim);
    obs::MetricsRegistry metrics(true);
    if (attach_metrics) {
      sim.AttachMetrics(&metrics);
    }
    Event ready(&sim);
    std::vector<int> log;
    for (int wave = 0; wave < 4; ++wave) {
      for (int i = 0; i < 4; ++i) {
        sim.Spawn(ParkedWaiter(ready, log, 4 * wave + i));
      }
      sim.Run();
    }
    ASSERT_EQ(sim.CalendarDepth(), 0u);
    EXPECT_EQ(sim.on_calendar_queue(), GetParam() == Start::kQueue);
    size_t depth_after_set = 0;
    sim.ScheduleCallback(5.0, [&sim, &ready, &log, &depth_after_set] {
      ready.Set();
      for (int i = 0; i < 10; ++i) {
        sim.ScheduleCallback(5.0 + (i % 3), [&log, i] { log.push_back(100 + i); });
      }
      depth_after_set = sim.CalendarDepth();
    });
    sim.Run();
    EXPECT_GE(depth_after_set, Simulation::kQueueSwitchDepth);
    EXPECT_TRUE(sim.on_calendar_queue());
    std::vector<int> expected;
    for (int id = 0; id < 16; ++id) {
      expected.push_back(id);
    }
    for (int tick = 0; tick < 3; ++tick) {
      for (int i = tick; i < 10; i += 3) {
        expected.push_back(100 + i);
      }
    }
    EXPECT_EQ(log, expected);
    // Spawns, setter, callbacks, resumes.
    EXPECT_EQ(sim.events_processed() - primed, 16u + 1u + 10u + 16u);
    EXPECT_EQ(sim.live_processes(), 0);
  }
}

Process SignalHopper(Signal& pulse, int& rounds, std::vector<int>& log, int id) {
  while (rounds > 0) {
    co_await pulse.Wait();
    log.push_back(id);
  }
}

Process SignalDriver(Signal& pulse, int& rounds) {
  while (rounds > 0) {
    co_await Delay(1.0);
    --rounds;
    pulse.Fire();
  }
}

TEST_P(CalendarContractTest, RepeatedSignalBurstsRecycleBurstSlots) {
  Simulation sim;
  Prepare(sim);
  Signal pulse(&sim);
  int rounds = 50;
  std::vector<int> log;
  for (int id = 0; id < 8; ++id) {
    sim.Spawn(SignalHopper(pulse, rounds, log, id));
  }
  sim.Spawn(SignalDriver(pulse, rounds));
  sim.Run();
  // 50 pulses x 8 waiters, FIFO within each pulse. (The final pulse finds
  // rounds == 0, so every waiter still runs exactly 50 times.)
  ASSERT_EQ(log.size(), 400u);
  for (size_t i = 0; i < log.size(); ++i) {
    EXPECT_EQ(log[i], static_cast<int>(i % 8));
  }
  EXPECT_EQ(sim.live_processes(), 0);
}

// ---------------------------------------------------------------------------
// 32-bit seq wrap: renormalization keeps the FIFO contract across the wrap.
// ---------------------------------------------------------------------------

TEST_P(CalendarContractTest, SeqWrapRenormalizationPreservesFifo) {
  // Five early entries leave the wrap to renormalize the heap (it fires on
  // the eighth push, before the switch); twelve have already moved the
  // calendar to the queue, so the wrap drains and refills the queue. On
  // `cq` both wraps renormalize the queue.
  for (int early : {5, 12}) {
    SCOPED_TRACE("early=" + std::to_string(early));
    Simulation sim;
    Prepare(sim);
    std::vector<int> log;
    // A few entries with ordinary seqs, then force the counter to the edge
    // so the remaining registrations straddle the wrap mid-scheduling.
    for (int i = 0; i < early; ++i) {
      sim.ScheduleCallback(20.0 + i, [&log, i] { log.push_back(i); });
    }
    sim.SetNextSeqForTest(UINT32_MAX - 2);
    for (int i = early; i < 30; ++i) {
      sim.ScheduleCallback(10.0, [&log, i] { log.push_back(i); });
    }
    sim.Run();
    // Expected: the same-time block (early..29) in registration order —
    // across the renormalization — then the earlier-registered but
    // later-timed 0..early-1.
    ASSERT_EQ(log.size(), 30u);
    const int late = 30 - early;
    for (int i = 0; i < late; ++i) {
      EXPECT_EQ(log[static_cast<size_t>(i)], early + i);
    }
    for (int i = 0; i < early; ++i) {
      EXPECT_EQ(log[static_cast<size_t>(late + i)], i);
    }
  }
}

Process WakeRecorder(Simulation& sim, std::vector<double>& wakes) {
  for (int i = 0; i < 8; ++i) {
    co_await Delay(1.5);
    wakes.push_back(sim.Now());
  }
}

TEST_P(CalendarContractTest, SeqWrapDuringLoneRunnerAdvance) {
  Simulation sim;
  Prepare(sim);
  sim.SetNextSeqForTest(UINT32_MAX - 1);
  std::vector<double> wakes;
  sim.Spawn(WakeRecorder(sim, wakes));
  sim.Run();
  ASSERT_EQ(wakes.size(), 8u);
  for (int i = 0; i < 8; ++i) {
    EXPECT_DOUBLE_EQ(wakes[static_cast<size_t>(i)], 1.5 * (i + 1));
  }
}

// ---------------------------------------------------------------------------
// CalendarQueue direct tests: randomized push/pop against the reference heap
// under the same adversarial distributions, with resize churn verified via
// the bucket-count introspection.
// ---------------------------------------------------------------------------

struct RefLater {
  bool operator()(const CalEntry& a, const CalEntry& b) const { return EarlierThan(b, a); }
};
using ReferenceQueue = std::priority_queue<CalEntry, std::vector<CalEntry>, RefLater>;

void FuzzAgainstReference(uint64_t seed, int ops, double (*next_time)(Rng&, double)) {
  Rng rng(seed);
  CalendarQueue cq;
  ReferenceQueue ref;
  uint32_t seq = 0;
  double now = 0.0;
  for (int op = 0; op < ops; ++op) {
    // Bias toward pushes while small, pops while large, with random runs of
    // each so the population swings through resize thresholds repeatedly.
    const uint64_t push_bias = cq.size() < 512 ? 60 : 40;
    bool push = cq.empty() || rng.UniformInt(100) < push_bias;
    if (push) {
      CalEntry entry{next_time(rng, now), seq, seq};
      ++seq;
      cq.Push(entry);
      ref.push(entry);
    } else {
      ASSERT_EQ(cq.PeekMin().seq, ref.top().seq) << "op " << op;
      CalEntry popped = cq.PopMin();
      EXPECT_EQ(popped.time, ref.top().time) << "op " << op;
      EXPECT_EQ(popped.seq, ref.top().seq) << "op " << op;
      now = popped.time;  // Simulation clock: future pushes are >= now.
      ref.pop();
    }
    ASSERT_EQ(cq.size(), ref.size());
  }
  while (!cq.empty()) {
    CalEntry popped = cq.PopMin();
    EXPECT_EQ(popped.seq, ref.top().seq);
    ref.pop();
  }
}

TEST(CalendarQueueTest, UniformTimesMatchReference) {
  FuzzAgainstReference(17, 20000, [](Rng& rng, double now) {
    return now + static_cast<double>(rng.UniformInt(1000)) * 0.125;
  });
}

TEST(CalendarQueueTest, AllEqualTimesMatchReference) {
  // Bucket collapse: every entry maps to one bucket; order is pure seq.
  FuzzAgainstReference(23, 8000, [](Rng&, double now) { return now; });
}

TEST(CalendarQueueTest, ExponentialSpreadMatchesReference) {
  // Sparse buckets: successive times jump decades, exercising the
  // direct-search fallback and cursor jumps.
  FuzzAgainstReference(29, 8000, [](Rng& rng, double now) {
    return now + rng.Exponential(1.0) * std::pow(10.0, static_cast<double>(rng.UniformInt(8)));
  });
}

TEST(CalendarQueueTest, ResizeChurnGrowsAndShrinksBuckets) {
  CalendarQueue cq;
  Rng rng(7);
  uint32_t seq = 0;
  size_t max_buckets = cq.NumBuckets();
  // Fill far past the grow threshold...
  for (int i = 0; i < 4096; ++i) {
    cq.Push(CalEntry{static_cast<double>(rng.UniformInt(100000)) * 0.01, seq, seq});
    ++seq;
    max_buckets = std::max(max_buckets, cq.NumBuckets());
  }
  EXPECT_GT(max_buckets, 4u) << "population 4096 must trigger grow resizes";
  // ...then drain to trigger the shrink path, checking order en route.
  CalEntry prev = cq.PopMin();
  size_t min_buckets = cq.NumBuckets();
  while (!cq.empty()) {
    CalEntry entry = cq.PopMin();
    ASSERT_TRUE(EarlierThan(prev, entry));
    prev = entry;
    min_buckets = std::min(min_buckets, cq.NumBuckets());
  }
  EXPECT_LT(min_buckets, max_buckets) << "drain must trigger shrink resizes";
  EXPECT_GT(cq.BucketWidth(), 0.0);
}

// ---------------------------------------------------------------------------
// Callback-cell pool behavior.
// ---------------------------------------------------------------------------

TEST(CalendarTest, CallbackSlotsAreReusedAcrossWaves) {
  Simulation sim;
  int64_t hits = 0;
  for (int wave = 0; wave < 6; ++wave) {
    for (int i = 0; i < 50; ++i) {
      sim.ScheduleCallback(sim.Now() + 1.0 + i, [&hits] { ++hits; });
    }
    sim.Run();
    // The pool grows to the high-water mark of concurrently pending
    // callbacks on the first wave and never after.
    EXPECT_EQ(sim.CallbackPoolSize(), 50u) << "wave " << wave;
  }
  EXPECT_EQ(hits, 6 * 50);
}

TEST(CalendarTest, HandleSlotsAreReusedAcrossWaves) {
  Simulation sim;
  for (int wave = 0; wave < 6; ++wave) {
    for (int i = 0; i < 40; ++i) {
      sim.Spawn([](double delay) -> Process { co_await Delay(delay); }(1.0 + i));
    }
    sim.Run();
    // Same recycling contract as callback cells: the handle pool grows to
    // the peak number of simultaneously parked coroutines, then stabilizes.
    EXPECT_EQ(sim.HandlePoolSize(), 40u) << "wave " << wave;
  }
  EXPECT_EQ(sim.live_processes(), 0);
}

TEST(CalendarTest, HeapBoxedCallablesExecuteAndDestruct) {
  auto token = std::make_shared<int>(7);
  {
    Simulation sim;
    int sum = 0;
    // Large trivially-copyable capture: too big for the inline cell, heap-boxed.
    std::array<int, 64> big{};
    big[0] = 1;
    big[63] = 2;
    sim.ScheduleCallback(1.0, [big, &sum] { sum += big[0] + big[63]; });
    // Non-trivially-copyable capture (shared_ptr): also heap-boxed.
    sim.ScheduleCallback(2.0, [token, &sum] { sum += *token; });
    sim.Run();
    EXPECT_EQ(sum, 10);
  }
  EXPECT_EQ(token.use_count(), 1);
}

TEST(CalendarTest, PendingCallbacksAreDestroyedWithTheSimulation) {
  auto token = std::make_shared<int>(1);
  {
    Simulation sim;
    sim.ScheduleCallback(1.0, [token] { (void)*token; });
    sim.ScheduleCallback(2.0, [token] { (void)*token; });
    EXPECT_EQ(token.use_count(), 3);
    // Destroy without running: the kernel must still release both captures.
  }
  EXPECT_EQ(token.use_count(), 1);
}

// ---------------------------------------------------------------------------
// Frame pool and live-process bookkeeping.
// ---------------------------------------------------------------------------

Process Sleeper(Simulation& /*sim*/, double delay) { co_await Delay(delay); }

TEST(FramePoolTest, SpawnWavesReuseFramesWithoutNewReservations) {
  auto run_wave = [] {
    Simulation sim;
    Rng rng(11);
    for (int i = 0; i < 64; ++i) {
      sim.Spawn(Sleeper(sim, static_cast<double>(1 + rng.UniformInt(100))));
    }
    sim.Run();
  };
  run_wave();  // Warm the thread-local pool to its high-water mark.
  FramePool::Stats warm = FramePool::ThreadStats();
  for (int wave = 0; wave < 5; ++wave) {
    run_wave();
  }
  FramePool::Stats after = FramePool::ThreadStats();
  // Steady state: frames recycle through the free lists; the slab footprint
  // (the RSS proxy) must not grow.
  EXPECT_EQ(after.bytes_reserved, warm.bytes_reserved);
  EXPECT_EQ(after.slabs_allocated, warm.slabs_allocated);
  EXPECT_GT(after.pool_allocs, warm.pool_allocs);
  EXPECT_EQ(after.live_frames, warm.live_frames);
}

TEST(LiveProcessTest, RandomOrderFinishKeepsCountExact) {
  Simulation sim;
  // Distinct delays in shuffled order: processes finish in a different order
  // than they were spawned, exercising the swap-with-back slot maintenance.
  Rng rng(5);
  std::vector<uint32_t> delays = rng.Permutation(40);
  for (uint32_t d : delays) {
    sim.Spawn(Sleeper(sim, static_cast<double>(d) + 1.0));
  }
  EXPECT_EQ(sim.live_processes(), 40);
  // Probe mid-run: at time 20.5 every process with delay <= 20 has finished.
  sim.RunUntil(20.5);
  EXPECT_EQ(sim.live_processes(), 20);
  sim.Run();
  EXPECT_EQ(sim.live_processes(), 0);
  EXPECT_EQ(sim.CalendarDepth(), 0u);
}

}  // namespace
}  // namespace emsim::sim

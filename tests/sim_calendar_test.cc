// Property and stress tests pinning the kernel's pending-event structures —
// the 4-ary heap calendar and the tick ring — to a reference model
// (std::priority_queue over (time, seq)), plus tick series against the Delay
// loops they replace, the lone-runner fast path, the seq-wrap
// renormalization, the frame pool's reuse guarantee and the O(1)
// live-process bookkeeping.
// These guard the invariant that the kernel preserves exact (time, seq) FIFO
// ordering across both structures: under every driver (Run, RunUntil,
// Step), under reentrant scheduling from callbacks, and under adversarial
// time distributions (all-equal timestamps, sparse exponential spreads,
// population churn). Each contract case runs twice: bare, and with metrics
// attached, which turns the lone-runner fast path off and must account for
// every event. Labeled `unit;thread` so the sanitizer CI jobs run them under
// ASan and TSan builds as well.

#include <algorithm>
#include <array>
#include <cmath>
#include <cstddef>
#include <cstdint>
#include <memory>
#include <queue>
#include <string>
#include <tuple>
#include <utility>
#include <vector>

#include <gtest/gtest.h>

#include "obs/metrics.h"
#include "sim/frame_pool.h"
#include "sim/process.h"
#include "sim/signal.h"
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

/// How a contract test watches its Simulation.
enum class Watch { kBare, kMetered };

/// On `metered`, attaches a registry to the Simulation for the guard's
/// lifetime. Attached metrics turn the lone-runner fast path off
/// (AdvanceInline declines), so every Delay wake and tick is a real pop from
/// the heap or the tick ring, and every pop records the depth timeline. On
/// destruction the guard checks that sim.resumes + sim.callbacks + sim.ticks
/// count every event the Simulation processed. Declare it right after the
/// Simulation, before anything is scheduled.
class Meter {
 public:
  Meter(Simulation& sim, Watch watch) : sim_(&sim) {
    if (watch == Watch::kMetered) {
      sim_->AttachMetrics(&metrics_);
      attached_ = true;
    }
  }
  Meter(const Meter&) = delete;
  Meter& operator=(const Meter&) = delete;
  ~Meter() {
    if (!attached_) {
      return;
    }
    sim_->AttachMetrics(nullptr);
    EXPECT_EQ(metrics_.GetCounter("sim.resumes").value() +
                  metrics_.GetCounter("sim.callbacks").value() +
                  metrics_.GetCounter("sim.ticks").value(),
              sim_->events_processed());
  }

 private:
  Simulation* sim_;
  obs::MetricsRegistry metrics_;
  bool attached_ = false;
};

/// Every contract test runs twice, bare and metered (see Meter): the
/// (time, seq) contract holds across the heap and the tick ring whether or
/// not the lone-runner fast path runs; this suite is what pins it.
class CalendarContractTest : public ::testing::TestWithParam<Watch> {};

INSTANTIATE_TEST_SUITE_P(Watch, CalendarContractTest,
                         ::testing::Values(Watch::kBare, Watch::kMetered),
                         [](const ::testing::TestParamInfo<Watch>& watch_info) {
                           return std::string(watch_info.param == Watch::kBare ? "bare"
                                                                               : "metered");
                         });

TEST_P(CalendarContractTest, RunMatchesReferenceModel) {
  // 200 roots are deep from the start; 4 roots whose events each have 1-2
  // children start shallow and deepen from inside running callbacks, as the
  // children pile up.
  for (int roots : {200, 4}) {
    for (uint64_t seed : {1ULL, 7ULL, 42ULL, 1234ULL}) {
      SCOPED_TRACE("roots=" + std::to_string(roots) + " seed=" + std::to_string(seed));
      EventTree tree = MakeTree(seed, roots, /*max_ids=*/4000,
                                /*min_children=*/roots < 8 ? 1 : 0);
      std::vector<int> expected = ReferenceOrder(tree);

      Simulation sim;
      Meter meter(sim, GetParam());
      TreeDriver driver(&sim, &tree);
      driver.ScheduleRoots();
      sim.Run();

      EXPECT_EQ(driver.log(), expected);
      EXPECT_GE(driver.max_depth(), 64u);
      EXPECT_EQ(sim.events_processed(), static_cast<uint64_t>(tree.num_ids));
      EXPECT_EQ(sim.CalendarDepth(), 0u);
    }
  }
}

TEST_P(CalendarContractTest, InterleavedStepAndRunUntilMatchesReferenceModel) {
  EventTree tree = MakeTree(/*seed=*/99, /*roots=*/150, /*max_ids=*/3000);
  std::vector<int> expected = ReferenceOrder(tree);

  Simulation sim;
  Meter meter(sim, GetParam());
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
  EXPECT_EQ(sim.events_processed(), static_cast<uint64_t>(tree.num_ids));
}

TEST_P(CalendarContractTest, RunUntilStopsAfterTheDeadlineTick) {
  // Eight roots: seven at 10..16 and root 7 at t=1, whose callback pushes
  // five children at 2, 20, 5, 1 and 10. RunUntil(1) must run the same-tick
  // child, stop before t=2, and leave the rest of the run in the reference
  // order.
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
  Meter meter(sim, GetParam());
  TreeDriver driver(&sim, &tree);
  driver.ScheduleRoots();
  ASSERT_EQ(sim.CalendarDepth(), 8u);
  sim.RunUntil(1.0);
  ASSERT_EQ(driver.log(), std::vector<int>({7, 11}));  // The t=1 root and its t=1 child.
  EXPECT_EQ(sim.Now(), 1.0);
  EXPECT_EQ(sim.CalendarDepth(), 11u);
  sim.RunUntil(5.0);
  sim.Run();
  EXPECT_EQ(driver.log(), expected);
}

TEST_P(CalendarContractTest, FifoTieBreakAcrossInterleavedTimes) {
  Simulation sim;
  Meter meter(sim, GetParam());
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
// Adversarial time distributions: all-equal timestamps (order is pure seq),
// spreads over many decades, and population churn, each thousands of events
// deep. The expected order comes from the contract, not from any structure.
// ---------------------------------------------------------------------------

TEST_P(CalendarContractTest, AllEqualTimestampsPreserveFifo) {
  // Every event on one tick, so order is decided purely on seq. Reentrant
  // same-time scheduling must interleave exactly as the reference does.
  Simulation sim;
  Meter meter(sim, GetParam());
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
  // Times spanning ~10 decades, registered in random order. Expected order:
  // stable sort by time (seq breaks ties by registration order).
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
  Meter meter(sim, GetParam());
  std::vector<int> log;
  for (size_t i = 0; i < times.size(); ++i) {
    sim.ScheduleCallback(times[i], [&log, i] { log.push_back(static_cast<int>(i)); });
  }
  sim.Run();
  EXPECT_EQ(log, expected);
}

TEST_P(CalendarContractTest, PopulationChurnWavesMatchReference) {
  // Sawtooth population (fill to ~2000, drain to ~50, repeat) grows and
  // shrinks the heap while events keep executing.
  Simulation sim;
  Meter meter(sim, GetParam());
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
  EXPECT_EQ(sim.events_processed(), static_cast<uint64_t>(next_id));
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

TEST_P(CalendarContractTest, RepeatedMultiWaiterPulsesKeepFifoOrder) {
  Simulation sim;
  Meter meter(sim, GetParam());
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
// Tick series against the Delay loops they replace. One scenario runs twice:
// series processes await Ticks(lead, step, count, on_tick), or, as the
// reference, `if (lead > 0) co_await Delay(lead)` then `count` rounds of
// `co_await Delay(step); on_tick(i)`. Plain Delay processes, callbacks that
// the ticks schedule and a signal the ticks fire run beside them. Steps and
// leads sit on a coarse grid (zero included), so ticks tie with each other
// and with calendar entries. The traces — time, event count and pending
// depth at every callback and at every driver chunk boundary — must match.
// ---------------------------------------------------------------------------

enum class TickDriver { kRun, kRunUntil, kRunBounded, kStep };

struct TickScenario {
  uint64_t seed = 1;
  TickDriver driver = TickDriver::kRun;
  bool attach_metrics = false;
  bool wrap_seq = false;
};

using TickTraceEntry = std::tuple<double, uint64_t, size_t, int>;

struct TickRun {
  Simulation sim;
  Signal pulse{&sim};
  std::vector<TickTraceEntry> trace;
  bool use_ticks = false;

  void Log(int tag) {
    trace.emplace_back(sim.Now(), sim.events_processed(), sim.CalendarDepth(), tag);
  }

  /// A series step: log, sometimes schedule a callback or fire the pulse.
  void OnTick(int id, int i, Rng& rng) {
    Log(1000 * id + i);
    switch (rng.UniformInt(6)) {
      case 0:
        sim.ScheduleCallback(sim.Now() + 0.5 * static_cast<double>(rng.UniformInt(4)),
                             [this, id, i] { Log(-1000 * id - i - 1); });
        break;
      case 1:
        pulse.Fire();
        break;
      default:
        break;
    }
  }
};

double GridTime(Rng& rng, uint64_t cells) {
  return 0.5 * static_cast<double>(rng.UniformInt(cells));
}

Process SeriesProcess(TickRun& run, int id, uint64_t seed) {
  Rng rng(seed);
  const int rounds = 2 + static_cast<int>(rng.UniformInt(4));
  for (int r = 0; r < rounds; ++r) {
    const double lead = rng.UniformInt(3) == 0 ? 0.0 : GridTime(rng, 7);
    const double step = GridTime(rng, 5);
    const int count = 1 + static_cast<int>(rng.UniformInt(6));
    if (run.use_ticks) {
      co_await Ticks(lead, step, count, [&run, &rng, id](int i) { run.OnTick(id, i, rng); });
    } else {
      if (lead > 0) {
        co_await Delay(lead);
      }
      for (int i = 0; i < count; ++i) {
        co_await Delay(step);
        run.OnTick(id, i, rng);
      }
    }
    run.Log(1000 * id + 999);
    if (rng.UniformInt(2) == 0) {
      co_await Delay(GridTime(rng, 4));
    }
  }
}

Process DelayProcess(TickRun& run, int id, uint64_t seed) {
  Rng rng(seed);
  for (int r = 0; r < 12; ++r) {
    co_await Delay(GridTime(rng, 5));
    run.Log(1000 * id);
  }
}

Process PulseListener(TickRun& run, int id) {
  for (;;) {
    co_await run.pulse.Wait();
    run.Log(1000 * id);
  }
}

struct TickOutcome {
  std::vector<TickTraceEntry> trace;
  std::vector<obs::MetricsRegistry::Sample> metrics;
  uint64_t events = 0;
};

/// Runs the scenario on a fresh Simulation; returns its trace plus, with
/// metrics attached, the sim.* samples.
TickOutcome RunTickScenario(const TickScenario& scenario, bool use_ticks) {
  TickRun run;
  run.use_ticks = use_ticks;
  obs::MetricsRegistry metrics;
  if (scenario.attach_metrics) {
    run.sim.AttachMetrics(&metrics);
  }
  if (scenario.wrap_seq) {
    run.sim.SetNextSeqForTest(UINT32_MAX - 60);
  }
  Rng setup(scenario.seed);
  const int series = 3 + static_cast<int>(setup.UniformInt(10));
  for (int id = 1; id <= series; ++id) {
    run.sim.Spawn(SeriesProcess(run, id, setup.Next64()));
  }
  for (int id = 50; id < 53; ++id) {
    run.sim.Spawn(DelayProcess(run, id, setup.Next64()));
  }
  run.sim.Spawn(PulseListener(run, 60));
  Rng driver(scenario.seed ^ 0x5eed);
  switch (scenario.driver) {
    case TickDriver::kRun:
      run.sim.Run();
      break;
    case TickDriver::kRunUntil: {
      double deadline = 0.0;
      while (run.sim.CalendarDepth() > 0) {
        deadline += GridTime(driver, 4);
        run.sim.RunUntil(deadline);
        run.Log(-1);
      }
      break;
    }
    case TickDriver::kRunBounded:
      while (!run.sim.RunBounded(1 + driver.UniformInt(7))) {
        run.Log(-2);
      }
      break;
    case TickDriver::kStep:
      while (run.sim.Step()) {
        run.Log(-3);
      }
      break;
  }
  run.Log(-4);
  EXPECT_EQ(run.sim.live_processes(), 1);  // Only the pulse listener is left.
  TickOutcome outcome;
  outcome.trace = std::move(run.trace);
  outcome.events = run.sim.events_processed();
  if (scenario.attach_metrics) {
    outcome.metrics = metrics.Samples();
  }
  return outcome;
}

double SampleOf(const std::vector<obs::MetricsRegistry::Sample>& samples, const std::string& name) {
  for (const obs::MetricsRegistry::Sample& sample : samples) {
    if (sample.name == name) {
      return sample.value;
    }
  }
  return 0.0;
}

TEST_P(CalendarContractTest, TickSeriesMatchDelayLoops) {
  // The scenario attaches its own registry on `metered`, to compare the
  // sim.* samples of both runs.
  const bool attach_metrics = GetParam() == Watch::kMetered;
  for (TickDriver driver : {TickDriver::kRun, TickDriver::kRunUntil, TickDriver::kRunBounded,
                            TickDriver::kStep}) {
    for (bool wrap_seq : {false, true}) {
      for (uint64_t seed = 1; seed <= 12; ++seed) {
        const TickScenario scenario{seed, driver, attach_metrics, wrap_seq};
        SCOPED_TRACE("driver=" + std::to_string(static_cast<int>(driver)) +
                     " wrap=" + std::to_string(wrap_seq) + " seed=" + std::to_string(seed));
        const TickOutcome ticks = RunTickScenario(scenario, /*use_ticks=*/true);
        const TickOutcome delays = RunTickScenario(scenario, /*use_ticks=*/false);
        ASSERT_EQ(ticks.trace, delays.trace);
        EXPECT_EQ(ticks.events, delays.events);
        if (!attach_metrics) {
          continue;
        }
        // Every Delay wake of the reference is one tick; everything else,
        // the depth timeline included, is the same.
        ASSERT_EQ(ticks.metrics.size(), delays.metrics.size());
        EXPECT_EQ(SampleOf(delays.metrics, "sim.ticks"), 0.0);
        EXPECT_EQ(SampleOf(delays.metrics, "sim.resumes"),
                  SampleOf(ticks.metrics, "sim.resumes") + SampleOf(ticks.metrics, "sim.ticks"));
        EXPECT_EQ(SampleOf(ticks.metrics, "sim.resumes") + SampleOf(ticks.metrics, "sim.ticks") +
                      SampleOf(ticks.metrics, "sim.callbacks"),
                  static_cast<double>(ticks.events));
        for (const obs::MetricsRegistry::Sample& sample : delays.metrics) {
          if (sample.name != "sim.resumes" && sample.name != "sim.ticks") {
            EXPECT_EQ(SampleOf(ticks.metrics, sample.name), sample.value) << sample.name;
          }
        }
      }
    }
  }
}

TEST(TickSeriesTest, ManyConcurrentSeriesSpillPastTheInlineRing) {
  // Forty series pending at once outgrow the ring's inline storage; order
  // and counts must not notice.
  TickRun ticks;
  TickRun delays;
  ticks.use_ticks = true;
  for (TickRun* run : {&ticks, &delays}) {
    for (int id = 1; id <= 40; ++id) {
      run->sim.Spawn(SeriesProcess(*run, id, 1000 + static_cast<uint64_t>(id)));
    }
    run->sim.RunUntil(0.0);
  }
  EXPECT_GT(ticks.sim.CalendarDepth(), 32u);  // Mostly tick heads; 16 fit inline.
  ticks.sim.Run();
  delays.sim.Run();
  EXPECT_EQ(ticks.trace, delays.trace);
  EXPECT_EQ(ticks.sim.events_processed(), delays.sim.events_processed());
}

// ---------------------------------------------------------------------------
// 32-bit seq wrap: renormalization keeps the FIFO contract across the wrap.
// ---------------------------------------------------------------------------

TEST_P(CalendarContractTest, SeqWrapRenormalizationPreservesFifo) {
  // The wrap fires with 5 or 12 early entries pending.
  for (int early : {5, 12}) {
    SCOPED_TRACE("early=" + std::to_string(early));
    Simulation sim;
    Meter meter(sim, GetParam());
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
  // Bare, the lone runner advances in place across the wrap; metered, each
  // wake is a pop from the heap.
  Simulation sim;
  Meter meter(sim, GetParam());
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
// Ticks beside the calendar, and the lone-runner fast path.
// ---------------------------------------------------------------------------

Process TickUser(std::vector<std::string>& log) {
  co_await Ticks(0.0, 5.0, 1, [&log](int) { log.push_back("T"); });
  log.push_back("P");
}

Process CalendarUser(Simulation& sim, std::vector<std::string>& log) {
  sim.ScheduleCallback(5.0, [&log] { log.push_back("C3"); });
  co_return;
}

TEST(TickSeriesTest, EqualTimesPopInSeqOrderAcrossTicksAndCalendar) {
  // Four events due at t=5, in seq order: C1 and C2 from the top level, tick
  // T from process P's start, C3 from process Q's. P resumes within T's
  // event, so the tick counts one event and one sim.ticks.
  Simulation sim;
  obs::MetricsRegistry metrics;
  sim.AttachMetrics(&metrics);
  std::vector<std::string> log;
  sim.ScheduleCallback(5.0, [&log] { log.push_back("C1"); });
  sim.Spawn(TickUser(log));
  sim.Spawn(CalendarUser(sim, log));
  sim.ScheduleCallback(5.0, [&log] { log.push_back("C2"); });
  sim.Run();
  EXPECT_EQ(log, (std::vector<std::string>{"C1", "C2", "T", "P", "C3"}));
  EXPECT_EQ(sim.events_processed(), 6u);
  const std::vector<obs::MetricsRegistry::Sample> samples = metrics.Samples();
  EXPECT_EQ(SampleOf(samples, "sim.resumes"), 2.0);
  EXPECT_EQ(SampleOf(samples, "sim.callbacks"), 3.0);
  EXPECT_EQ(SampleOf(samples, "sim.ticks"), 1.0);
}

TEST(TickSeriesTest, SeqWrapRenumbersTickHeadsWithTheCalendar) {
  // P's tick at t=5 is queued behind C1 (also t=5, older seq). C1's child
  // C2 draws the seq that wraps; the pending tick head is renumbered ahead
  // of it, so T pops (and P resumes) before C2. Had the ring kept its
  // pre-wrap seq, C2 would pop first.
  Simulation sim;
  std::vector<std::string> log;
  sim.SetNextSeqForTest(UINT32_MAX - 3);
  sim.Spawn(TickUser(log));
  sim.ScheduleCallback(5.0, [&log, &sim] {
    log.push_back("C1");
    sim.ScheduleCallback(5.0, [&log] { log.push_back("C2"); });
  });
  sim.Run();
  EXPECT_EQ(log, (std::vector<std::string>{"C1", "T", "P", "C2"}));
}

TEST(CalendarTest, AdvanceInlineRunsOnlyWhileNothingElseIsPending) {
  // Inside the run loop with nothing pending, a lone runner advances in
  // place: one seq and one event per advance. Any pending entry, however
  // late, declines it (it could be an event between), as does a call
  // outside the run loop, past a RunUntil deadline or with metrics attached.
  Simulation sim;
  EXPECT_FALSE(sim.AdvanceInline(1.0));
  std::vector<bool> advanced;
  sim.ScheduleCallback(0.0, [&advanced, &sim] {
    advanced.push_back(sim.AdvanceInline(4.0));
    sim.ScheduleCallback(100.0, [] {});
    advanced.push_back(sim.AdvanceInline(5.0));
  });
  sim.Run();
  EXPECT_EQ(advanced, (std::vector<bool>{true, false}));
  EXPECT_EQ(sim.Now(), 100.0);
  EXPECT_EQ(sim.events_processed(), 3u);  // Two pops, one advance.

  advanced.clear();
  sim.ScheduleCallback(101.0, [&advanced, &sim] {
    advanced.push_back(sim.AdvanceInline(105.0));
    advanced.push_back(sim.AdvanceInline(106.0));
  });
  sim.RunUntil(105.0);
  EXPECT_EQ(advanced, (std::vector<bool>{true, false}));
  EXPECT_EQ(sim.Now(), 105.0);
  EXPECT_EQ(sim.events_processed(), 5u);

  obs::MetricsRegistry metrics;
  sim.AttachMetrics(&metrics);
  advanced.clear();
  sim.ScheduleCallback(110.0, [&advanced, &sim] { advanced.push_back(sim.AdvanceInline(111.0)); });
  sim.Run();
  EXPECT_EQ(advanced, std::vector<bool>{false});
  EXPECT_EQ(sim.events_processed(), 6u);
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

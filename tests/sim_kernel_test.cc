#include <cstddef>
#include <cstdint>
#include <memory>
#include <string>
#include <tuple>
#include <vector>

#include <gtest/gtest.h>

#include "sim/process.h"
#include "sim/signal.h"
#include "sim/simulation.h"

namespace emsim::sim {
namespace {

Process Recorder(Simulation& sim, std::vector<double>& log, double delay, int repeats) {
  for (int i = 0; i < repeats; ++i) {
    co_await Delay(delay);
    log.push_back(sim.Now());
  }
}

TEST(SimulationTest, TimeAdvancesWithDelays) {
  Simulation sim;
  std::vector<double> log;
  sim.Spawn(Recorder(sim, log, 2.5, 3));
  sim.Run();
  ASSERT_EQ(log.size(), 3u);
  EXPECT_DOUBLE_EQ(log[0], 2.5);
  EXPECT_DOUBLE_EQ(log[1], 5.0);
  EXPECT_DOUBLE_EQ(log[2], 7.5);
  EXPECT_EQ(sim.live_processes(), 0);
}

TEST(SimulationTest, CallbacksRunAtScheduledTime) {
  Simulation sim;
  std::vector<double> times;
  sim.ScheduleCallback(5.0, [&] { times.push_back(sim.Now()); });
  sim.ScheduleCallback(1.0, [&] { times.push_back(sim.Now()); });
  sim.Run();
  ASSERT_EQ(times.size(), 2u);
  EXPECT_DOUBLE_EQ(times[0], 1.0);
  EXPECT_DOUBLE_EQ(times[1], 5.0);
}

TEST(SimulationTest, FifoTieBreakAtEqualTimes) {
  Simulation sim;
  std::vector<int> order;
  for (int i = 0; i < 10; ++i) {
    sim.ScheduleCallback(3.0, [&order, i] { order.push_back(i); });
  }
  sim.Run();
  for (int i = 0; i < 10; ++i) {
    EXPECT_EQ(order[static_cast<size_t>(i)], i);
  }
}

TEST(SimulationTest, StepReturnsFalseWhenEmpty) {
  Simulation sim;
  EXPECT_FALSE(sim.Step());
  sim.ScheduleCallback(0, [] {});
  EXPECT_TRUE(sim.Step());
  EXPECT_FALSE(sim.Step());
  EXPECT_EQ(sim.events_processed(), 1u);
}

TEST(SimulationTest, RunUntilStopsAtDeadline) {
  Simulation sim;
  std::vector<double> log;
  sim.Spawn(Recorder(sim, log, 10.0, 5));
  sim.RunUntil(25.0);
  EXPECT_EQ(log.size(), 2u);  // t=10, t=20 ran; t=30 pending.
  EXPECT_DOUBLE_EQ(sim.Now(), 25.0);
  sim.Run();
  EXPECT_EQ(log.size(), 5u);
}

Process SignalConsumer(Simulation& sim, Signal& signal, int& count, int until) {
  while (count < until) {
    co_await signal.Wait();
    ++count;
  }
  (void)sim;
}

Process SignalProducer(Simulation& /*sim*/, Signal& signal, int pulses) {
  for (int i = 0; i < pulses; ++i) {
    co_await Delay(1.0);
    signal.Fire();
  }
}

TEST(SignalTest, PulsesWakeCurrentWaitersOnly) {
  Simulation sim;
  Signal signal(&sim);
  int count = 0;
  sim.Spawn(SignalConsumer(sim, signal, count, 3));
  sim.Spawn(SignalProducer(sim, signal, 5));
  sim.Run();
  EXPECT_EQ(count, 3);
  EXPECT_EQ(sim.live_processes(), 0);
}

TEST(SignalTest, FireWithNoWaitersIsLost) {
  Simulation sim;
  Signal signal(&sim);
  signal.Fire();  // No one listening: no effect, no crash.
  EXPECT_EQ(signal.NumWaiters(), 0u);
}

Process SignalWaiter(Simulation& sim, Signal& signal, std::vector<std::string>& log,
                     std::string name) {
  co_await signal.Wait();
  log.push_back(name + "@" + std::to_string(sim.Now()));
}

Process Firer(Simulation& /*sim*/, Signal& signal, double at) {
  co_await Delay(at);
  signal.Fire();
}

TEST(SignalTest, PulseWakesWaitersInArrivalOrder) {
  Simulation sim;
  Signal signal(&sim);
  std::vector<std::string> log;
  sim.Spawn(SignalWaiter(sim, signal, log, "a"));
  sim.Spawn(SignalWaiter(sim, signal, log, "b"));
  sim.Spawn(SignalWaiter(sim, signal, log, "c"));
  sim.Spawn(Firer(sim, signal, 2.0));
  sim.Run();
  ASSERT_EQ(log.size(), 3u);
  EXPECT_EQ(log[0], "a@2.000000");
  EXPECT_EQ(log[1], "b@2.000000");
  EXPECT_EQ(log[2], "c@2.000000");
  EXPECT_EQ(signal.NumWaiters(), 0u);
}

Process BlockForever(Simulation& /*sim*/, Signal& never) { co_await never.Wait(); }

TEST(SimulationTest, DestructionReclaimsBlockedProcesses) {
  // A process blocked on a signal that never fires must not leak or crash
  // when the simulation is destroyed (ASan-clean under the sanitizer job).
  auto sim = std::make_unique<Simulation>();
  Signal never(sim.get());
  sim->Spawn(BlockForever(*sim, never));
  sim->Run();
  EXPECT_EQ(sim->live_processes(), 1);
  sim.reset();  // Must destroy the suspended frame.
}

TEST(SimulationTest, RunUntilBoundaryInclusive) {
  Simulation sim;
  int fired = 0;
  sim.ScheduleCallback(5.0, [&] { ++fired; });
  sim.ScheduleCallback(5.0 + 1e-9, [&] { ++fired; });
  sim.RunUntil(5.0);
  EXPECT_EQ(fired, 1);  // Exactly-at-deadline events run; later ones wait.
  sim.Run();
  EXPECT_EQ(fired, 2);
}

Process Spawner(Simulation& sim, int depth, int& leaves) {
  if (depth == 0) {
    ++leaves;
    co_return;
  }
  co_await Delay(1.0);
  sim.Spawn(Spawner(sim, depth - 1, leaves));
  sim.Spawn(Spawner(sim, depth - 1, leaves));
}

TEST(SimulationTest, ProcessesSpawningProcesses) {
  Simulation sim;
  int leaves = 0;
  sim.Spawn(Spawner(sim, 6, leaves));
  sim.Run();
  EXPECT_EQ(leaves, 64);
  EXPECT_EQ(sim.live_processes(), 0);
}

Process PushAfterZeroDelay(Simulation& /*sim*/, std::vector<int>& log, int value) {
  co_await Delay(0.0);
  log.push_back(value);
}

TEST(SimulationTest, ZeroDelayYieldsToPeersAtSameTime) {
  Simulation sim;
  std::vector<int> order;
  sim.ScheduleCallback(0.0, [&] { order.push_back(1); });
  sim.Spawn(PushAfterZeroDelay(sim, order, 2));
  sim.ScheduleCallback(0.0, [&] { order.push_back(3); });
  sim.Run();
  // The process body starts after the first callback (spawn order), and its
  // zero-delay resume lands after callback 3.
  ASSERT_EQ(order.size(), 3u);
  EXPECT_EQ(order[0], 1);
  EXPECT_EQ(order[1], 3);
  EXPECT_EQ(order[2], 2);
}

TEST(SimulationTest, DeterministicEventCounts) {
  auto run_once = [] {
    Simulation sim;
    std::vector<double> log;
    sim.Spawn(Recorder(sim, log, 1.0, 50));
    sim.Spawn(Recorder(sim, log, 0.7, 50));
    sim.Run();
    return sim.events_processed();
  };
  EXPECT_EQ(run_once(), run_once());
}


// Tick series: one awaitable for "an optional lead, then `count` steps of
// `step`". The randomized equivalence with Delay loops lives in
// sim_calendar_test.cc; these pin the per-event contract directly.

using TickLog = std::vector<std::tuple<double, uint64_t, int>>;

Process TickUser(Simulation& sim, TickLog& log, double lead, int count) {
  log.emplace_back(sim.Now(), sim.events_processed(), -1);
  co_await Ticks(lead, 1.0, count,
                 [&sim, &log](int i) { log.emplace_back(sim.Now(), sim.events_processed(), i); });
  log.emplace_back(sim.Now(), sim.events_processed(), 99);
}

TEST(TickSeriesTest, StepDispatchesOneTickPerCallAndResumesOnTheLast) {
  // Outside the run loop nothing runs in place: every Step() is one event,
  // the lead tick included, and the last tick's event also resumes the
  // process, at that tick's time and event count.
  Simulation sim;
  TickLog log;
  sim.Spawn(TickUser(sim, log, 2.0, 3));
  std::vector<size_t> depths;
  while (sim.Step()) {
    depths.push_back(sim.CalendarDepth());
  }
  const TickLog expected = {
      {0.0, 1, -1}, {3.0, 3, 0}, {4.0, 4, 1}, {5.0, 5, 2}, {5.0, 5, 99},
  };
  EXPECT_EQ(log, expected);
  EXPECT_EQ(depths, (std::vector<size_t>{1, 1, 1, 1, 0}));
  EXPECT_EQ(sim.events_processed(), 5u);
  EXPECT_EQ(sim.live_processes(), 0);
}

TEST(TickSeriesTest, LeadTickCountsOneEventAndRunsNoCallback) {
  // A zero lead starts with block tick 0 one step out; a positive lead is
  // one extra event with no callback, as the `if (lead > 0) co_await
  // Delay(lead)` it replaces.
  for (double lead : {0.0, 1.5}) {
    SCOPED_TRACE("lead=" + std::to_string(lead));
    Simulation sim;
    TickLog log;
    sim.Spawn(TickUser(sim, log, lead, 4));
    sim.Run();
    const uint64_t lead_events = lead > 0 ? 1 : 0;
    ASSERT_EQ(log.size(), 6u);
    for (int i = 0; i < 4; ++i) {
      const auto& [time, events, tag] = log[static_cast<size_t>(i) + 1];
      EXPECT_EQ(tag, i);
      EXPECT_DOUBLE_EQ(time, lead + 1.0 + i);
      EXPECT_EQ(events, 2 + lead_events + static_cast<uint64_t>(i));
    }
    EXPECT_EQ(sim.events_processed(), 5 + lead_events);
  }
}

Process HoldsTokenInTicks(const std::shared_ptr<int>& token, int& ticks) {
  // Named, not a temporary in the co_await operand: see the note on Ticks.
  auto series = Ticks(0.0, 1.0, 5, [token, &ticks](int) { ++ticks; });
  co_await series;
}

TEST(TickSeriesTest, DestroyingTheSimulationReclaimsAPendingSeries) {
  // The series lives in the suspended frame; a Simulation stopped
  // mid-series must destroy it, callback captures included, and never
  // touch the dangling tick head (ASan-clean under the sanitizer job).
  auto token = std::make_shared<int>(7);
  int ticks = 0;
  auto sim = std::make_unique<Simulation>();
  sim->Spawn(HoldsTokenInTicks(token, ticks));
  sim->RunUntil(2.5);
  EXPECT_EQ(ticks, 2);
  EXPECT_EQ(sim->CalendarDepth(), 1u);  // The tick due at 3.0.
  EXPECT_EQ(sim->live_processes(), 1);
  EXPECT_EQ(token.use_count(), 2);
  sim.reset();
  EXPECT_EQ(token.use_count(), 1);
}

}  // namespace
}  // namespace emsim::sim

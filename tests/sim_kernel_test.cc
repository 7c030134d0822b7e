#include <cstddef>
#include <memory>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "sim/event.h"
#include "sim/process.h"
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

Process Waiter(Simulation& sim, Event& event, std::vector<std::string>& log,
               std::string name) {
  co_await event.Wait();
  log.push_back(name + "@" + std::to_string(sim.Now()));
}

Process Setter(Simulation& /*sim*/, Event& event, double at) {
  co_await Delay(at);
  event.Set();
}

TEST(EventTest, LatchReleasesAllWaiters) {
  Simulation sim;
  Event event(&sim);
  std::vector<std::string> log;
  sim.Spawn(Waiter(sim, event, log, "a"));
  sim.Spawn(Waiter(sim, event, log, "b"));
  sim.Spawn(Setter(sim, event, 4.0));
  sim.Run();
  ASSERT_EQ(log.size(), 2u);
  EXPECT_EQ(log[0], "a@4.000000");
  EXPECT_EQ(log[1], "b@4.000000");
  EXPECT_TRUE(event.IsSet());
}

TEST(EventTest, WaitOnSetEventIsImmediate) {
  Simulation sim;
  Event event(&sim);
  event.Set();
  std::vector<std::string> log;
  sim.Spawn(Waiter(sim, event, log, "x"));
  sim.Run();
  ASSERT_EQ(log.size(), 1u);
  EXPECT_EQ(log[0], "x@0.000000");
}

TEST(EventTest, SetIsIdempotentAndResetRearms) {
  Simulation sim;
  Event event(&sim);
  event.Set();
  event.Set();
  EXPECT_TRUE(event.IsSet());
  event.Reset();
  EXPECT_FALSE(event.IsSet());
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

// A pulse and a latch wake their one waiter through the same calendar
// entries, so a model may swap one for the other without moving any event.
TEST(SignalTest, PulseAndLatchWakeOneWaiterAtTheSameEventCost) {
  Simulation pulsed;
  Signal signal(&pulsed);
  std::vector<std::string> pulse_log;
  pulsed.Spawn(SignalWaiter(pulsed, signal, pulse_log, "w"));
  pulsed.Spawn(Firer(pulsed, signal, 3.0));
  pulsed.Run();

  Simulation latched;
  Event event(&latched);
  std::vector<std::string> latch_log;
  latched.Spawn(Waiter(latched, event, latch_log, "w"));
  latched.Spawn(Setter(latched, event, 3.0));
  latched.Run();

  EXPECT_EQ(pulse_log, latch_log);
  EXPECT_EQ(pulsed.events_processed(), latched.events_processed());
}

Process BlockForever(Simulation& /*sim*/, Event& never) { co_await never.Wait(); }

TEST(SimulationTest, DestructionReclaimsBlockedProcesses) {
  // A process blocked on an event that never fires must not leak or crash
  // when the simulation is destroyed (ASan-clean under the sanitizer job).
  auto sim = std::make_unique<Simulation>();
  Event never(sim.get());
  sim->Spawn(BlockForever(*sim, never));
  sim->Run();
  EXPECT_EQ(sim->live_processes(), 1);
  sim.reset();  // Must destroy the suspended frame.
}

Process ReusesLatch(Simulation& /*sim*/, Event& event, int& rounds) {
  co_await event.Wait();
  ++rounds;
  event.Reset();
  co_await event.Wait();
  ++rounds;
}

TEST(EventTest, ResetEnablesReuseAcrossRounds) {
  Simulation sim;
  Event event(&sim);
  int rounds = 0;
  sim.Spawn(ReusesLatch(sim, event, rounds));
  sim.ScheduleCallback(1.0, [&] { event.Set(); });
  sim.ScheduleCallback(2.0, [&] { event.Set(); });
  sim.Run();
  EXPECT_EQ(rounds, 2);
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

}  // namespace
}  // namespace emsim::sim

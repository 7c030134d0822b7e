#include <cstdint>

#include <gtest/gtest.h>

#include "cache/block_cache.h"
#include "sim/process.h"
#include "sim/simulation.h"

namespace emsim::cache {
namespace {

BlockCache MakeCache(sim::Simulation* sim, int64_t capacity, int runs) {
  return BlockCache(sim, BlockCache::Options{capacity, runs});
}

TEST(BlockCacheTest, StartsEmpty) {
  sim::Simulation sim;
  BlockCache cache = MakeCache(&sim, 10, 3);
  EXPECT_EQ(cache.capacity(), 10);
  EXPECT_EQ(cache.CachedBlocks(), 0);
  EXPECT_EQ(cache.ReservedBlocks(), 0);
  EXPECT_EQ(cache.FreeBlocks(), 10);
  EXPECT_FALSE(cache.HasLeadingBlock(0));
  cache.CheckInvariants();
}

TEST(BlockCacheTest, ReserveDepositConsumeCycle) {
  sim::Simulation sim;
  BlockCache cache = MakeCache(&sim, 10, 2);
  ASSERT_TRUE(cache.TryReserve(0, 3));
  EXPECT_EQ(cache.ReservedBlocks(), 3);
  EXPECT_EQ(cache.FreeBlocks(), 7);
  EXPECT_EQ(cache.InFlightForRun(0), 3);

  cache.Deposit(0, 0);
  cache.Deposit(0, 1);
  EXPECT_EQ(cache.CachedBlocks(), 2);
  EXPECT_EQ(cache.ReservedBlocks(), 1);
  EXPECT_TRUE(cache.HasLeadingBlock(0));
  EXPECT_EQ(cache.CachedForRun(0), 2);

  EXPECT_EQ(cache.ConsumeLeading(0), 0);
  EXPECT_EQ(cache.ConsumeLeading(0), 1);
  EXPECT_EQ(cache.CachedBlocks(), 0);
  EXPECT_EQ(cache.FreeBlocks(), 9);  // One frame still reserved.
  EXPECT_EQ(cache.NextConsumeOffset(0), 2);
  cache.CheckInvariants();
}

TEST(BlockCacheTest, ReserveDeniedWhenFull) {
  sim::Simulation sim;
  BlockCache cache = MakeCache(&sim, 5, 2);
  EXPECT_TRUE(cache.TryReserve(0, 5));
  EXPECT_FALSE(cache.TryReserve(1, 1));
  EXPECT_EQ(cache.stats().reservations_denied, 1u);
  // A denial reserves nothing.
  EXPECT_EQ(cache.InFlightForRun(1), 0);
  cache.CheckInvariants();
}

TEST(BlockCacheTest, ReserveAllOrNothing) {
  sim::Simulation sim;
  BlockCache cache = MakeCache(&sim, 5, 2);
  EXPECT_TRUE(cache.TryReserve(0, 3));
  EXPECT_FALSE(cache.TryReserve(1, 3));  // Only 2 free.
  EXPECT_EQ(cache.FreeBlocks(), 2);
  EXPECT_TRUE(cache.TryReserve(1, 2));
  EXPECT_EQ(cache.FreeBlocks(), 0);
}

TEST(BlockCacheTest, CancelReservationFreesFrames) {
  sim::Simulation sim;
  BlockCache cache = MakeCache(&sim, 5, 1);
  ASSERT_TRUE(cache.TryReserve(0, 4));
  cache.CancelReservation(0, 3);
  EXPECT_EQ(cache.FreeBlocks(), 4);
  EXPECT_EQ(cache.InFlightForRun(0), 1);
  cache.CheckInvariants();
}

TEST(BlockCacheTest, ZeroReserveAlwaysSucceeds) {
  sim::Simulation sim;
  BlockCache cache = MakeCache(&sim, 1, 1);
  ASSERT_TRUE(cache.TryReserve(0, 1));
  EXPECT_TRUE(cache.TryReserve(0, 0));
}

TEST(BlockCacheTest, OutOfOrderDepositsBufferUntilLeading) {
  // SSTF scheduling can deliver a later request first.
  sim::Simulation sim;
  BlockCache cache = MakeCache(&sim, 10, 1);
  ASSERT_TRUE(cache.TryReserve(0, 4));
  cache.Deposit(0, 2);
  cache.Deposit(0, 3);
  EXPECT_FALSE(cache.HasLeadingBlock(0));  // Block 0 missing.
  EXPECT_EQ(cache.CachedForRun(0), 2);
  cache.Deposit(0, 0);
  EXPECT_TRUE(cache.HasLeadingBlock(0));
  EXPECT_EQ(cache.ConsumeLeading(0), 0);
  EXPECT_FALSE(cache.HasLeadingBlock(0));  // Block 1 still in flight.
  cache.Deposit(0, 1);
  EXPECT_EQ(cache.ConsumeLeading(0), 1);
  EXPECT_EQ(cache.ConsumeLeading(0), 2);
  EXPECT_EQ(cache.ConsumeLeading(0), 3);
  cache.CheckInvariants();
}

TEST(BlockCacheTest, OutOfOrderDepositAcrossRingWrap) {
  // A run's offsets live in a ring of 8 slots at first. Move its head to
  // slot 6, so the next deposits wrap, then deliver one out of order: the
  // shift that makes room for it must carry offsets back across the wrap.
  sim::Simulation sim;
  BlockCache cache = MakeCache(&sim, 16, 1);
  ASSERT_TRUE(cache.TryReserve(0, 6));
  for (int64_t offset = 0; offset < 6; ++offset) {
    cache.Deposit(0, offset);
    EXPECT_EQ(cache.ConsumeLeading(0), offset);
  }
  ASSERT_TRUE(cache.TryReserve(0, 5));
  for (int64_t offset : {6, 7, 9, 10}) {  // Slots 6, 7, 0, 1.
    cache.Deposit(0, offset);
  }
  cache.Deposit(0, 8);
  cache.CheckInvariants();
  for (int64_t offset = 6; offset <= 10; ++offset) {
    ASSERT_TRUE(cache.HasLeadingBlock(0));
    EXPECT_EQ(cache.ConsumeLeading(0), offset);
  }

  // Head at slot 3: fill the ring so it wraps, again out of order, then
  // overflow it so it grows while wrapped.
  ASSERT_TRUE(cache.TryReserve(0, 9));
  for (int64_t offset = 12; offset <= 18; ++offset) {
    cache.Deposit(0, offset);
  }
  cache.Deposit(0, 11);
  EXPECT_EQ(cache.CachedForRun(0), 8);
  cache.Deposit(0, 19);
  cache.CheckInvariants();
  for (int64_t offset = 11; offset <= 19; ++offset) {
    ASSERT_TRUE(cache.HasLeadingBlock(0));
    EXPECT_EQ(cache.ConsumeLeading(0), offset);
  }
  EXPECT_EQ(cache.CachedBlocks(), 0);
  cache.CheckInvariants();
}

TEST(BlockCacheTest, PerRunIsolation) {
  sim::Simulation sim;
  BlockCache cache = MakeCache(&sim, 10, 3);
  ASSERT_TRUE(cache.TryReserve(0, 1));
  ASSERT_TRUE(cache.TryReserve(2, 1));
  cache.Deposit(2, 0);
  EXPECT_FALSE(cache.HasLeadingBlock(0));
  EXPECT_TRUE(cache.HasLeadingBlock(2));
  EXPECT_EQ(cache.InFlightForRun(0), 1);
  EXPECT_EQ(cache.InFlightForRun(2), 0);
}

sim::Process WaitForBlock(sim::Simulation& /*sim*/, BlockCache& cache, int run,
                          bool& done) {
  while (!cache.HasLeadingBlock(run)) {
    co_await cache.DepositSignal(run).Wait();
  }
  done = true;
}

TEST(BlockCacheTest, DepositSignalWakesWaiters) {
  sim::Simulation sim;
  BlockCache cache = MakeCache(&sim, 4, 2);
  bool done = false;
  sim.Spawn(WaitForBlock(sim, cache, 1, done));
  sim.ScheduleCallback(5.0, [&] {
    ASSERT_TRUE(cache.TryReserve(1, 1));
    cache.Deposit(1, 0);
  });
  sim.Run();
  EXPECT_TRUE(done);
  EXPECT_DOUBLE_EQ(sim.Now(), 5.0);
}

TEST(BlockCacheTest, StatsTrackFlows) {
  sim::Simulation sim;
  BlockCache cache = MakeCache(&sim, 8, 1);
  ASSERT_TRUE(cache.TryReserve(0, 2));
  cache.Deposit(0, 0);
  cache.Deposit(0, 1);
  cache.ConsumeLeading(0);
  const CacheStats& s = cache.stats();
  EXPECT_EQ(s.deposits, 2u);
  EXPECT_EQ(s.consumptions, 1u);
  EXPECT_EQ(s.reservations_granted, 1u);
  EXPECT_EQ(s.blocks_reserved, 2u);
  EXPECT_EQ(s.peak_occupancy, 2);
}

TEST(BlockCacheTest, OccupancyTimeAverage) {
  sim::Simulation sim;
  BlockCache cache = MakeCache(&sim, 4, 1);
  ASSERT_TRUE(cache.TryReserve(0, 2));
  sim.ScheduleCallback(0.0, [&] { cache.Deposit(0, 0); });
  sim.ScheduleCallback(10.0, [&] { cache.Deposit(0, 1); });
  sim.ScheduleCallback(20.0, [&] {
    cache.ConsumeLeading(0);
    cache.ConsumeLeading(0);
  });
  sim.Run();
  cache.FlushStats();
  // Occupancy: 1 on [0,10), 2 on [10,20), 0 at 20 -> average 1.5 over [0,20].
  EXPECT_NEAR(cache.MeanOccupancy(), 1.5, 1e-9);
}

TEST(BlockCacheDeathTest, DepositWithoutReservationAborts) {
  ::testing::FLAGS_gtest_death_test_style = "threadsafe";
  sim::Simulation sim;
  BlockCache cache = MakeCache(&sim, 4, 1);
  EXPECT_DEATH(cache.Deposit(0, 0), "Deposit without reservation");
}

TEST(BlockCacheDeathTest, ConsumeMissingLeadingAborts) {
  ::testing::FLAGS_gtest_death_test_style = "threadsafe";
  sim::Simulation sim;
  BlockCache cache = MakeCache(&sim, 4, 1);
  EXPECT_DEATH(cache.ConsumeLeading(0), "HasLeadingBlock");
}

TEST(BlockCacheDeathTest, StaleDepositAborts) {
  ::testing::FLAGS_gtest_death_test_style = "threadsafe";
  sim::Simulation sim;
  BlockCache cache = MakeCache(&sim, 4, 1);
  ASSERT_TRUE(cache.TryReserve(0, 2));
  cache.Deposit(0, 0);
  cache.ConsumeLeading(0);
  EXPECT_DEATH(cache.Deposit(0, 0), "already-consumed");
}

}  // namespace
}  // namespace emsim::cache

#include <cstddef>
#include <cstdint>
#include <vector>

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

TEST(BlockCacheTest, EveryFrameInUseAcrossRunsOutOfOrder) {
  // Three runs fill all 12 frames, each delivered out of order: a block
  // lands beyond a gap, below the extent across a gap (moving the extent
  // onto frames), or next to the extent, and the gap fills last.
  sim::Simulation sim;
  BlockCache cache = MakeCache(&sim, 12, 3);
  const std::vector<std::vector<int64_t>> deposits = {
      {3, 1, 0, 2}, {0, 2, 1, 3}, {2, 3, 0, 1}};
  for (int run = 0; run < 3; ++run) {
    ASSERT_TRUE(cache.TryReserve(run, 4));
  }
  for (size_t i = 0; i < 4; ++i) {
    for (int run = 0; run < 3; ++run) {
      cache.Deposit(run, deposits[static_cast<size_t>(run)][i]);
      cache.CheckInvariants();
    }
  }
  EXPECT_EQ(cache.CachedBlocks(), 12);
  EXPECT_EQ(cache.FreeBlocks(), 0);
  EXPECT_FALSE(cache.TryReserve(0, 1));
  for (int run = 0; run < 3; ++run) {
    EXPECT_EQ(cache.CachedForRun(run), 4);
    for (int64_t offset = 0; offset < 4; ++offset) {
      ASSERT_TRUE(cache.HasLeadingBlock(run));
      EXPECT_EQ(cache.ConsumeLeading(run), offset);
      cache.CheckInvariants();
    }
  }
  EXPECT_EQ(cache.CachedBlocks(), 0);
  EXPECT_EQ(cache.FreeBlocks(), 12);
}

TEST(BlockCacheTest, RefillAfterDrainReusesFreedFrames) {
  // Fill every frame, drain them all, then fill every frame again with a
  // different split across runs: the second fill runs on freed frames only.
  sim::Simulation sim;
  BlockCache cache = MakeCache(&sim, 6, 2);
  ASSERT_TRUE(cache.TryReserve(0, 3));
  ASSERT_TRUE(cache.TryReserve(1, 3));
  for (int64_t offset : {0, 2, 1}) {
    cache.Deposit(0, offset);
    cache.Deposit(1, 2 - offset);
  }
  cache.CheckInvariants();
  for (int64_t offset = 0; offset < 3; ++offset) {
    EXPECT_EQ(cache.ConsumeLeading(0), offset);
    EXPECT_EQ(cache.ConsumeLeading(1), offset);
  }
  EXPECT_EQ(cache.CachedBlocks(), 0);
  cache.CheckInvariants();

  ASSERT_TRUE(cache.TryReserve(0, 1));
  ASSERT_TRUE(cache.TryReserve(1, 5));
  for (int64_t offset : {7, 4, 6, 3, 5}) {
    cache.Deposit(1, offset);
    cache.CheckInvariants();
  }
  EXPECT_FALSE(cache.HasLeadingBlock(0));
  cache.Deposit(0, 3);
  cache.CheckInvariants();
  EXPECT_EQ(cache.FreeBlocks(), 0);
  EXPECT_EQ(cache.CachedForRun(1), 5);
  EXPECT_EQ(cache.ConsumeLeading(0), 3);
  for (int64_t offset = 3; offset <= 7; ++offset) {
    ASSERT_TRUE(cache.HasLeadingBlock(1));
    EXPECT_EQ(cache.ConsumeLeading(1), offset);
  }
  cache.CheckInvariants();
}

TEST(BlockCacheTest, FramesReturnThroughTheFreeList) {
  // Each round takes three frames (4 and 2 move below the extent across a
  // gap, 3 lands beyond one) and frees them when 1 closes the gaps. Four
  // rounds take twelve frames from a budget of six.
  sim::Simulation sim;
  BlockCache cache = MakeCache(&sim, 6, 1);
  for (int64_t base = 0; base < 20; base += 5) {
    ASSERT_TRUE(cache.TryReserve(0, 5));
    for (int64_t step : {4, 2, 0, 3, 1}) {
      cache.Deposit(0, base + step);
      cache.CheckInvariants();
    }
    for (int64_t offset = base; offset < base + 5; ++offset) {
      ASSERT_TRUE(cache.HasLeadingBlock(0));
      EXPECT_EQ(cache.ConsumeLeading(0), offset);
    }
    cache.CheckInvariants();
  }
}

TEST(BlockCacheTest, OneRunHoldsEveryFrame) {
  // Run 1 takes all 8 frames, delivered last-first: each deposit grows the
  // extent downward, and the leading block arrives last.
  sim::Simulation sim;
  BlockCache cache = MakeCache(&sim, 8, 3);
  ASSERT_TRUE(cache.TryReserve(1, 8));
  EXPECT_FALSE(cache.TryReserve(0, 1));
  for (int64_t offset = 7; offset >= 0; --offset) {
    EXPECT_FALSE(cache.HasLeadingBlock(1));
    cache.Deposit(1, offset);
    cache.CheckInvariants();
  }
  EXPECT_EQ(cache.CachedForRun(1), 8);
  EXPECT_EQ(cache.CachedForRun(0), 0);
  EXPECT_EQ(cache.CachedForRun(2), 0);
  for (int64_t offset = 0; offset < 8; ++offset) {
    ASSERT_TRUE(cache.HasLeadingBlock(1));
    EXPECT_EQ(cache.ConsumeLeading(1), offset);
    cache.CheckInvariants();
  }
  EXPECT_EQ(cache.FreeBlocks(), 8);
}

TEST(BlockCacheTest, GapBelowExtentMovesItOntoFrames) {
  // Offsets 8 down to 2 form one extent; block 0 then arrives across a gap
  // at 1, so those seven blocks move onto frames and 0 starts the extent.
  // Consuming 0 empties the extent, which restarts from the frames, and the
  // late block 1 grows it downward.
  sim::Simulation sim;
  BlockCache cache = MakeCache(&sim, 8, 2);
  ASSERT_TRUE(cache.TryReserve(0, 8));
  for (int64_t offset = 8; offset >= 2; --offset) {
    cache.Deposit(0, offset);
  }
  cache.CheckInvariants();
  EXPECT_FALSE(cache.HasLeadingBlock(0));
  cache.Deposit(0, 0);
  cache.CheckInvariants();
  EXPECT_EQ(cache.CachedForRun(0), 8);
  EXPECT_EQ(cache.FreeBlocks(), 0);
  ASSERT_TRUE(cache.HasLeadingBlock(0));
  EXPECT_EQ(cache.ConsumeLeading(0), 0);
  cache.CheckInvariants();
  EXPECT_FALSE(cache.HasLeadingBlock(0));
  EXPECT_EQ(cache.CachedForRun(0), 7);
  ASSERT_TRUE(cache.TryReserve(0, 1));
  cache.Deposit(0, 1);
  cache.CheckInvariants();
  for (int64_t offset = 1; offset <= 8; ++offset) {
    ASSERT_TRUE(cache.HasLeadingBlock(0));
    EXPECT_EQ(cache.ConsumeLeading(0), offset);
    cache.CheckInvariants();
  }
  EXPECT_EQ(cache.CachedBlocks(), 0);
  EXPECT_EQ(cache.FreeBlocks(), 8);
}

TEST(BlockCacheTest, FewerBlocksThanCapacityNeedFewerFrames) {
  // Two runs of three blocks can never fill a 100-block cache; the cache
  // keeps one frame per block, and every one of them is used.
  sim::Simulation sim;
  BlockCache cache(&sim, BlockCache::Options{100, 2, nullptr, /*total_blocks=*/6});
  EXPECT_EQ(cache.capacity(), 100);
  ASSERT_TRUE(cache.TryReserve(0, 3));
  ASSERT_TRUE(cache.TryReserve(1, 3));
  for (int64_t offset : {2, 0, 1}) {
    cache.Deposit(0, offset);
    cache.Deposit(1, offset);
    cache.CheckInvariants();
  }
  for (int run = 0; run < 2; ++run) {
    for (int64_t offset = 0; offset < 3; ++offset) {
      EXPECT_EQ(cache.ConsumeLeading(run), offset);
    }
  }
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

TEST(BlockCacheDeathTest, DuplicateDepositAborts) {
  ::testing::FLAGS_gtest_death_test_style = "threadsafe";
  sim::Simulation sim;
  BlockCache cache = MakeCache(&sim, 8, 1);
  ASSERT_TRUE(cache.TryReserve(0, 4));
  cache.Deposit(0, 1);
  cache.Deposit(0, 3);  // Beyond the gap at 2, on a frame.
  EXPECT_DEATH(cache.Deposit(0, 1), "cached offset");
  EXPECT_DEATH(cache.Deposit(0, 3), "cached offset");
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

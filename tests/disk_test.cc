#include <algorithm>
#include <cmath>
#include <cstddef>
#include <cstdint>
#include <cstdlib>
#include <span>
#include <utility>
#include <vector>

#include <gtest/gtest.h>

#include "disk/array.h"
#include "disk/disk.h"
#include "disk/disk_params.h"
#include "disk/geometry.h"
#include "disk/layout.h"
#include "disk/mechanism.h"
#include "sim/process.h"
#include "sim/simulation.h"
#include "util/rng.h"
#include "util/status.h"
#include "util/str.h"

namespace emsim::disk {
namespace {

TEST(GeometryTest, PaperDerivedValues) {
  Geometry g;  // Defaults = the paper's drive.
  EXPECT_EQ(g.SectorsPerBlock(), 8);
  EXPECT_EQ(g.BlocksPerCylinder(), 104);
  EXPECT_EQ(g.TotalBlocks(), 104 * 625);
  EXPECT_EQ(g.CylinderOf(0), 0);
  EXPECT_EQ(g.CylinderOf(103), 0);
  EXPECT_EQ(g.CylinderOf(104), 1);
  EXPECT_TRUE(g.Validate().ok());
}

TEST(GeometryTest, ValidationCatchesBadShapes) {
  Geometry g;
  g.block_bytes = 4000;  // Not a sector multiple.
  EXPECT_FALSE(g.Validate().ok());
  g = Geometry{};
  g.heads = 0;
  EXPECT_FALSE(g.Validate().ok());
  g = Geometry{};
  g.block_bytes = 1 << 20;  // Bigger than a cylinder.
  EXPECT_FALSE(g.Validate().ok());
}

TEST(DiskParamsTest, PaperTimings) {
  DiskParams p = DiskParams::Paper();
  EXPECT_NEAR(p.TransferMsPerBlock(), 2.5641, 1e-4);
  EXPECT_NEAR(p.MeanRotationalLatencyMs(), 8.3333, 1e-4);
  EXPECT_DOUBLE_EQ(p.seek_ms_per_cylinder, 0.01);
  EXPECT_TRUE(p.Validate().ok());
}

TEST(DiskParamsTest, SeekIsLinearWithZeroAtNoMove) {
  DiskParams p;
  EXPECT_DOUBLE_EQ(p.SeekMs(0), 0.0);
  EXPECT_DOUBLE_EQ(p.SeekMs(100), 1.0);
  EXPECT_DOUBLE_EQ(p.SeekMs(-100), 1.0);
  p.seek_settle_ms = 0.5;
  EXPECT_DOUBLE_EQ(p.SeekMs(1), 0.51);
  EXPECT_DOUBLE_EQ(p.SeekMs(0), 0.0);  // Settle only applies when moving.
}

TEST(MechanismTest, FixedRotationCosts) {
  DiskParams p;
  p.rotation = RotationalLatencyModel::kFixedMean;
  Mechanism mech(p);
  Rng rng(1);
  AccessCost c = mech.Access(0, 1, rng);
  EXPECT_DOUBLE_EQ(c.seek_ms, 0.0);  // Head starts at cylinder 0.
  EXPECT_NEAR(c.rotation_ms, 8.3333, 1e-4);
  EXPECT_NEAR(c.transfer_ms, 2.5641, 1e-4);

  // Move to cylinder 10 (block 1040): 10 cylinders of seek.
  c = mech.Access(1040, 4, rng);
  EXPECT_EQ(c.seek_cylinders, 10);
  EXPECT_NEAR(c.seek_ms, 0.1, 1e-9);
  EXPECT_NEAR(c.transfer_ms, 4 * 2.5641, 1e-3);
  EXPECT_EQ(mech.current_cylinder(), 10);
}

TEST(MechanismTest, UniformRotationHasMeanR) {
  DiskParams p;
  p.rotation = RotationalLatencyModel::kUniform;
  Mechanism mech(p);
  Rng rng(7);
  double sum = 0;
  const int n = 20000;
  for (int i = 0; i < n; ++i) {
    AccessCost c = mech.Access(0, 1, rng);
    EXPECT_GE(c.rotation_ms, 0.0);
    EXPECT_LT(c.rotation_ms, p.revolution_ms);
    sum += c.rotation_ms;
  }
  EXPECT_NEAR(sum / n, p.MeanRotationalLatencyMs(), 0.1);
}

TEST(MechanismTest, SequentialOptimizationSkipsPositioning) {
  DiskParams p;
  p.sequential_optimization = true;
  p.rotation = RotationalLatencyModel::kFixedMean;
  Mechanism mech(p);
  Rng rng(1);
  mech.Access(0, 10, rng);
  AccessCost c = mech.Access(10, 5, rng);  // Continues where we stopped.
  EXPECT_TRUE(c.sequential);
  EXPECT_DOUBLE_EQ(c.PositioningMs(), 0.0);
  // A gap breaks sequentiality.
  c = mech.Access(30, 1, rng);
  EXPECT_FALSE(c.sequential);
  EXPECT_GT(c.rotation_ms, 0.0);
}

TEST(MechanismTest, PaperModelChargesRotationEvenWithoutSeek) {
  DiskParams p;  // sequential_optimization off by default (the paper's model).
  p.rotation = RotationalLatencyModel::kFixedMean;
  Mechanism mech(p);
  Rng rng(1);
  mech.Access(0, 10, rng);
  AccessCost c = mech.Access(10, 5, rng);
  EXPECT_FALSE(c.sequential);
  EXPECT_EQ(c.seek_cylinders, 0);
  EXPECT_NEAR(c.rotation_ms, 8.3333, 1e-4);
}

TEST(MechanismTest, BlockAngles) {
  DiskParams p;
  Mechanism mech(p);
  EXPECT_DOUBLE_EQ(mech.BlockAngle(0), 0.0);
  EXPECT_DOUBLE_EQ(mech.BlockAngle(1), 8.0 / 52);
  EXPECT_DOUBLE_EQ(mech.BlockAngle(6), 48.0 / 52);
  EXPECT_DOUBLE_EQ(mech.BlockAngle(7), 4.0 / 52);     // Wraps the track.
  EXPECT_DOUBLE_EQ(mech.BlockAngle(104), 0.0);        // Next cylinder restarts.
}

TEST(MechanismTest, AngularModelSequentialIsFree) {
  DiskParams p;
  p.rotation = RotationalLatencyModel::kAngular;
  Mechanism mech(p);
  Rng rng(1);
  double t = p.TransferMsPerBlock();
  AccessCost first = mech.Access(0, 2, rng, /*now_ms=*/0.0);
  EXPECT_DOUBLE_EQ(first.rotation_ms, 0.0);  // Sector 0 is under the head at t=0.
  // The platter has rotated exactly past blocks 0 and 1; block 2 starts now.
  AccessCost second = mech.Access(2, 1, rng, /*now_ms=*/2 * t);
  EXPECT_NEAR(second.rotation_ms, 0.0, 1e-9);
}

TEST(MechanismTest, AngularModelRereadWaitsFullRevolution) {
  DiskParams p;
  p.rotation = RotationalLatencyModel::kAngular;
  Mechanism mech(p);
  Rng rng(1);
  double t = p.TransferMsPerBlock();
  mech.Access(0, 1, rng, 0.0);
  AccessCost again = mech.Access(0, 1, rng, /*now_ms=*/t);
  EXPECT_NEAR(again.rotation_ms, p.revolution_ms - t, 1e-9);
}

TEST(MechanismTest, AngularModelMeanNearHalfRevolutionForRandomArrivals) {
  DiskParams p;
  p.rotation = RotationalLatencyModel::kAngular;
  Mechanism mech(p);
  Rng rng(5);
  double sum = 0;
  const int n = 20000;
  for (int i = 0; i < n; ++i) {
    double now = rng.UniformDouble(0, 1000.0);
    int64_t block = static_cast<int64_t>(rng.UniformInt(60000));
    AccessCost c = mech.Access(block, 1, rng, now);
    EXPECT_GE(c.rotation_ms, 0.0);
    EXPECT_LT(c.rotation_ms, p.revolution_ms);
    sum += c.rotation_ms;
  }
  EXPECT_NEAR(sum / n, p.MeanRotationalLatencyMs(), 0.2);
}

TEST(MechanismTest, SeekDistanceQuery) {
  DiskParams p;
  Mechanism mech(p);
  Rng rng(1);
  EXPECT_EQ(mech.SeekDistanceTo(104 * 20), 20);
  mech.Access(104 * 20, 1, rng);
  EXPECT_EQ(mech.SeekDistanceTo(104 * 15), 5);
}

// The mechanism caches blocks per cylinder and the per-block transfer time
// at construction; every price, angle and head position must equal the one
// derived from the geometry on each access, under both the fixed-mean and
// the angular rotation model.
TEST(MechanismTest, CachedGeometryMatchesGeometryOnEveryAccess) {
  Geometry paper;                                // 104 blocks/cylinder, 8 sectors/block.
  Geometry small_blocks{4, 24, 300, 512, 2048};  // 24 blocks/cylinder, 4 sectors/block.
  Geometry odd_cylinder{3, 35, 400, 512, 1024};  // 52 blocks/cylinder, 2 sectors/block.
  Geometry one_sector{2, 17, 500, 512, 512};     // 34 blocks/cylinder, 1 sector/block.
  for (const Geometry& g : {paper, small_blocks, odd_cylinder, one_sector}) {
    for (RotationalLatencyModel rotation :
         {RotationalLatencyModel::kFixedMean, RotationalLatencyModel::kAngular}) {
      SCOPED_TRACE(g.ToString());
      SCOPED_TRACE(rotation == RotationalLatencyModel::kAngular ? "angular" : "fixed mean");
      DiskParams p;
      p.geometry = g;
      p.rotation = rotation;
      ASSERT_TRUE(p.Validate().ok());
      Mechanism mech(p);
      EXPECT_EQ(mech.transfer_ms_per_block(), p.TransferMsPerBlock());
      // Runs of 1000 blocks, which no blocks-per-cylinder above divides:
      // accesses start at run boundaries, straddle cylinder boundaries, and
      // land anywhere on the disk.
      const int64_t bpc = g.BlocksPerCylinder();
      std::vector<std::pair<int64_t, int>> accesses = {
          {0, 1}, {1000, 3}, {bpc - 1, 2}, {2000 - 1, 4}, {3 * bpc, bpc}, {0, 1}};
      Rng picks(11);
      for (int i = 0; i < 200; ++i) {
        int n = 1 + static_cast<int>(picks.UniformInt(12));
        const auto last_start = static_cast<uint64_t>(g.TotalBlocks() - n);
        accesses.emplace_back(static_cast<int64_t>(picks.UniformInt(last_start)), n);
      }
      Rng rng(1);
      int64_t cylinder = 0;
      double now_ms = 0.0;
      for (const auto& [start, n] : accesses) {
        const int64_t distance = std::llabs(g.CylinderOf(start) - cylinder);
        EXPECT_EQ(mech.SeekDistanceTo(start), distance);
        const double angle =
            static_cast<double>((start % bpc) * g.SectorsPerBlock() % g.sectors_per_track) /
            g.sectors_per_track;
        EXPECT_DOUBLE_EQ(mech.BlockAngle(start), angle);
        AccessCost c = mech.Access(start, n, rng, now_ms);
        EXPECT_EQ(c.seek_cylinders, distance);
        EXPECT_EQ(c.seek_ms, p.SeekMs(distance));
        if (rotation == RotationalLatencyModel::kAngular) {
          double wait = angle - std::fmod(now_ms + c.seek_ms, p.revolution_ms) / p.revolution_ms;
          if (wait < 0) {
            wait += 1.0;
          }
          EXPECT_DOUBLE_EQ(c.rotation_ms, wait * p.revolution_ms);
        } else {
          EXPECT_EQ(c.rotation_ms, p.MeanRotationalLatencyMs());
        }
        EXPECT_EQ(c.transfer_ms, p.TransferMsPerBlock() * n);
        cylinder = g.CylinderOf(start + n - 1);
        EXPECT_EQ(mech.current_cylinder(), cylinder);
        now_ms += c.seek_ms + c.rotation_ms + c.transfer_ms;
      }
    }
  }
}

TEST(RunLayoutTest, RoundRobinPlacement) {
  RunLayout::Options opt;
  opt.num_runs = 25;
  opt.num_disks = 5;
  opt.blocks_per_run = 1000;
  EXPECT_TRUE(RunLayout::Validate(opt).ok());
  RunLayout layout(opt);
  EXPECT_EQ(layout.DiskOf(0), 0);
  EXPECT_EQ(layout.DiskOf(7), 2);
  EXPECT_EQ(layout.RunsOf(2)[1], 7);  // Second run on disk 2.
  EXPECT_EQ(layout.RunsOnDisk(0), 5);
  EXPECT_EQ(layout.LocalBlock(7, 3), 1003);
  EXPECT_EQ(layout.CylinderOf(0, 0), 0);
  EXPECT_EQ(layout.CylinderOf(5, 0), 1000 / 104);  // Second run on disk 0.
  EXPECT_NEAR(layout.RunLengthCylinders(), 9.6154, 1e-4);
  EXPECT_EQ(layout.TotalBlocks(), 25000);
}

TEST(RunLayoutTest, BlockedPlacement) {
  RunLayout::Options opt;
  opt.num_runs = 10;
  opt.num_disks = 2;
  opt.blocks_per_run = 100;
  opt.placement = RunPlacement::kBlocked;
  RunLayout layout(opt);
  EXPECT_EQ(layout.DiskOf(0), 0);
  EXPECT_EQ(layout.DiskOf(4), 0);
  EXPECT_EQ(layout.DiskOf(5), 1);
  EXPECT_EQ(layout.RunsOf(1).front(), 5);  // First run on disk 1.
  EXPECT_EQ(layout.RunsOnDisk(1), 5);
}

TEST(RunLayoutTest, UnevenRunsPerDisk) {
  RunLayout::Options opt;
  opt.num_runs = 7;
  opt.num_disks = 3;
  opt.blocks_per_run = 10;
  RunLayout layout(opt);
  EXPECT_EQ(layout.RunsOnDisk(0), 3);  // Runs 0, 3, 6.
  EXPECT_EQ(layout.RunsOnDisk(1), 2);
  EXPECT_EQ(layout.RunsOnDisk(2), 2);
  int total = 0;
  for (int d = 0; d < 3; ++d) {
    total += layout.RunsOnDisk(d);
  }
  EXPECT_EQ(total, 7);
}

TEST(RunLayoutTest, VariableLengthRuns) {
  RunLayout::Options opt;
  opt.num_runs = 4;
  opt.num_disks = 2;
  opt.blocks_per_run = 100;  // Ignored given run_blocks.
  opt.run_blocks = {10, 20, 30, 40};
  RunLayout layout(opt);
  EXPECT_EQ(layout.TotalBlocks(), 100);
  EXPECT_EQ(layout.RunBlocks(2), 30);
  // Disk 0 holds runs 0 and 2: run 2 starts after run 0's 10 blocks.
  EXPECT_EQ(layout.LocalBlock(0, 0), 0);
  EXPECT_EQ(layout.LocalBlock(2, 0), 10);
  EXPECT_EQ(layout.LocalBlock(2, 29), 39);
  // Disk 1 holds runs 1 and 3.
  EXPECT_EQ(layout.LocalBlock(1, 0), 0);
  EXPECT_EQ(layout.LocalBlock(3, 5), 25);
}

TEST(RunLayoutTest, UnequalRunsStartAfterTheirDiskPredecessors) {
  RunLayout::Options opt;
  opt.num_runs = 7;
  opt.num_disks = 3;
  opt.blocks_per_run = 100;  // Ignored given run_blocks.
  opt.run_blocks = {5, 11, 17, 23, 29, 31, 37};
  for (RunPlacement placement : {RunPlacement::kRoundRobin, RunPlacement::kBlocked}) {
    opt.placement = placement;
    RunLayout layout(opt);
    // Each disk packs its runs back to back in increasing run order.
    for (int d = 0; d < 3; ++d) {
      int64_t next = 0;
      int prev = -1;
      for (int r : layout.RunsOf(d)) {
        EXPECT_GT(r, prev);
        prev = r;
        EXPECT_EQ(layout.DiskOf(r), d);
        EXPECT_EQ(layout.LocalBlock(r, 0), next) << "run " << r;
        EXPECT_EQ(layout.LocalBlock(r, layout.RunBlocks(r) - 1), next + layout.RunBlocks(r) - 1);
        next += layout.RunBlocks(r);
      }
    }
  }
  // Pinned values. Round-robin: disk 0 = {0, 3, 6}, disk 1 = {1, 4},
  // disk 2 = {2, 5}.
  opt.placement = RunPlacement::kRoundRobin;
  RunLayout rr(opt);
  std::span<const int> rr_disk0 = rr.RunsOf(0);
  EXPECT_EQ(std::vector<int>(rr_disk0.begin(), rr_disk0.end()), (std::vector<int>{0, 3, 6}));
  EXPECT_EQ(rr.LocalBlock(3, 0), 5);
  EXPECT_EQ(rr.LocalBlock(6, 2), 5 + 23 + 2);
  EXPECT_EQ(rr.LocalBlock(4, 0), 11);
  EXPECT_EQ(rr.LocalBlock(5, 7), 17 + 7);
  // Blocked (3 runs per disk): disk 0 = {0, 1, 2}, disk 1 = {3, 4, 5},
  // disk 2 = {6}.
  opt.placement = RunPlacement::kBlocked;
  RunLayout blocked(opt);
  std::span<const int> blocked_disk1 = blocked.RunsOf(1);
  EXPECT_EQ(std::vector<int>(blocked_disk1.begin(), blocked_disk1.end()),
            (std::vector<int>{3, 4, 5}));
  EXPECT_EQ(blocked.LocalBlock(2, 0), 5 + 11);
  EXPECT_EQ(blocked.LocalBlock(5, 1), 23 + 29 + 1);
  EXPECT_EQ(blocked.LocalBlock(6, 0), 0);
}

TEST(RunLayoutTest, StripedLocations) {
  RunLayout::Options opt;
  opt.num_runs = 4;
  opt.num_disks = 2;
  opt.blocks_per_run = 10;
  opt.placement = RunPlacement::kStriped;
  EXPECT_TRUE(RunLayout::Validate(opt).ok());
  RunLayout layout(opt);
  EXPECT_TRUE(layout.striped());
  // Block o of run r: disk o%2, local r*5 + o/2.
  EXPECT_EQ(layout.Locate(0, 0).disk, 0);
  EXPECT_EQ(layout.Locate(0, 0).local_block, 0);
  EXPECT_EQ(layout.Locate(0, 1).disk, 1);
  EXPECT_EQ(layout.Locate(0, 1).local_block, 0);
  EXPECT_EQ(layout.Locate(0, 4).disk, 0);
  EXPECT_EQ(layout.Locate(0, 4).local_block, 2);
  EXPECT_EQ(layout.Locate(3, 9).disk, 1);
  EXPECT_EQ(layout.Locate(3, 9).local_block, 3 * 5 + 4);
}

TEST(RunLayoutTest, StripedSpansCoverEveryOffsetOnce) {
  RunLayout::Options opt;
  opt.num_runs = 2;
  opt.num_disks = 3;
  opt.blocks_per_run = 12;
  opt.placement = RunPlacement::kStriped;
  RunLayout layout(opt);
  std::vector<RunLayout::Span> spans;  // Reused: each call replaces it.
  for (int64_t offset : {0, 1, 2, 5}) {
    for (int64_t n : {1, 2, 3, 4, 7}) {
      layout.SpansInto(1, offset, n, &spans);
      std::vector<int64_t> covered;
      for (const auto& span : spans) {
        EXPECT_GE(span.nblocks, 1);
        for (int64_t i = 0; i < span.nblocks; ++i) {
          int64_t o = span.first_offset + i * span.offset_stride;
          covered.push_back(o);
          // The span's physical blocks are where Locate says.
          auto loc = layout.Locate(1, o);
          EXPECT_EQ(loc.disk, span.disk);
          EXPECT_EQ(loc.local_block, span.local_start + i);
        }
      }
      std::sort(covered.begin(), covered.end());
      ASSERT_EQ(covered.size(), static_cast<size_t>(n)) << "offset=" << offset;
      for (int64_t i = 0; i < n; ++i) {
        EXPECT_EQ(covered[static_cast<size_t>(i)], offset + i);
      }
    }
  }
}

TEST(RunLayoutTest, ContiguousSpanIsSingle) {
  RunLayout::Options opt;
  opt.num_runs = 6;
  opt.num_disks = 3;
  opt.blocks_per_run = 100;
  RunLayout layout(opt);
  std::vector<RunLayout::Span> spans(3);  // Stale contents are replaced.
  layout.SpansInto(4, 20, 10, &spans);
  ASSERT_EQ(spans.size(), 1u);
  EXPECT_EQ(spans[0].disk, layout.DiskOf(4));
  EXPECT_EQ(spans[0].local_start, layout.LocalBlock(4, 20));
  EXPECT_EQ(spans[0].nblocks, 10);
  EXPECT_EQ(spans[0].offset_stride, 1);
}

TEST(RunLayoutTest, StripedValidation) {
  RunLayout::Options opt;
  opt.num_runs = 4;
  opt.num_disks = 3;
  opt.blocks_per_run = 10;  // Not divisible by 3.
  opt.placement = RunPlacement::kStriped;
  EXPECT_FALSE(RunLayout::Validate(opt).ok());
  opt.blocks_per_run = 12;
  EXPECT_TRUE(RunLayout::Validate(opt).ok());
}

TEST(RunLayoutTest, OverflowDetected) {
  RunLayout::Options opt;
  opt.num_runs = 10;
  opt.num_disks = 1;
  opt.blocks_per_run = 10000;  // 100k blocks >> 65k capacity.
  EXPECT_FALSE(RunLayout::Validate(opt).ok());
}

TEST(RunLayoutTest, ValidateNamesTheFirstOverfullDisk) {
  // Validate sums each disk's runs from the placement alone; the built
  // layout's run lists must agree with it.
  RunLayout::Options opt;
  opt.num_runs = 5;
  opt.num_disks = 2;
  const int64_t holds = opt.geometry.TotalBlocks();
  opt.run_blocks = {10, holds - 20, 10, 21, 10};
  // Round-robin: disk 0 = {0, 2, 4} (30 blocks), disk 1 = {1, 3} (holds + 1).
  // Blocked, 3 per disk: disk 0 = {0, 1, 2} (exactly holds), disk 1 = {3, 4}.
  for (RunPlacement placement : {RunPlacement::kRoundRobin, RunPlacement::kBlocked}) {
    opt.placement = placement;
    RunLayout layout(opt);
    int over = -1;
    for (int d = 0; d < opt.num_disks && over < 0; ++d) {
      int64_t blocks = 0;
      for (int r : layout.RunsOf(d)) {
        blocks += layout.RunBlocks(r);
      }
      if (blocks > holds) {
        over = d;
      }
    }
    Status status = RunLayout::Validate(opt);
    if (placement == RunPlacement::kRoundRobin) {
      ASSERT_EQ(over, 1);
      EXPECT_EQ(status.message(),
                StrFormat("disk 1 needs %lld blocks but holds only %lld",
                          static_cast<long long>(holds + 1), static_cast<long long>(holds)));
    } else {
      EXPECT_EQ(over, -1);
      EXPECT_TRUE(status.ok()) << status.ToString();
    }
  }
}

struct Served {
  int64_t block;
  double completed_at;
};

/// Records every sink call a disk makes, with its simulated time.
class RecordingSink final : public RequestSink {
 public:
  explicit RecordingSink(sim::Simulation* sim) : sim_(sim) {}

  void OnBlock(const DiskRequest& /*request*/, int /*i*/) override {
    block_times.push_back(sim_->Now());
  }
  void OnComplete(const DiskRequest& request) override {
    served.push_back({request.start_block, sim_->Now()});
  }
  void OnError(const DiskRequest& /*request*/) override {
    ADD_FAILURE() << "no fault plan is attached, so nothing can fail";
  }

  std::vector<double> block_times;
  std::vector<Served> served;

 private:
  sim::Simulation* sim_;
};

TEST(DiskServerTest, FcfsOrderAndPerBlockDelivery) {
  sim::Simulation sim;
  DiskParams params;
  params.rotation = RotationalLatencyModel::kFixedMean;
  Disk disk(&sim, params, 0, /*seed=*/1);
  disk.Start();

  RecordingSink sink(&sim);
  const std::vector<Served>& served = sink.served;
  const std::vector<double>& block_times = sink.block_times;
  auto submit = [&](int64_t start, int n) {
    DiskRequest req;
    req.start_block = start;
    req.nblocks = n;
    req.sink = &sink;
    disk.Submit(req);
  };
  sim.ScheduleCallback(0, [&] {
    submit(0, 2);
    submit(1040, 1);  // Queued behind the first.
  });
  sim.Run();

  ASSERT_EQ(served.size(), 2u);
  EXPECT_EQ(served[0].block, 0);
  EXPECT_EQ(served[1].block, 1040);
  // First request: R + 2T; second: +seek(10cyl) + R + T.
  double t = params.TransferMsPerBlock();
  double r = params.MeanRotationalLatencyMs();
  EXPECT_NEAR(served[0].completed_at, r + 2 * t, 1e-9);
  EXPECT_NEAR(served[1].completed_at, r + 2 * t + 0.1 + r + t, 1e-9);
  // Per-block deliveries: after each transfer.
  ASSERT_EQ(block_times.size(), 3u);
  EXPECT_NEAR(block_times[0], r + t, 1e-9);
  EXPECT_NEAR(block_times[1], r + 2 * t, 1e-9);

  const DiskStats& s = disk.stats();
  EXPECT_EQ(s.requests, 2u);
  EXPECT_EQ(s.blocks_transferred, 3u);
  EXPECT_EQ(s.seeks, 1u);
  EXPECT_EQ(s.seek_cylinders, 10);
}

TEST(DiskServerTest, FcfsOrderSurvivesQueueReuse) {
  // The queue never drains: every completion submits a new request, so the
  // served prefix is reclaimed by compaction rather than by emptying.
  sim::Simulation sim;
  DiskParams params;
  Disk disk(&sim, params, 0, 1);
  disk.Start();
  struct Resubmitter final : RequestSink {
    void OnBlock(const DiskRequest& /*request*/, int /*i*/) override {}
    void OnComplete(const DiskRequest& request) override {
      order.push_back(request.start_block);
      if (next < 40) {
        DiskRequest req = request;
        req.start_block = next++;
        disk->Submit(req);
      }
    }
    void OnError(const DiskRequest& /*request*/) override { ADD_FAILURE(); }
    Disk* disk = nullptr;
    int64_t next = 0;
    std::vector<int64_t> order;
  } sink;
  sink.disk = &disk;
  sim.ScheduleCallback(0, [&] {
    for (; sink.next < 5; ++sink.next) {
      DiskRequest req;
      req.start_block = sink.next;
      req.sink = &sink;
      disk.Submit(req);
    }
  });
  sim.Run();
  ASSERT_EQ(sink.order.size(), 40u);
  for (int64_t i = 0; i < 40; ++i) {
    EXPECT_EQ(sink.order[static_cast<size_t>(i)], i);
  }
  EXPECT_EQ(disk.stats().max_queue_length, 5u);
}

TEST(DiskServerTest, SstfPicksNearestRequest) {
  sim::Simulation sim;
  DiskParams params;
  params.rotation = RotationalLatencyModel::kFixedMean;
  params.scheduling = SchedulingPolicy::kSstf;
  Disk disk(&sim, params, 0, 1);
  disk.Start();

  RecordingSink sink(&sim);
  auto submit = [&](int64_t start) {
    DiskRequest req;
    req.start_block = start;
    req.nblocks = 1;
    req.sink = &sink;
    disk.Submit(req);
  };
  // While the disk serves block 0, queue far then near; SSTF should take the
  // near one first.
  sim.ScheduleCallback(0, [&] {
    submit(0);
    submit(104 * 100);  // Cylinder 100.
    submit(104 * 5);    // Cylinder 5.
  });
  sim.Run();
  ASSERT_EQ(sink.served.size(), 3u);
  EXPECT_EQ(sink.served[0].block, 0);
  EXPECT_EQ(sink.served[1].block, 104 * 5);
  EXPECT_EQ(sink.served[2].block, 104 * 100);
}

TEST(DiskServerTest, BusyObserverFires) {
  sim::Simulation sim;
  DiskParams params;
  Disk disk(&sim, params, 3, 1);
  struct Recorder final : BusyObserver {
    void OnBusyChanged(int id, bool busy) override { transitions.push_back({id, busy}); }
    std::vector<std::pair<int, bool>> transitions;
  } recorder;
  const std::vector<std::pair<int, bool>>& transitions = recorder.transitions;
  disk.SetBusyObserver(&recorder);
  disk.Start();
  DiskRequest req;
  req.start_block = 0;
  req.nblocks = 1;
  sim.ScheduleCallback(0, [&] { disk.Submit(req); });
  sim.Run();
  ASSERT_EQ(transitions.size(), 2u);
  EXPECT_EQ(transitions[0], (std::pair<int, bool>{3, true}));
  EXPECT_EQ(transitions[1], (std::pair<int, bool>{3, false}));
}

sim::Process SubmitAt(sim::Simulation& /*sim*/, DiskArray& array, int disk, double at,
                      int64_t block, int nblocks) {
  co_await sim::Delay(at);
  DiskRequest req;
  req.start_block = block;
  req.nblocks = nblocks;
  array.Submit(disk, req);
}

TEST(DiskArrayTest, ConcurrencyStatistic) {
  sim::Simulation sim;
  DiskArray::Options opt;
  opt.params.rotation = RotationalLatencyModel::kFixedMean;
  opt.num_disks = 2;
  DiskArray array(&sim, opt);
  array.Start();
  // Two equal requests at t=0 on different disks: concurrency 2 while busy.
  sim.Spawn(SubmitAt(sim, array, 0, 0, 0, 4));
  sim.Spawn(SubmitAt(sim, array, 1, 0, 0, 4));
  sim.Run();
  array.FlushStats();
  EXPECT_NEAR(array.MeanConcurrencyWhileActive(), 2.0, 1e-9);
  EXPECT_EQ(array.TotalStats().requests, 2u);
  EXPECT_EQ(array.TotalStats().blocks_transferred, 8u);
}

TEST(DiskArrayTest, SerializedRequestsHaveConcurrencyOne) {
  sim::Simulation sim;
  DiskArray::Options opt;
  opt.params.rotation = RotationalLatencyModel::kFixedMean;
  opt.num_disks = 2;
  DiskArray array(&sim, opt);
  array.Start();
  double service = opt.params.MeanRotationalLatencyMs() + opt.params.TransferMsPerBlock();
  sim.Spawn(SubmitAt(sim, array, 0, 0.0, 0, 1));
  sim.Spawn(SubmitAt(sim, array, 1, service + 1.0, 0, 1));  // After the first ends.
  sim.Run();
  array.FlushStats();
  EXPECT_NEAR(array.MeanConcurrencyWhileActive(), 1.0, 1e-9);
  EXPECT_LT(array.ActiveFraction(), 1.0);
}

}  // namespace
}  // namespace emsim::disk

// Pins the sharded-sweep determinism contract (docs/SWEEPS.md): shard
// artifacts merged from any shard count are byte-identical to the
// single-process sweep, including fault-injected counters and the
// lowest-index failure capture.

#include "sweep/shard.h"

#include <cstddef>
#include <cstdint>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "core/config.h"
#include "core/experiment.h"
#include "core/result_json.h"
#include "sweep/merge.h"
#include "util/status.h"
#include "util/str.h"

namespace emsim::sweep {
namespace {

core::MergeConfig SmallConfig() {
  core::MergeConfig cfg;
  cfg.num_runs = 4;
  cfg.num_disks = 2;
  cfg.blocks_per_run = 20;
  cfg.prefetch_depth = 2;
  return cfg;
}

/// A heterogeneous sweep: differing trial counts, strategies, and one unit
/// with fault injection enabled so the artifact codec's fault-counter path
/// is exercised end to end.
std::vector<core::SweepUnit> MakeUnits() {
  std::vector<core::SweepUnit> units;

  core::SweepUnit a;
  a.name = "baseline";
  a.config = SmallConfig();
  a.config.strategy = core::Strategy::kDemandRunOnly;
  a.trials = 3;
  units.push_back(a);

  core::SweepUnit b;
  b.name = "prefetch";
  b.config = SmallConfig();
  b.config.prefetch_depth = 4;
  b.config.seed = 7;
  b.trials = 2;
  units.push_back(b);

  core::SweepUnit c;
  c.name = "faulty";
  c.config = SmallConfig();
  c.config.fault.media_error_rate = 0.02;
  c.config.fault.latency_spike_rate = 0.05;
  c.config.fault.latency_spike_ms = 10.0;
  c.trials = 4;
  units.push_back(c);

  return units;
}

std::string RenderJson(const std::vector<core::SweepUnit>& units,
                       const std::vector<core::ExperimentResult>& results) {
  std::vector<core::NamedExperiment> named;
  for (size_t i = 0; i < units.size(); ++i) {
    named.push_back(core::NamedExperiment{units[i].name, units[i].config, &results[i]});
  }
  return core::ExperimentSetToJson(named);
}

TEST(ShardSliceTest, PartitionsTaskSpaceExactly) {
  for (int total : {0, 1, 5, 9, 16}) {
    for (int shards : {1, 2, 3, 7, 20}) {
      int covered = 0;
      int prev_end = 0;
      for (int s = 0; s < shards; ++s) {
        ShardRange range = ShardSlice(total, s, shards);
        EXPECT_EQ(range.begin, prev_end);
        EXPECT_GE(range.size(), 0);
        prev_end = range.end;
        covered += range.size();
      }
      EXPECT_EQ(prev_end, total) << total << "/" << shards;
      EXPECT_EQ(covered, total);
      // Near-equal: sizes differ by at most one.
      int lo = total / shards;
      for (int s = 0; s < shards; ++s) {
        int size = ShardSlice(total, s, shards).size();
        EXPECT_GE(size, lo);
        EXPECT_LE(size, lo + 1);
      }
    }
  }
}

TEST(SweepGridTest, TaskMappingMatchesUnitMajorOrder) {
  auto units = MakeUnits();
  core::SweepGrid grid(units);
  ASSERT_EQ(grid.total_tasks(), 3 + 2 + 4);
  EXPECT_EQ(grid.UnitBegin(0), 0);
  EXPECT_EQ(grid.UnitBegin(1), 3);
  EXPECT_EQ(grid.UnitBegin(2), 5);
  int index = 0;
  for (int u = 0; u < grid.num_units(); ++u) {
    for (int t = 0; t < units[static_cast<size_t>(u)].trials; ++t, ++index) {
      core::SweepGrid::Task task = grid.At(index);
      EXPECT_EQ(task.unit, u);
      EXPECT_EQ(task.trial, t);
      core::MergeConfig cfg = grid.TaskConfig(index, {});
      EXPECT_EQ(cfg.seed, units[static_cast<size_t>(u)].config.seed +
                              static_cast<uint64_t>(t));
    }
  }
}

TEST(ShardCodecTest, EncodeDecodeIsAFixedPoint) {
  auto units = MakeUnits();
  core::SweepGrid grid(units);
  ShardArtifact artifact = RunShard(grid, 0, 2, 1, {});
  std::string text = EncodeShardArtifact(artifact);
  auto decoded = DecodeShardArtifact(text);
  ASSERT_TRUE(decoded.ok()) << decoded.status().ToString();
  // Bit-exact round trip: re-encoding the decoded artifact reproduces the
  // original document byte for byte (doubles included).
  EXPECT_EQ(EncodeShardArtifact(*decoded), text);
  EXPECT_EQ(decoded->shard_index, 0);
  EXPECT_EQ(decoded->shard_count, 2);
  EXPECT_EQ(decoded->total_tasks, grid.total_tasks());
  EXPECT_EQ(decoded->spec_digest, SpecDigest(units));
}

TEST(ShardCodecTest, RejectsGarbageAndTamperedHeaders) {
  EXPECT_FALSE(DecodeShardArtifact("").ok());
  EXPECT_FALSE(DecodeShardArtifact("not json").ok());
  EXPECT_FALSE(DecodeShardArtifact("{}").ok());
  EXPECT_FALSE(DecodeShardArtifact(R"({"shard_schema_version": 99})").ok());
}

// The acceptance criterion: for N in {1, 2, 7}, the merged artifact is
// byte-identical to the single-process sweep's JSON — fault injection on.
TEST(SweepMergeTest, MergedJsonByteIdenticalAcrossShardCounts) {
  auto units = MakeUnits();
  core::SweepGrid grid(units);
  auto single = core::RunSweep(units, 2);
  ASSERT_TRUE(single.ok()) << single.status().ToString();
  std::string want = RenderJson(units, *single);
  for (int num_shards : {1, 2, 7}) {
    std::vector<std::string> texts;
    for (int s = 0; s < num_shards; ++s) {
      texts.push_back(EncodeShardArtifact(RunShard(grid, s, num_shards, 1, {})));
    }
    auto merged = MergeShardArtifacts(units, texts);
    ASSERT_TRUE(merged.ok()) << num_shards << " shards: "
                             << merged.status().ToString();
    EXPECT_EQ(RenderJson(units, *merged), want) << num_shards << " shards";
  }
}

// Same contract on a uniform grid (equal trial counts), swept on 3 threads.
TEST(SweepMergeTest, MatchesThreadedUniformSweep) {
  core::MergeConfig cfg = SmallConfig();
  constexpr int kTrials = 5;
  std::vector<core::SweepUnit> units;
  for (int n : {1, 2, 4}) {
    core::MergeConfig c = cfg;
    c.prefetch_depth = n;
    units.push_back(core::SweepUnit{StrFormat("n=%d", n), c, kTrials});
  }
  auto parallel = core::RunSweep(units, 3);
  ASSERT_TRUE(parallel.ok()) << parallel.status().ToString();
  std::string want = RenderJson(units, *parallel);

  core::SweepGrid grid(units);
  std::vector<std::string> texts;
  for (int s = 0; s < 2; ++s) {
    texts.push_back(EncodeShardArtifact(RunShard(grid, s, 2, 2, {})));
  }
  auto merged = MergeShardArtifacts(units, texts);
  ASSERT_TRUE(merged.ok()) << merged.status().ToString();
  EXPECT_EQ(RenderJson(units, *merged), want);
}

TEST(SweepMergeTest, FailureSurfacesLowestGlobalTaskIndex) {
  auto units = MakeUnits();
  // Poison the middle unit: an impossible event budget turns every one of
  // its trials into DeadlineExceeded. The first failing global task is the
  // unit's first trial.
  units[1].config.max_sim_events = 1;
  core::SweepGrid grid(units);
  std::vector<std::string> texts;
  for (int s = 0; s < 3; ++s) {
    texts.push_back(EncodeShardArtifact(RunShard(grid, s, 3, 1, {})));
  }
  auto merged = MergeShardArtifacts(units, texts);
  ASSERT_FALSE(merged.ok());
  EXPECT_EQ(merged.status().code(), StatusCode::kDeadlineExceeded);
  // Exactly the error a single-process RunSweep returns, with the lowest
  // failing global index (unit 1 starts at task 3).
  EXPECT_NE(merged.status().message().find("sweep task 3 failed:"),
            std::string::npos)
      << merged.status().ToString();
  auto single = core::RunSweep(units, 2);
  ASSERT_FALSE(single.ok());
  EXPECT_EQ(single.status(), merged.status());
}

TEST(SweepMergeTest, RejectsDigestMismatch) {
  auto units = MakeUnits();
  core::SweepGrid grid(units);
  std::string text = EncodeShardArtifact(RunShard(grid, 0, 1, 1, {}));
  auto tampered = units;
  tampered[0].config.seed += 1;
  auto merged = MergeShardArtifacts(tampered, {text});
  ASSERT_FALSE(merged.ok());
  EXPECT_NE(merged.status().message().find("digest"), std::string::npos)
      << merged.status().ToString();
}

TEST(SweepMergeTest, RejectsCoverageGapNamingTheMissingTask) {
  auto units = MakeUnits();
  core::SweepGrid grid(units);
  std::vector<std::string> texts;
  for (int s : {0, 2}) {  // Shard 1 lost.
    texts.push_back(EncodeShardArtifact(RunShard(grid, s, 3, 1, {})));
  }
  auto merged = MergeShardArtifacts(units, texts);
  ASSERT_FALSE(merged.ok());
  EXPECT_NE(merged.status().message().find("missing"), std::string::npos)
      << merged.status().ToString();
}

TEST(SweepMergeTest, ToleratesDuplicateShardFromRacedResubmission) {
  auto units = MakeUnits();
  core::SweepGrid grid(units);
  auto single = core::RunSweep(units, 2);
  ASSERT_TRUE(single.ok()) << single.status().ToString();
  std::vector<std::string> texts;
  for (int s = 0; s < 2; ++s) {
    texts.push_back(EncodeShardArtifact(RunShard(grid, s, 2, 1, {})));
  }
  texts.push_back(texts[1]);  // A straggler's duplicate artifact.
  auto merged = MergeShardArtifacts(units, texts);
  ASSERT_TRUE(merged.ok()) << merged.status().ToString();
  EXPECT_EQ(RenderJson(units, *merged), RenderJson(units, *single));
}

}  // namespace
}  // namespace emsim::sweep

// Pins the sharded-sweep determinism contract (docs/SWEEPS.md): shard
// artifacts merged from any shard count are byte-identical to the
// single-process sweep, including fault-injected counters and the
// lowest-index failure capture. Also pins the `--shard k/N` parser, the
// codec's and the merge's rejection of tampered artifacts, the artifact's
// integrity footer (seal/unseal), the sealed-merge negative paths — every
// corruption must be detected and must name the culprit artifact — and
// util::AtomicFile.

#include "sweep/shard.h"

#include <cstddef>
#include <cstdint>
#include <cstdio>
#include <string>
#include <sys/stat.h>
#include <unistd.h>
#include <utility>
#include <vector>

#include <gtest/gtest.h>

#include "core/config.h"
#include "core/experiment.h"
#include "core/result_json.h"
#include "sweep/merge.h"
#include "util/atomic_file.h"
#include "util/status.h"
#include "util/str.h"
#include "workload/experiment_spec.h"

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

std::vector<core::SweepUnit> SmallUnits() {
  core::SweepUnit unit;
  unit.name = "unit";
  unit.config = SmallConfig();
  unit.trials = 2;
  return {unit};
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

TEST(ShardSliceTest, ShardsPastTheTaskCountAreEmptyAtTheEnd) {
  for (int s = 0; s < 7; ++s) {
    ShardRange range = ShardSlice(3, s, 7);
    EXPECT_EQ(range.size(), s < 3 ? 1 : 0) << s;
    EXPECT_EQ(range.begin, s < 3 ? s : 3) << s;
  }
}

TEST(ShardSpecTest, AcceptsPlainIndexOverCount) {
  int index = -1;
  int count = -1;
  ASSERT_TRUE(ParseShardSpec("0/1", &index, &count));
  EXPECT_EQ(index, 0);
  EXPECT_EQ(count, 1);
  ASSERT_TRUE(ParseShardSpec("6/7", &index, &count));
  EXPECT_EQ(index, 6);
  EXPECT_EQ(count, 7);
  ASSERT_TRUE(ParseShardSpec("11/120", &index, &count));
  EXPECT_EQ(index, 11);
  EXPECT_EQ(count, 120);
  // Leading zeros are still plain decimal digits.
  ASSERT_TRUE(ParseShardSpec("01/02", &index, &count));
  EXPECT_EQ(index, 1);
  EXPECT_EQ(count, 2);
}

bool Accepts(const char* text) {
  int index = 0;
  int count = 0;
  return ParseShardSpec(text, &index, &count);
}

TEST(ShardSpecTest, RejectsTrailingText) {
  EXPECT_FALSE(Accepts("0/2x"));
  EXPECT_FALSE(Accepts("0/2 "));
  EXPECT_FALSE(Accepts("0/2\n"));
  EXPECT_FALSE(Accepts("0/2.0"));
}

TEST(ShardSpecTest, RejectsAThirdField) {
  EXPECT_FALSE(Accepts("0/2/9"));
  EXPECT_FALSE(Accepts("0//2"));
}

TEST(ShardSpecTest, RejectsSigns) {
  EXPECT_FALSE(Accepts("1/+2"));
  EXPECT_FALSE(Accepts("+1/2"));
  EXPECT_FALSE(Accepts("-1/2"));
  EXPECT_FALSE(Accepts("1/-2"));
}

TEST(ShardSpecTest, RejectsWhitespace) {
  EXPECT_FALSE(Accepts(" 0/2"));
  EXPECT_FALSE(Accepts("0 /2"));
  EXPECT_FALSE(Accepts("0/ 2"));
}

TEST(ShardSpecTest, RejectsIndexNotBelowCount) {
  EXPECT_FALSE(Accepts("2/2"));
  EXPECT_FALSE(Accepts("3/2"));
  EXPECT_FALSE(Accepts("0/0"));
}

TEST(ShardSpecTest, RejectsMissingParts) {
  EXPECT_FALSE(Accepts(""));
  EXPECT_FALSE(Accepts("/"));
  EXPECT_FALSE(Accepts("0"));
  EXPECT_FALSE(Accepts("0/"));
  EXPECT_FALSE(Accepts("/2"));
  EXPECT_FALSE(Accepts("a/b"));
}

TEST(ShardSpecTest, RejectsValuesOutsideInt) {
  EXPECT_FALSE(Accepts("0/4294967296"));
  EXPECT_FALSE(Accepts("99999999999/99999999999"));
  EXPECT_TRUE(Accepts("0/2147483647"));
}

TEST(SpecDigestTest, SeesNameTrialsConfigAndOrder) {
  auto units = MakeUnits();
  const uint64_t base = SpecDigest(units);
  EXPECT_EQ(SpecDigest(MakeUnits()), base);

  auto renamed = units;
  renamed[0].name = "baseline2";
  EXPECT_NE(SpecDigest(renamed), base);

  auto more_trials = units;
  more_trials[1].trials += 1;
  EXPECT_NE(SpecDigest(more_trials), base);

  auto reconfigured = units;
  reconfigured[2].config.num_disks = 3;
  EXPECT_NE(SpecDigest(reconfigured), base);

  auto reordered = units;
  std::swap(reordered[0], reordered[1]);
  EXPECT_NE(SpecDigest(reordered), base);

  auto dropped = units;
  dropped.pop_back();
  EXPECT_NE(SpecDigest(dropped), base);
}

TEST(SpecDigestTest, UnitsFromSpecsKeepsSpecOrderAndFields) {
  std::vector<workload::ExperimentSpec> specs(2);
  specs[0].name = "second-in-name-order";
  specs[0].config = SmallConfig();
  specs[0].trials = 4;
  specs[1].name = "a-first-in-name-order";
  specs[1].config = SmallConfig();
  specs[1].config.prefetch_depth = 5;
  specs[1].trials = 1;
  auto units = UnitsFromSpecs(specs);
  ASSERT_EQ(units.size(), 2u);
  EXPECT_EQ(units[0].name, "second-in-name-order");
  EXPECT_EQ(units[0].trials, 4);
  EXPECT_EQ(units[1].name, "a-first-in-name-order");
  EXPECT_EQ(units[1].config.prefetch_depth, 5);
  EXPECT_EQ(units[1].trials, 1);
}

TEST(RunShardTest, RecordsItsSliceInAscendingGlobalOrder) {
  auto units = MakeUnits();
  core::SweepGrid grid(units);
  for (int s = 0; s < 4; ++s) {
    ShardArtifact artifact = RunShard(grid, s, 4, 2, {});
    ShardRange want = ShardSlice(grid.total_tasks(), s, 4);
    EXPECT_EQ(artifact.range.begin, want.begin);
    EXPECT_EQ(artifact.range.end, want.end);
    EXPECT_EQ(artifact.total_tasks, grid.total_tasks());
    EXPECT_EQ(artifact.spec_digest, SpecDigest(units));
    ASSERT_EQ(artifact.tasks.size(), static_cast<size_t>(want.size()));
    for (size_t i = 0; i < artifact.tasks.size(); ++i) {
      EXPECT_EQ(artifact.tasks[i].task, want.begin + static_cast<int>(i));
      EXPECT_TRUE(artifact.tasks[i].ok);
      EXPECT_GT(artifact.tasks[i].result.blocks_merged, 0);
    }
  }
}

TEST(RunShardTest, ShardPastTheTaskCountRunsNothingAndRoundTrips) {
  auto units = SmallUnits();
  core::SweepGrid grid(units);
  ASSERT_EQ(grid.total_tasks(), 2);
  ShardArtifact artifact = RunShard(grid, 5, 7, 1, {});
  EXPECT_EQ(artifact.range.size(), 0);
  EXPECT_TRUE(artifact.tasks.empty());
  std::string text = EncodeShardArtifact(artifact);
  auto decoded = DecodeShardArtifact(text);
  ASSERT_TRUE(decoded.ok()) << decoded.status().ToString();
  EXPECT_TRUE(decoded->tasks.empty());
  EXPECT_EQ(EncodeShardArtifact(*decoded), text);
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

/// A decoded artifact of shard `s` of `n` over MakeUnits(), for tampering.
ShardArtifact Decoded(int s, int n) {
  auto units = MakeUnits();
  auto decoded =
      DecodeShardArtifact(EncodeShardArtifact(RunShard(core::SweepGrid(units), s, n, 1, {})));
  EXPECT_TRUE(decoded.ok()) << decoded.status().ToString();
  return *std::move(decoded);
}

TEST(ShardCodecTest, RejectsInconsistentShardHeaders) {
  const ShardArtifact good = Decoded(1, 3);
  ASSERT_TRUE(DecodeShardArtifact(EncodeShardArtifact(good)).ok());

  ShardArtifact index_past_count = good;
  index_past_count.shard_index = 3;
  ShardArtifact no_shards = good;
  no_shards.shard_count = 0;
  ShardArtifact inverted = good;
  std::swap(inverted.range.begin, inverted.range.end);
  ShardArtifact past_total = good;
  past_total.range.end = good.total_tasks + 1;
  ShardArtifact negative_begin = good;
  negative_begin.range.begin = -1;
  for (const ShardArtifact& bad :
       {index_past_count, no_shards, inverted, past_total, negative_begin}) {
    auto decoded = DecodeShardArtifact(EncodeShardArtifact(bad));
    ASSERT_FALSE(decoded.ok());
    EXPECT_EQ(decoded.status().code(), StatusCode::kCorruption);
    EXPECT_NE(decoded.status().message().find("inconsistent shard header"), std::string::npos)
        << decoded.status().ToString();
  }
}

TEST(ShardCodecTest, RejectsMalformedSpecDigest) {
  std::string text = EncodeShardArtifact(Decoded(0, 2));
  size_t at = text.find("\"spec_digest\"");
  ASSERT_NE(at, std::string::npos);
  size_t open = text.find('"', text.find(':', at));
  size_t close = text.find('"', open + 1);
  for (const char* bad : {"", "xyz", "12 34", "12g"}) {
    std::string tampered = text;
    tampered.replace(open + 1, close - open - 1, bad);
    auto decoded = DecodeShardArtifact(tampered);
    ASSERT_FALSE(decoded.ok()) << "'" << bad << "'";
    EXPECT_NE(decoded.status().message().find("malformed spec_digest"), std::string::npos)
        << decoded.status().ToString();
  }
}

TEST(ShardCodecTest, FailedTaskRoundTripsItsStatus) {
  ShardArtifact artifact = Decoded(0, 2);
  artifact.tasks.resize(1);
  artifact.tasks[0].ok = false;
  artifact.tasks[0].error = Status::DeadlineExceeded("event cap \"1\" hit");
  std::string text = EncodeShardArtifact(artifact);
  auto decoded = DecodeShardArtifact(text);
  ASSERT_TRUE(decoded.ok()) << decoded.status().ToString();
  ASSERT_EQ(decoded->tasks.size(), 1u);
  EXPECT_FALSE(decoded->tasks[0].ok);
  EXPECT_EQ(decoded->tasks[0].error, artifact.tasks[0].error);
  EXPECT_EQ(EncodeShardArtifact(*decoded), text);
}

TEST(ShardCodecTest, RejectsUnknownStatusCodeName) {
  ShardArtifact artifact = Decoded(0, 2);
  artifact.tasks.resize(1);
  artifact.tasks[0].ok = false;
  artifact.tasks[0].error = Status::Internal("boom");
  std::string text = EncodeShardArtifact(artifact);
  const std::string code = StatusCodeName(StatusCode::kInternal);
  size_t at = text.find("\"" + code + "\"");
  ASSERT_NE(at, std::string::npos);
  text.replace(at + 1, code.size(), "NOT_A_CODE");
  auto decoded = DecodeShardArtifact(text);
  ASSERT_FALSE(decoded.ok());
  EXPECT_NE(decoded.status().message().find("unknown status code 'NOT_A_CODE'"),
            std::string::npos)
      << decoded.status().ToString();
}

TEST(ShardCodecTest, MissingResultFieldIsNamed) {
  std::string text = EncodeShardArtifact(Decoded(0, 2));
  size_t at = text.find("\"sim_events\"");
  ASSERT_NE(at, std::string::npos);
  text.replace(at, std::string("\"sim_events\"").size(), "\"sim_evens\"");
  auto decoded = DecodeShardArtifact(text);
  ASSERT_FALSE(decoded.ok());
  EXPECT_EQ(decoded.status().code(), StatusCode::kCorruption);
  EXPECT_NE(decoded.status().message().find("missing field 'sim_events'"), std::string::npos)
      << decoded.status().ToString();
}

TEST(ShardCodecTest, RejectsWrongFieldTypes) {
  std::string text = EncodeShardArtifact(Decoded(0, 2));
  // A negative count where a u64 is required.
  std::string negative = text;
  size_t at = negative.find("\"io_operations\": ");
  ASSERT_NE(at, std::string::npos);
  negative.insert(at + std::string("\"io_operations\": ").size(), "-");
  auto decoded = DecodeShardArtifact(negative);
  ASSERT_FALSE(decoded.ok());
  EXPECT_NE(decoded.status().message().find("'io_operations' is not a u64"), std::string::npos)
      << decoded.status().ToString();
  // A string where a bool is required.
  std::string stringly = text;
  at = stringly.find("\"ok\": true");
  ASSERT_NE(at, std::string::npos);
  stringly.replace(at, std::string("\"ok\": true").size(), "\"ok\": \"true\"");
  decoded = DecodeShardArtifact(stringly);
  ASSERT_FALSE(decoded.ok());
  EXPECT_NE(decoded.status().message().find("'ok' is not a bool"), std::string::npos)
      << decoded.status().ToString();
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

TEST(SweepMergeTest, ArtifactOrderDoesNotMatter) {
  auto units = MakeUnits();
  core::SweepGrid grid(units);
  auto single = core::RunSweep(units, 1);
  ASSERT_TRUE(single.ok()) << single.status().ToString();
  std::vector<std::string> texts;
  for (int s = 3; s >= 0; --s) {
    texts.push_back(EncodeShardArtifact(RunShard(grid, s, 4, 1, {})));
  }
  auto merged = MergeShardArtifacts(units, texts);
  ASSERT_TRUE(merged.ok()) << merged.status().ToString();
  EXPECT_EQ(RenderJson(units, *merged), RenderJson(units, *single));
}

// Coverage is per task, not per shard count: halves from a 2-way split and
// quarters from a 4-way split combine as long as every task is present once.
TEST(SweepMergeTest, ShardsOfDifferentCountsCombineWhenTheyCoverTheGrid) {
  auto units = MakeUnits();
  core::SweepGrid grid(units);
  ASSERT_EQ(grid.total_tasks(), 9);
  auto single = core::RunSweep(units, 1);
  ASSERT_TRUE(single.ok()) << single.status().ToString();
  // 0/2 covers [0, 5); 2/4 covers [5, 7); 3/4 covers [7, 9).
  std::vector<std::string> texts = {
      EncodeShardArtifact(RunShard(grid, 0, 2, 1, {})),
      EncodeShardArtifact(RunShard(grid, 2, 4, 1, {})),
      EncodeShardArtifact(RunShard(grid, 3, 4, 1, {})),
  };
  auto merged = MergeShardArtifacts(units, texts);
  ASSERT_TRUE(merged.ok()) << merged.status().ToString();
  EXPECT_EQ(RenderJson(units, *merged), RenderJson(units, *single));
}

TEST(SweepMergeTest, NoArtifactsReportsTaskZeroMissing) {
  auto units = MakeUnits();
  auto merged = MergeShardArtifacts(units, std::vector<std::string>{});
  ASSERT_FALSE(merged.ok());
  EXPECT_EQ(merged.status().code(), StatusCode::kInvalidArgument);
  EXPECT_NE(merged.status().message().find("task 0 (unit 'baseline', trial 0) not covered"),
            std::string::npos)
      << merged.status().ToString();
}

TEST(SweepMergeTest, RejectsTotalTaskCountOfAnotherGrid) {
  auto units = MakeUnits();
  ShardArtifact artifact = Decoded(0, 1);
  artifact.total_tasks += 1;
  artifact.range.end += 1;
  auto merged = MergeShardArtifacts(units, {EncodeShardArtifact(artifact)});
  ASSERT_FALSE(merged.ok());
  EXPECT_EQ(merged.status().code(), StatusCode::kInvalidArgument);
  EXPECT_NE(merged.status().message().find("artifact 0: 10 total tasks, spec defines 9"),
            std::string::npos)
      << merged.status().ToString();
}

TEST(SweepMergeTest, RejectsRangeThatIsNotItsShardSlice) {
  auto units = MakeUnits();
  ShardArtifact artifact = Decoded(1, 2);  // Slice [5, 9).
  artifact.range.begin -= 1;
  auto merged = MergeShardArtifacts(units, {EncodeShardArtifact(Decoded(0, 2)),
                                            EncodeShardArtifact(artifact)});
  ASSERT_FALSE(merged.ok());
  EXPECT_EQ(merged.status().code(), StatusCode::kCorruption);
  EXPECT_NE(merged.status().message().find(
                "artifact 1: shard 1/2 claims range [4, 9), expected [5, 9)"),
            std::string::npos)
      << merged.status().ToString();
}

TEST(SweepMergeTest, RejectsTaskOutsideItsShardRange) {
  auto units = MakeUnits();
  ShardArtifact artifact = Decoded(0, 2);  // Slice [0, 5).
  artifact.tasks.back().task = 5;
  auto merged = MergeShardArtifacts(units, {EncodeShardArtifact(artifact)});
  ASSERT_FALSE(merged.ok());
  EXPECT_EQ(merged.status().code(), StatusCode::kCorruption);
  EXPECT_NE(merged.status().message().find("artifact 0: task 5 outside its shard range"),
            std::string::npos)
      << merged.status().ToString();
}

TEST(SweepMergeTest, UndecodableArtifactIsNamedByPosition) {
  auto units = MakeUnits();
  core::SweepGrid grid(units);
  std::vector<std::string> texts = {EncodeShardArtifact(RunShard(grid, 0, 2, 1, {})),
                                    "{\"shard_schema_version\": 1}"};
  auto merged = MergeShardArtifacts(units, texts);
  ASSERT_FALSE(merged.ok());
  EXPECT_EQ(merged.status().code(), StatusCode::kCorruption);
  EXPECT_EQ(merged.status().message().rfind("artifact 1: ", 0), 0u)
      << merged.status().ToString();
}

TEST(Fnv1aDigestTest, MatchesKnownVectorsAndSeparatesInputs) {
  // FNV-1a offset basis is the digest of the empty string by construction.
  EXPECT_EQ(Fnv1aDigest(""), 14695981039346656037ULL);
  EXPECT_NE(Fnv1aDigest("a"), Fnv1aDigest("b"));
  EXPECT_NE(Fnv1aDigest("ab"), Fnv1aDigest("ba"));
  EXPECT_EQ(Fnv1aDigest("payload"), Fnv1aDigest("payload"));
}

TEST(ArtifactSealTest, SealThenUnsealIsIdentity) {
  std::string payload = "{\"doc\": 1}\n";
  std::string sealed = SealShardArtifact(payload);
  ASSERT_GT(sealed.size(), payload.size());
  // One little-endian word ("{\"doc\": ") then three tail bytes, hashed with
  // the FNV-1a basis and prime.
  EXPECT_EQ(sealed.substr(payload.size()),
            "#emsim-shard-footer v2 len=11 fnv1a64w=97f25fa6a1d4132a\n");
  auto unsealed = UnsealShardArtifact(sealed);
  ASSERT_TRUE(unsealed.ok()) << unsealed.status().ToString();
  EXPECT_EQ(*unsealed, payload);
}

TEST(ArtifactSealTest, VersionOneFooterIsRejectedByVersion) {
  // A well-formed artifact as the byte-wise v1 seal wrote it.
  const std::string payload = "{\"doc\": 1}\n";
  const std::string v1 =
      payload + StrFormat("#emsim-shard-footer v1 len=%zu fnv1a=%016llx\n", payload.size(),
                          static_cast<unsigned long long>(Fnv1aDigest(payload)));
  auto unsealed = UnsealShardArtifact(v1);
  ASSERT_FALSE(unsealed.ok());
  EXPECT_EQ(unsealed.status().code(), StatusCode::kCorruption);
  EXPECT_NE(unsealed.status().message().find("footer version 'v1'"), std::string::npos)
      << unsealed.status().ToString();
}

TEST(ArtifactSealTest, OneBitFlipInAnyWordIsDetected) {
  // Five whole 8-byte words and a 2-byte tail.
  const std::string payload = "{\"shard\": 3, \"tasks\": [1, 2, 3, 4, 5, 6]}\n";
  ASSERT_EQ(payload.size(), 42u);
  const std::string sealed = SealShardArtifact(payload);
  // Every byte but the final newline, whose flip unmoors the footer from
  // its line start (FooterMarkerMustStartALine covers that).
  for (size_t byte = 0; byte + 1 < payload.size(); ++byte) {
    for (int bit = 0; bit < 8; ++bit) {
      std::string flipped = sealed;
      flipped[byte] = static_cast<char>(flipped[byte] ^ (1 << bit));
      auto unsealed = UnsealShardArtifact(flipped);
      ASSERT_FALSE(unsealed.ok()) << "byte " << byte << " bit " << bit;
      EXPECT_NE(unsealed.status().message().find("does not match footer"), std::string::npos)
          << "byte " << byte << " bit " << bit << ": " << unsealed.status().ToString();
    }
  }
}

TEST(ArtifactSealTest, SealAppendsMissingTrailingNewline) {
  std::string sealed = SealShardArtifact("{\"doc\": 1}");
  auto unsealed = UnsealShardArtifact(sealed);
  ASSERT_TRUE(unsealed.ok());
  EXPECT_EQ(*unsealed, "{\"doc\": 1}\n");
}

TEST(ArtifactSealTest, MissingFooterIsCorruption) {
  auto unsealed = UnsealShardArtifact("{\"doc\": 1}\n");
  ASSERT_FALSE(unsealed.ok());
  EXPECT_EQ(unsealed.status().code(), StatusCode::kCorruption);
  EXPECT_NE(unsealed.status().message().find("integrity footer missing"),
            std::string::npos)
      << unsealed.status().ToString();
}

TEST(ArtifactSealTest, TruncatedPayloadIsDetected) {
  std::string sealed = SealShardArtifact("line one\nline two\n");
  // Cut bytes out of the middle, keeping the (now stale) footer intact.
  std::string truncated = sealed.substr(0, 4) + sealed.substr(9);
  auto unsealed = UnsealShardArtifact(truncated);
  ASSERT_FALSE(unsealed.ok());
  EXPECT_NE(unsealed.status().message().find("truncated or spliced"), std::string::npos)
      << unsealed.status().ToString();
}

TEST(ArtifactSealTest, BitFlipUnderStaleFooterIsDetected) {
  std::string sealed = SealShardArtifact("deterministic payload bytes\n");
  sealed[3] ^= 0x20;  // Same length, different content: only the digest sees it.
  auto unsealed = UnsealShardArtifact(sealed);
  ASSERT_FALSE(unsealed.ok());
  EXPECT_NE(unsealed.status().message().find("does not match footer"), std::string::npos)
      << unsealed.status().ToString();
}

TEST(ArtifactSealTest, MangledFooterIsDetected) {
  std::string sealed = SealShardArtifact("payload\n");
  sealed.replace(sealed.find("fnv1a64w="), 9, "fnv1x64w=");
  auto unsealed = UnsealShardArtifact(sealed);
  ASSERT_FALSE(unsealed.ok());
  EXPECT_EQ(unsealed.status().code(), StatusCode::kCorruption);
}

TEST(ArtifactSealTest, BytesAfterTheFooterAreDetected) {
  std::string sealed = SealShardArtifact("payload\n");
  auto unsealed = UnsealShardArtifact(sealed + "trailing\n");
  ASSERT_FALSE(unsealed.ok());
  EXPECT_EQ(unsealed.status().code(), StatusCode::kCorruption);
  EXPECT_NE(unsealed.status().message().find("malformed integrity footer"), std::string::npos)
      << unsealed.status().ToString();
}

TEST(ArtifactSealTest, FooterMarkerMustStartALine) {
  std::string sealed = SealShardArtifact("payload\n");
  // Join the footer onto the payload's last line: the marker is no longer
  // at a line start, so it is not a footer.
  sealed.erase(sealed.find("\n#emsim-shard-footer"), 1);
  auto unsealed = UnsealShardArtifact(sealed);
  ASSERT_FALSE(unsealed.ok());
  EXPECT_NE(unsealed.status().message().find("integrity footer missing"), std::string::npos)
      << unsealed.status().ToString();
}

// --- Sealed-merge negative paths: every corruption names its culprit. ---

std::vector<NamedArtifact> SealedArtifacts(const std::vector<core::SweepUnit>& units,
                                           int shard_count) {
  core::SweepGrid grid(units);
  std::vector<NamedArtifact> artifacts;
  for (int s = 0; s < shard_count; ++s) {
    ShardArtifact artifact = RunShard(grid, s, shard_count, 1, core::TrialDeadline{});
    artifacts.push_back(NamedArtifact{StrFormat("shard_%d_of_%d.json", s, shard_count),
                                      SealShardArtifact(EncodeShardArtifact(artifact))});
  }
  return artifacts;
}

TEST(SealedMergeTest, CleanSealedArtifactsMerge) {
  auto units = SmallUnits();
  auto merged = MergeShardArtifacts(units, SealedArtifacts(units, 2));
  ASSERT_TRUE(merged.ok()) << merged.status().ToString();
  EXPECT_EQ(merged->size(), 1u);
}

TEST(SealedMergeTest, TruncatedBodyNamesTheCulpritFile) {
  auto units = SmallUnits();
  auto artifacts = SealedArtifacts(units, 2);
  // Losing the tail of the file takes the footer with it.
  artifacts[1].contents.resize(artifacts[1].contents.size() / 2);
  auto merged = MergeShardArtifacts(units, artifacts);
  ASSERT_FALSE(merged.ok());
  EXPECT_EQ(merged.status().code(), StatusCode::kCorruption);
  EXPECT_NE(merged.status().message().find("shard_1_of_2.json"), std::string::npos)
      << merged.status().ToString();
  EXPECT_NE(merged.status().message().find("integrity footer missing"), std::string::npos)
      << merged.status().ToString();
}

TEST(SealedMergeTest, BitFlippedPayloadUnderStaleFooterNamesTheCulpritFile) {
  auto units = SmallUnits();
  auto artifacts = SealedArtifacts(units, 2);
  artifacts[0].contents[40] ^= 0x01;  // Footer left stale: digest must catch it.
  auto merged = MergeShardArtifacts(units, artifacts);
  ASSERT_FALSE(merged.ok());
  EXPECT_EQ(merged.status().code(), StatusCode::kCorruption);
  EXPECT_NE(merged.status().message().find("shard_0_of_2.json"), std::string::npos)
      << merged.status().ToString();
  EXPECT_NE(merged.status().message().find("does not match footer"), std::string::npos)
      << merged.status().ToString();
}

TEST(SealedMergeTest, ForeignSpecDigestNamesTheCulpritFile) {
  auto units = SmallUnits();
  auto artifacts = SealedArtifacts(units, 2);
  // Rebuild shard 1 from a different sweep: valid seal, wrong spec digest.
  auto foreign_units = SmallUnits();
  foreign_units[0].config.prefetch_depth = 3;
  auto foreign = SealedArtifacts(foreign_units, 2);
  artifacts[1].contents = foreign[1].contents;
  auto merged = MergeShardArtifacts(units, artifacts);
  ASSERT_FALSE(merged.ok());
  EXPECT_NE(merged.status().message().find("shard_1_of_2.json"), std::string::npos)
      << merged.status().ToString();
  EXPECT_NE(merged.status().message().find("different sweep"), std::string::npos)
      << merged.status().ToString();
}

std::string FreshDir(const std::string& name) {
  std::string dir = testing::TempDir() + "/" + name;
  (void)::mkdir(dir.c_str(), 0755);
  return dir;
}

TEST(AtomicFileTest, WriteFileAtomicPublishesAllOrNothing) {
  std::string dir = FreshDir("atomic_file");
  std::string path = dir + "/doc.json";
  ASSERT_TRUE(util::WriteFileAtomic(path, "first\n").ok());
  ASSERT_TRUE(util::WriteFileAtomic(path, "second\n").ok());
  FILE* f = fopen(path.c_str(), "rb");
  ASSERT_NE(f, nullptr);
  char buf[64] = {};
  size_t got = fread(buf, 1, sizeof(buf), f);
  fclose(f);
  EXPECT_EQ(std::string(buf, got), "second\n");
  // No temp droppings left behind.
  std::string temp_probe = path + ".tmp";
  struct stat st{};
  EXPECT_NE(::stat((temp_probe + StrFormat(".%d", getpid())).c_str(), &st), 0);
}

TEST(AtomicFileTest, DiscardLeavesNoFile) {
  std::string dir = FreshDir("atomic_discard");
  std::string path = dir + "/doc.json";
  {
    auto file = util::AtomicFile::Create(path);
    ASSERT_TRUE(file.ok()) << file.status().ToString();
    ASSERT_TRUE(file->Append("half-written").ok());
    // Destructor discards: no Commit().
  }
  struct stat st{};
  EXPECT_NE(::stat(path.c_str(), &st), 0);
}

}  // namespace
}  // namespace emsim::sweep

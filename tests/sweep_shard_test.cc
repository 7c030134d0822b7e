// Pins the sharded-sweep determinism contract (docs/SWEEPS.md): shard
// artifacts merged from any shard count are byte-identical to the
// single-process sweep, including fault-injected counters and the
// lowest-index failure capture. Also pins the `--shard k/N` parser, the
// codec's and the merge's rejection of tampered artifacts, the artifact's
// integrity footer (seal/unseal), the sealed-merge negative paths — every
// corruption must be detected and must name the culprit artifact —
// util::AtomicFile and util::ReadFile. The decoder reads the encoder's
// output token by token: its number, string and member-order cases splice
// one token into an encoded artifact.

#include "sweep/shard.h"

#include <cstddef>
#include <cstdint>
#include <cstdio>
#include <limits>
#include <string>
#include <sys/stat.h>
#include <unistd.h>
#include <utility>
#include <vector>

#include <gtest/gtest.h>

#include "core/config.h"
#include "core/experiment.h"
#include "core/result.h"
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

// ---------------------------------------------------------------------------
// The decoder reads what the encoder writes, token by token. Each case
// splices a token into an encoded artifact.
// ---------------------------------------------------------------------------

/// An encoded one-task shard whose task failed with `message`, so its text
/// holds an error_message string.
std::string FailedTaskText(const std::string& message) {
  ShardArtifact artifact = Decoded(0, 2);
  artifact.tasks.resize(1);
  artifact.tasks[0].ok = false;
  artifact.tasks[0].error = Status::Internal(message);
  return EncodeShardArtifact(artifact);
}

/// `text` with the value of its first member `key` (up to the next ',' or
/// newline) replaced by `token`.
std::string Splice(std::string text, const std::string& key, const std::string& token) {
  const std::string member = "\"" + key + "\": ";
  size_t at = text.find(member);
  EXPECT_NE(at, std::string::npos) << key;
  at += member.size();
  text.replace(at, text.find_first_of(",\n", at) - at, token);
  return text;
}

/// The first task's result after splicing `token` at member `key`.
core::MergeResult ResultWith(const std::string& key, const std::string& token) {
  auto decoded = DecodeShardArtifact(Splice(EncodeShardArtifact(Decoded(0, 2)), key, token));
  EXPECT_TRUE(decoded.ok()) << key << ": " << token << ": " << decoded.status().ToString();
  return decoded.ok() ? decoded->tasks.at(0).result : core::MergeResult();
}

/// The decode error after splicing `token` at member `key`.
std::string ErrorWith(const std::string& key, const std::string& token) {
  std::string text = key == "error_message" ? FailedTaskText("m")
                                            : EncodeShardArtifact(Decoded(0, 2));
  auto decoded = DecodeShardArtifact(Splice(std::move(text), key, token));
  EXPECT_FALSE(decoded.ok()) << key << ": " << token;
  if (decoded.ok()) {
    return std::string();
  }
  EXPECT_EQ(decoded.status().code(), StatusCode::kCorruption);
  return decoded.status().message();
}

/// The error message of the one failed task after splicing `token` there.
std::string MessageWith(const std::string& token) {
  auto decoded = DecodeShardArtifact(Splice(FailedTaskText("m"), "error_message", token));
  EXPECT_TRUE(decoded.ok()) << token << ": " << decoded.status().ToString();
  return decoded.ok() ? decoded->tasks.at(0).error.message() : std::string();
}

bool Contains(const std::string& text, const std::string& part) {
  return text.find(part) != std::string::npos;
}

constexpr double kInf = std::numeric_limits<double>::infinity();

TEST(ShardDecodeTest, IntegralTokensConvertLikeDecimalParsing) {
  // Above 2^53 a double leaf is the integer rounded to nearest, ties to even.
  EXPECT_EQ(ResultWith("total_ms", "9007199254740993").total_ms, 9007199254740992.0);
  EXPECT_EQ(ResultWith("total_ms", "9007199254740995").total_ms, 9007199254740996.0);
  EXPECT_EQ(ResultWith("total_ms", "18446744073709551614").total_ms, 18446744073709551616.0);
  // A u64 leaf keeps every bit up to its maximum.
  EXPECT_EQ(ResultWith("io_operations", "18446744073709551615").io_operations, UINT64_MAX);
}

TEST(ShardDecodeTest, IntegerTokensOutOfRangeAreRefused) {
  EXPECT_TRUE(Contains(ErrorWith("io_operations", "18446744073709551616"),
                       "integer out of range"));
  EXPECT_TRUE(Contains(ErrorWith("total_ms", "-99999999999999999999"), "integer out of range"));
}

TEST(ShardDecodeTest, NumbersOutOfRangeAreRefused) {
  for (const std::string& token :
       {std::string("1e400"), std::string("-1.5e309"), std::string("1e99999999999999999999999"),
        "1" + std::string(400, '0') + ".5"}) {
    EXPECT_TRUE(Contains(ErrorWith("total_ms", token), "number out of range")) << token;
  }
  // The largest finite double still reads.
  EXPECT_EQ(ResultWith("total_ms", "1.7976931348623157e308").total_ms, 1.7976931348623157e308);
}

TEST(ShardDecodeTest, UnderflowReadsAsSignedZero) {
  EXPECT_EQ(1.0 / ResultWith("total_ms", "1e-400").total_ms, kInf);
  EXPECT_EQ(1.0 / ResultWith("total_ms", "-1e-400").total_ms, -kInf);
  // Four hundred zeros after the point underflow despite a positive exponent.
  EXPECT_EQ(1.0 / ResultWith("total_ms", "0." + std::string(400, '0') + "1e5").total_ms, kInf);
}

TEST(ShardDecodeTest, NegativeZeroIsADoubleButNotAU64) {
  EXPECT_EQ(1.0 / ResultWith("total_ms", "-0").total_ms, -kInf);
  EXPECT_TRUE(Contains(ErrorWith("io_operations", "-0"), "'io_operations' is not a u64"));
  EXPECT_TRUE(Contains(ErrorWith("io_operations", "1.5"), "'io_operations' is not a u64"));
}

TEST(ShardDecodeTest, MalformedNumbersAreRefused) {
  for (const char* token : {"+5", "1e5e5", "-", "--1", "1-2", "1e", "x"}) {
    EXPECT_TRUE(Contains(ErrorWith("total_ms", token), "invalid number")) << token;
  }
}

TEST(ShardDecodeTest, ValuesOfAnotherKindAreRefusedByName) {
  EXPECT_TRUE(Contains(ErrorWith("total_ms", "\"1\""), "'total_ms' is not a number"));
  EXPECT_TRUE(Contains(ErrorWith("total_ms", "null"), "'total_ms' is not a number"));
  EXPECT_TRUE(Contains(ErrorWith("blocks_merged", "true"), "'blocks_merged' is not an integer"));
  EXPECT_TRUE(Contains(ErrorWith("ok", "1"), "'ok' is not a bool"));
  EXPECT_TRUE(Contains(ErrorWith("error_message", "7"), "'error_message' is not a string"));
  std::string text = EncodeShardArtifact(Decoded(0, 2));
  std::string not_array = text;
  not_array.replace(not_array.find("\"per_disk\": ["), 13, "\"per_disk\": {");
  auto decoded = DecodeShardArtifact(not_array);
  ASSERT_FALSE(decoded.ok());
  EXPECT_TRUE(Contains(decoded.status().message(), "'per_disk' is not an array"));
  EXPECT_TRUE(Contains(ErrorWith("shard", "7"), "expected '{'"));
}

TEST(ShardDecodeTest, EscapedMessagesAreUnescaped) {
  EXPECT_EQ(MessageWith(R"("\u0001")"), "\x01");
  EXPECT_EQ(MessageWith(R"("A\u00e9\u00FF")"), "A\xe9\xff");
  EXPECT_EQ(MessageWith(R"("q\"b\\s\/b\bf\fn\nr\rt\t")"), "q\"b\\s/b\bf\fn\nr\rt\t");
  // What the encoder escapes reads back as it was.
  const std::string message = "quote \" backslash \\ newline \n control \x01 end";
  auto decoded = DecodeShardArtifact(FailedTaskText(message));
  ASSERT_TRUE(decoded.ok()) << decoded.status().ToString();
  EXPECT_EQ(decoded->tasks.at(0).error.message(), message);
}

TEST(ShardDecodeTest, EscapesAboveLatin1OrMalformedAreRefused) {
  EXPECT_TRUE(Contains(ErrorWith("error_message", R"("\u0100")"), "above U+00FF"));
  EXPECT_TRUE(Contains(ErrorWith("error_message", R"("\u00g0")"), "invalid \\u escape"));
  EXPECT_TRUE(Contains(ErrorWith("error_message", R"("\x")"), "invalid escape"));
  std::string text = FailedTaskText("m");
  for (const char* tail : {R"("\u00)", R"("abc)", R"("a\)"}) {
    std::string cut = text.substr(0, text.find("\"error_message\": ") + 17) + tail;
    auto decoded = DecodeShardArtifact(cut);
    ASSERT_FALSE(decoded.ok()) << tail;
    EXPECT_TRUE(Contains(decoded.status().message(), std::string(tail) == R"("\u00)"
                                                         ? "truncated \\u escape"
                                                         : "unterminated string"))
        << tail << ": " << decoded.status().ToString();
  }
}

TEST(ShardDecodeTest, TrailingCharactersAreRefused) {
  const std::string text = EncodeShardArtifact(Decoded(0, 2));
  for (const char* tail : {" x", "}", "{}", ","}) {
    auto decoded = DecodeShardArtifact(text + tail);
    ASSERT_FALSE(decoded.ok()) << tail;
    EXPECT_TRUE(Contains(decoded.status().message(), "trailing characters after document"))
        << tail << ": " << decoded.status().ToString();
  }
  EXPECT_TRUE(DecodeShardArtifact(text + " \n\t\r ").ok());
}

TEST(ShardDecodeTest, WhitespaceBetweenTokensIsFree) {
  const std::string text = EncodeShardArtifact(Decoded(0, 2));
  // The artifact's strings hold no ':', ',' or whitespace, so these edits
  // touch only the space between tokens.
  std::string compact;
  std::string spread;
  for (char c : text) {
    if (c != ' ' && c != '\n') {
      compact.push_back(c);
    }
    if (c == ':' || c == ',' || c == '{' || c == '[') {
      spread += std::string(" \t\r\n") + c + "\n\t ";
    } else if (c != ' ') {
      spread.push_back(c);
    }
  }
  for (const std::string& variant : {compact, spread}) {
    auto decoded = DecodeShardArtifact(variant);
    ASSERT_TRUE(decoded.ok()) << decoded.status().ToString();
    EXPECT_EQ(EncodeShardArtifact(*decoded), text);
  }
}

/// `text` with line `a` and the line after it swapped: two members of one
/// object trade places.
std::string SwapLineWithNext(std::string text, const std::string& a) {
  size_t first = text.rfind('\n', text.find(a)) + 1;
  size_t second = text.find('\n', first) + 1;
  size_t after = text.find('\n', second) + 1;
  std::string line_a = text.substr(first, second - first);
  std::string line_b = text.substr(second, after - second);
  return text.replace(first, after - first, line_b + line_a);
}

TEST(ShardDecodeTest, ReorderedMembersAreRefused) {
  const std::string text = EncodeShardArtifact(Decoded(0, 2));
  // blocks_merged before total_ms: the first member is not the one expected.
  auto decoded = DecodeShardArtifact(SwapLineWithNext(text, "\"total_ms\""));
  ASSERT_FALSE(decoded.ok());
  EXPECT_TRUE(Contains(decoded.status().message(), "missing field 'total_ms'"))
      << decoded.status().ToString();
  // The same inside the shard header.
  decoded = DecodeShardArtifact(SwapLineWithNext(text, "\"index\""));
  ASSERT_FALSE(decoded.ok());
  EXPECT_TRUE(Contains(decoded.status().message(), "missing field 'index'"))
      << decoded.status().ToString();
}

TEST(ShardDecodeTest, UnknownMemberIsRefused) {
  const std::string text = EncodeShardArtifact(Decoded(0, 2));
  std::string inside = text;
  inside.insert(inside.find("\"blocks_merged\""), "\"extra\": 1, ");
  auto decoded = DecodeShardArtifact(inside);
  ASSERT_FALSE(decoded.ok());
  EXPECT_TRUE(Contains(decoded.status().message(), "missing field 'blocks_merged'"))
      << decoded.status().ToString();
  // After an object's last member, where the table lists none.
  std::string last = text;
  size_t at = last.find("\"spec_digest\"");
  last.insert(last.find('\n', at), ", \"extra\": 1");
  decoded = DecodeShardArtifact(last);
  ASSERT_FALSE(decoded.ok());
  EXPECT_TRUE(Contains(decoded.status().message(), "expected '}'")) << decoded.status().ToString();
}

TEST(ShardDecodeTest, DuplicateMemberIsRefused) {
  std::string text = EncodeShardArtifact(Decoded(0, 2));
  size_t begin = text.rfind('\n', text.find("\"total_ms\"")) + 1;
  size_t end = text.find('\n', begin) + 1;
  text.insert(begin, text.substr(begin, end - begin));
  auto decoded = DecodeShardArtifact(text);
  ASSERT_FALSE(decoded.ok());
  EXPECT_TRUE(Contains(decoded.status().message(), "missing field 'blocks_merged'"))
      << decoded.status().ToString();
}

TEST(ShardDecodeTest, ForgedRangeReservesNoMoreThanTheTextHolds) {
  const std::string huge = "2147483647";  // 2^31 - 1 tasks.
  const ShardArtifact real = Decoded(0, 2);
  std::string text = EncodeShardArtifact(real);
  text = Splice(Splice(Splice(text, "count", "1"), "end", huge), "total_tasks", huge);
  auto decoded = DecodeShardArtifact(text);
  ASSERT_TRUE(decoded.ok()) << decoded.status().ToString();
  EXPECT_EQ(decoded->range.size(), INT32_MAX);
  EXPECT_EQ(decoded->tasks.size(), real.tasks.size());
  EXPECT_LE(decoded->tasks.capacity(), text.size() / 48);
}

TEST(ShardDecodeTest, EveryTruncationIsRefused) {
  const std::string text = FailedTaskText("a \"quoted\" message");
  ASSERT_TRUE(DecodeShardArtifact(text).ok());
  // The text ends in "}\n": every shorter prefix lacks the closing brace.
  for (size_t size = 0; size + 2 < text.size(); ++size) {
    EXPECT_FALSE(DecodeShardArtifact(text.substr(0, size)).ok()) << size;
  }
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

TEST(ReadFileTest, ReadsBackWhatWasWritten) {
  const std::string path = FreshDir("read_file") + "/doc.bin";
  // Longer than one read, with every byte value.
  std::string contents(200000, '\0');
  for (size_t i = 0; i < contents.size(); ++i) {
    contents[i] = static_cast<char>(i * 7 % 256);
  }
  ASSERT_TRUE(util::WriteFileAtomic(path, contents).ok());
  auto read = util::ReadFile(path);
  ASSERT_TRUE(read.ok()) << read.status().ToString();
  EXPECT_EQ(*read, contents);
  ASSERT_TRUE(util::WriteFileAtomic(path, "").ok());
  read = util::ReadFile(path);
  ASSERT_TRUE(read.ok()) << read.status().ToString();
  EXPECT_EQ(*read, "");
}

TEST(ReadFileTest, DirectoryOrMissingFileIsAnIoErrorNamingThePath) {
  const std::string dir = FreshDir("read_file_dir");
  for (const std::string& path : {dir, dir + "/missing.json"}) {
    auto read = util::ReadFile(path);
    ASSERT_FALSE(read.ok()) << path;
    EXPECT_EQ(read.status().code(), StatusCode::kIoError) << read.status().ToString();
    EXPECT_NE(read.status().message().find(path), std::string::npos)
        << read.status().ToString();
  }
}

}  // namespace
}  // namespace emsim::sweep

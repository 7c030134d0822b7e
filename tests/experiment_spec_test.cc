#include "core/config.h"
#include "util/status.h"
#include "workload/experiment_spec.h"

#include <cstdint>
#include <cstdio>
#include <set>
#include <string>
#include <utility>

#include <gtest/gtest.h>

namespace emsim::workload {
namespace {

constexpr char kSpec[] = R"(
# shared defaults
trials = 3
disks = 5
blocks = 500

[baseline]
runs = 25
strategy = demand-run-only
n = 1
sync = unsync

[best]
runs = 25
strategy = all-disks-one-run
n = 10
cache = 1200
admission = greedy
victim = fewest-buffered
depletion = zipf
zipf_theta = 0.5
cpu_ms = 0.2
write_traffic = separate
write_disks = 2
write_batch = 20
)";

TEST(ExperimentSpecTest, ParsesSectionsWithDefaults) {
  auto specs = ParseExperimentSpec(kSpec);
  ASSERT_TRUE(specs.ok()) << specs.status().ToString();
  ASSERT_EQ(specs->size(), 2u);

  const ExperimentSpec& baseline = (*specs)[0];
  EXPECT_EQ(baseline.name, "baseline");
  EXPECT_EQ(baseline.trials, 3);          // Inherited default.
  EXPECT_EQ(baseline.config.num_disks, 5);
  EXPECT_EQ(baseline.config.blocks_per_run, 500);
  EXPECT_EQ(baseline.config.num_runs, 25);
  EXPECT_EQ(baseline.config.prefetch_depth, 1);
  EXPECT_EQ(baseline.config.strategy, core::Strategy::kDemandRunOnly);
  EXPECT_EQ(baseline.config.sync, core::SyncMode::kUnsynchronized);

  const ExperimentSpec& best = (*specs)[1];
  EXPECT_EQ(best.config.strategy, core::Strategy::kAllDisksOneRun);
  EXPECT_EQ(best.config.cache_blocks, 1200);
  EXPECT_EQ(best.config.admission, core::AdmissionPolicy::kGreedy);
  EXPECT_EQ(best.config.victim, core::VictimPolicy::kFewestBuffered);
  EXPECT_EQ(best.config.depletion, core::DepletionKind::kZipf);
  EXPECT_DOUBLE_EQ(best.config.zipf_theta, 0.5);
  EXPECT_DOUBLE_EQ(best.config.cpu_ms_per_block, 0.2);
  EXPECT_EQ(best.config.write_traffic, core::WriteTraffic::kSeparateDisks);
  EXPECT_EQ(best.config.num_write_disks, 2);
  EXPECT_EQ(best.config.write_batch_blocks, 20);
}

TEST(ExperimentSpecTest, ErrorsCarryLineNumbers) {
  auto r1 = ParseExperimentSpec("[a]\nbogus_key = 1\n");
  EXPECT_FALSE(r1.ok());
  EXPECT_NE(r1.status().message().find("line 2"), std::string::npos);

  auto r2 = ParseExperimentSpec("[a]\nruns = abc\n");
  EXPECT_FALSE(r2.ok());
  EXPECT_NE(r2.status().message().find("line 2"), std::string::npos);

  auto r3 = ParseExperimentSpec("[a]\nstrategy = warp-drive\n");
  EXPECT_FALSE(r3.ok());
  EXPECT_NE(r3.status().message().find("warp-drive"), std::string::npos);
}

TEST(ExperimentSpecTest, ErrorsNameSourceFileWhenGiven) {
  auto r1 = ParseExperimentSpec("[a]\nbogus_key = 1\n", "specs/paper.ini");
  EXPECT_FALSE(r1.ok());
  EXPECT_NE(r1.status().message().find("specs/paper.ini:2"), std::string::npos)
      << r1.status().ToString();

  auto r2 = ParseExperimentSpec("[a]\nruns =\n", "x.ini");
  EXPECT_FALSE(r2.ok());
  EXPECT_NE(r2.status().message().find("x.ini:2"), std::string::npos);
}

TEST(ExperimentSpecTest, LoadErrorsCarryFileAndLine) {
  std::string path = testing::TempDir() + "/bad_spec.ini";
  std::FILE* f = std::fopen(path.c_str(), "w");
  ASSERT_NE(f, nullptr);
  std::fputs("[a]\nruns = 10\nbogus_key = 1\n", f);
  std::fclose(f);
  auto result = LoadExperimentSpec(path);
  EXPECT_FALSE(result.ok());
  EXPECT_NE(result.status().message().find(path + ":3"), std::string::npos)
      << result.status().ToString();
  ::remove(path.c_str());
}

TEST(ExperimentSpecTest, UnreadableSpecIsAnIoErrorNamingThePath) {
  // A directory opens but does not read: it must not parse as an empty spec.
  const std::string dir = testing::TempDir();
  for (const std::string& path : {dir, dir + "/no_such_spec.ini"}) {
    auto result = LoadExperimentSpec(path);
    ASSERT_FALSE(result.ok()) << path;
    EXPECT_EQ(result.status().code(), StatusCode::kIoError) << result.status().ToString();
    EXPECT_NE(result.status().message().find(path), std::string::npos)
        << result.status().ToString();
  }
}

TEST(ExperimentSpecTest, RejectsMalformedStructure) {
  EXPECT_FALSE(ParseExperimentSpec("").ok());                 // No sections.
  EXPECT_FALSE(ParseExperimentSpec("runs = 5\n").ok());       // Defaults only.
  EXPECT_FALSE(ParseExperimentSpec("[a\nruns = 5\n").ok());   // Unterminated.
  EXPECT_FALSE(ParseExperimentSpec("[]\n").ok());             // Empty name.
  EXPECT_FALSE(ParseExperimentSpec("[a]\nnot a kv line\n").ok());
  EXPECT_FALSE(ParseExperimentSpec("[a]\nruns =\n").ok());    // Empty value.
}

TEST(ExperimentSpecTest, RejectsOutOfRangeIntegers) {
  // strtoll saturates on overflow; the parser must reject rather than
  // accept the saturated value and truncate it to garbage (found by
  // fuzz_experiment_spec: "trials = 99999999999999999999" used to parse
  // as a negative trial count and break the ToSpec round-trip).
  auto huge = ParseExperimentSpec("trials = 99999999999999999999\n[big]\nn = 1\n");
  ASSERT_FALSE(huge.ok());
  EXPECT_NE(huge.status().message().find("out of range"), std::string::npos);
  // int64 keys reject values past LLONG_MAX; int32 keys also reject
  // values that fit int64 but not int.
  EXPECT_FALSE(ParseExperimentSpec("[a]\nblocks = 99999999999999999999\n").ok());
  EXPECT_FALSE(ParseExperimentSpec("[a]\nruns = 3000000000\n").ok());
  EXPECT_FALSE(ParseExperimentSpec("[a]\nn = -3000000000\n").ok());
  // The int64 boundary itself still parses (seed has no semantic cap;
  // int32 keys like runs are capped far below INT_MAX by disk capacity,
  // so the range check is only observable through the rejections above).
  auto ok = ParseExperimentSpec("[a]\nseed = 9223372036854775807\n");
  ASSERT_TRUE(ok.ok()) << ok.status().ToString();
  EXPECT_EQ((*ok)[0].config.seed, 9223372036854775807ULL);
}

TEST(ExperimentSpecTest, RejectsNonFiniteNumbers) {
  // strtod accepts these spellings; Validate's `x < 0` range checks let a
  // NaN through to a CHECK abort inside the simulation.
  for (const char* text : {"nan", "inf", "-inf"}) {
    SCOPED_TRACE(text);
    auto result = ParseExperimentSpec(std::string("[a]\nfault_timeout_ms = ") + text + "\n");
    ASSERT_FALSE(result.ok());
    EXPECT_NE(result.status().message().find("fault_timeout_ms"), std::string::npos);
    EXPECT_NE(result.status().message().find("finite"), std::string::npos);
  }
  EXPECT_FALSE(ParseExperimentSpec("[a]\nzipf_theta = nan\n").ok());
  EXPECT_FALSE(ParseExperimentSpec("[a]\ncpu_ms = inf\n").ok());
}

TEST(ExperimentSpecTest, InvalidConfigNamedInError) {
  auto result = ParseExperimentSpec("[broken]\nruns = 0\n");
  EXPECT_FALSE(result.ok());
  EXPECT_NE(result.status().message().find("broken"), std::string::npos);
}

TEST(ExperimentSpecTest, CommentsAndWhitespaceIgnored) {
  auto specs = ParseExperimentSpec(
      "  # leading comment\n\n[x]   \n  runs = 10   # trailing comment\n");
  ASSERT_TRUE(specs.ok()) << specs.status().ToString();
  EXPECT_EQ((*specs)[0].config.num_runs, 10);
}

TEST(ExperimentSpecTest, RoundTripsThroughToSpec) {
  auto specs = ParseExperimentSpec(kSpec);
  ASSERT_TRUE(specs.ok());
  std::string rendered = ToSpec((*specs)[1]);
  auto reparsed = ParseExperimentSpec(rendered);
  ASSERT_TRUE(reparsed.ok()) << reparsed.status().ToString();
  const core::MergeConfig& a = (*specs)[1].config;
  const core::MergeConfig& b = (*reparsed)[0].config;
  EXPECT_EQ(a.num_runs, b.num_runs);
  EXPECT_EQ(a.prefetch_depth, b.prefetch_depth);
  EXPECT_EQ(a.cache_blocks, b.cache_blocks);
  EXPECT_EQ(a.strategy, b.strategy);
  EXPECT_EQ(a.admission, b.admission);
  EXPECT_EQ(a.victim, b.victim);
  EXPECT_EQ(a.write_traffic, b.write_traffic);
  EXPECT_DOUBLE_EQ(a.zipf_theta, b.zipf_theta);
}

TEST(ExperimentSpecTest, ToSpecRoundTripsSeed) {
  auto specs = ParseExperimentSpec("[seeded]\nruns = 10\nseed = 4242\ntrials = 7\n");
  ASSERT_TRUE(specs.ok());
  auto reparsed = ParseExperimentSpec(ToSpec((*specs)[0]));
  ASSERT_TRUE(reparsed.ok()) << reparsed.status().ToString();
  EXPECT_EQ((*reparsed)[0].config.seed, 4242u);
  EXPECT_EQ((*reparsed)[0].trials, 7);
}

TEST(ExperimentSpecTest, ToSpecRoundTripsEveryDoubleExactly) {
  // Every double key at 17 significant digits, more than %g's six; zipf
  // depletion and both failing disks put each key in use.
  const std::pair<const char*, const char*> kDoubles[] = {
      {"zipf_theta", "0.73456789012345678"},
      {"cpu_ms", "0.0123456789012345678"},
      {"fault_media_error_rate", "0.0123456789012345678"},
      {"fault_spike_rate", "0.0234567890123456789"},
      {"fault_spike_ms", "12.345678901234567"},
      {"fault_slow_factor", "3.1415926535897932"},
      {"fault_slow_start_ms", "1.2345678901234567"},
      {"fault_slow_end_ms", "987.65432109876543"},
      {"fault_stop_start_ms", "2.3456789012345678"},
      {"fault_stop_end_ms", "876.54321098765432"},
      {"fault_timeout_ms", "1234.5678901234567"},
      {"fault_backoff_ms", "19.876543210987654"},
      {"fault_backoff_mult", "2.7182818284590452"},
  };
  std::string text =
      "[precise]\nruns = 4\ndisks = 2\nblocks = 30\ndepletion = zipf\n"
      "fault_slow_disk = 0\nfault_stop_disk = 1\n";
  for (const auto& [key, value] : kDoubles) {
    text += std::string(key) + " = " + value + "\n";
  }
  auto specs = ParseExperimentSpec(text);
  ASSERT_TRUE(specs.ok()) << specs.status().ToString();
  const ExperimentSpec& original = (*specs)[0];
  std::string rendered = ToSpec(original);
  auto reparsed = ParseExperimentSpec(rendered);
  ASSERT_TRUE(reparsed.ok()) << reparsed.status().ToString();
  ASSERT_EQ(reparsed->size(), 1u);
  EXPECT_TRUE((*reparsed)[0].config == original.config) << rendered;
  EXPECT_EQ((*reparsed)[0].trials, original.trials);
  EXPECT_EQ((*reparsed)[0].name, original.name);
}

TEST(ExperimentSpecTest, ToSpecRoundTripsUnusedKeysAndFullRangeSeeds) {
  // Keys that do not shape this experiment (zipf_theta under uniform
  // depletion, write keys without write traffic, retry keys without fault
  // injection) are still written when set, and seeds cover all of uint64_t:
  // -1 renders as 18446744073709551615 and must read back.
  auto specs = ParseExperimentSpec(
      "[unused]\nruns = 4\nzipf_theta = 0.5\nwrite_batch = 3\nfault_max_retries = 9\n"
      "fault_spike_ms = 7\nfault_seed = -1\nseed = -2\n");
  ASSERT_TRUE(specs.ok()) << specs.status().ToString();
  const ExperimentSpec& original = (*specs)[0];
  EXPECT_EQ(original.config.seed, ~uint64_t{1});
  std::string rendered = ToSpec(original);
  auto reparsed = ParseExperimentSpec(rendered);
  ASSERT_TRUE(reparsed.ok()) << reparsed.status().ToString() << "\n" << rendered;
  EXPECT_TRUE((*reparsed)[0].config == original.config) << rendered;
}

TEST(ExperimentSpecTest, ToSpecKeepsShortFormWhenItIsExact) {
  // Values that %g already renders exactly keep that form, so SpecDigest
  // (which hashes ToSpec) is unchanged for every spec written by hand.
  auto specs = ParseExperimentSpec("[short]\nruns = 4\ncpu_ms = 0.5\nfault_spike_rate = 0.05\n");
  ASSERT_TRUE(specs.ok()) << specs.status().ToString();
  std::string rendered = ToSpec((*specs)[0]);
  EXPECT_NE(rendered.find("cpu_ms = 0.5\n"), std::string::npos) << rendered;
  EXPECT_NE(rendered.find("fault_spike_rate = 0.05\n"), std::string::npos) << rendered;
}

TEST(ExperimentSpecTest, ApplyExperimentKeyNamesTheKey) {
  ExperimentSpec spec;
  EXPECT_TRUE(ApplyExperimentKey("n", "3", &spec).ok());
  EXPECT_EQ(spec.config.prefetch_depth, 3);
  for (const auto& [key, value] : {std::pair<const char*, const char*>{"n", "4294967297"},
                                   {"runs", "x"},
                                   {"cpu_ms", "nan"},
                                   {"trials", "0"},
                                   {"strategy", "fastest"}}) {
    SCOPED_TRACE(key);
    Status status = ApplyExperimentKey(key, value, &spec);
    EXPECT_EQ(status.code(), StatusCode::kInvalidArgument);
    EXPECT_NE(status.message().find(key), std::string::npos) << status.message();
  }
  // Rejected values leave the spec alone.
  EXPECT_EQ(spec.config.prefetch_depth, 3);
  EXPECT_EQ(spec.trials, ExperimentSpec{}.trials);
  EXPECT_FALSE(ApplyExperimentKey("runz", "3", &spec).ok());
}

TEST(ExperimentSpecTest, PrintSpecRoundTripsThroughLoad) {
  // What `emsim_cli --print_spec` emits is ToSpec output; it must reload
  // through LoadExperimentSpec to the same experiment — i.e. ToSpec is a
  // fixed point of render -> load -> render.
  auto specs = ParseExperimentSpec(kSpec);
  ASSERT_TRUE(specs.ok());
  for (const ExperimentSpec& spec : *specs) {
    std::string rendered = ToSpec(spec);
    std::string path = testing::TempDir() + "/printed_spec.ini";
    std::FILE* f = std::fopen(path.c_str(), "w");
    ASSERT_NE(f, nullptr);
    std::fputs(rendered.c_str(), f);
    std::fclose(f);
    auto reloaded = LoadExperimentSpec(path);
    ASSERT_TRUE(reloaded.ok()) << reloaded.status().ToString();
    ASSERT_EQ(reloaded->size(), 1u);
    EXPECT_EQ(ToSpec((*reloaded)[0]), rendered);
    ::remove(path.c_str());
  }
}

TEST(ExperimentSpecTest, SweepsExpandCrossProduct) {
  auto specs = ParseExperimentSpec(
      "[sweep]\nruns = 10\nn = 1, 5, 10\ndisks = 2, 4\nstrategy = demand-run-only\n");
  ASSERT_TRUE(specs.ok()) << specs.status().ToString();
  ASSERT_EQ(specs->size(), 6u);  // 3 x 2.
  std::set<std::string> names;
  for (const auto& spec : *specs) {
    names.insert(spec.name);
    EXPECT_EQ(spec.config.num_runs, 10);
  }
  EXPECT_EQ(names.size(), 6u);
  EXPECT_TRUE(names.count("sweep/n=1/disks=2"));
  EXPECT_TRUE(names.count("sweep/n=10/disks=4"));
}

TEST(ExperimentSpecTest, SingleValuedKeysDoNotRename) {
  auto specs = ParseExperimentSpec("[plain]\nruns = 10\nn = 5\n");
  ASSERT_TRUE(specs.ok());
  ASSERT_EQ(specs->size(), 1u);
  EXPECT_EQ((*specs)[0].name, "plain");
}

TEST(ExperimentSpecTest, SweepsInDefaultsRejected) {
  auto result = ParseExperimentSpec("n = 1, 5\n[x]\nruns = 10\n");
  EXPECT_FALSE(result.ok());
  EXPECT_NE(result.status().message().find("sections"), std::string::npos);
}

TEST(ExperimentSpecTest, SweepBadValueNamesLine) {
  auto result = ParseExperimentSpec("[x]\nn = 1, banana\n");
  EXPECT_FALSE(result.ok());
  EXPECT_NE(result.status().message().find("line 2"), std::string::npos);
}

TEST(ExperimentSpecTest, SweepExplosionBounded) {
  // 11^4 > 1024: must be rejected, not OOM.
  std::string spec = "[boom]\n";
  for (const char* key : {"runs", "disks", "n", "blocks"}) {
    spec += std::string(key) + " = 1,2,3,4,5,6,7,8,9,10,11\n";
  }
  auto result = ParseExperimentSpec(spec);
  EXPECT_FALSE(result.ok());
  EXPECT_NE(result.status().message().find("expand"), std::string::npos);
}

TEST(ExperimentSpecTest, TraceDepletionRejected) {
  EXPECT_FALSE(ParseExperimentSpec("[a]\ndepletion = trace\n").ok());
}

TEST(EnumNamesTest, RoundTrip) {
  using namespace emsim::core;
  EXPECT_EQ(*ParseStrategy(StrategyName(Strategy::kAllDisksOneRun)),
            Strategy::kAllDisksOneRun);
  EXPECT_EQ(*ParseSyncMode(SyncModeName(SyncMode::kSynchronized)),
            SyncMode::kSynchronized);
  EXPECT_EQ(*ParseAdmissionPolicy(AdmissionPolicyName(AdmissionPolicy::kGreedy)),
            AdmissionPolicy::kGreedy);
  EXPECT_EQ(*ParseVictimPolicy(VictimPolicyName(VictimPolicy::kNearestHead)),
            VictimPolicy::kNearestHead);
  EXPECT_EQ(*ParseDepletionKind(DepletionKindName(DepletionKind::kZipf)),
            DepletionKind::kZipf);
  EXPECT_EQ(*ParseWriteTraffic(WriteTrafficName(WriteTraffic::kSharedDisks)),
            WriteTraffic::kSharedDisks);
  EXPECT_FALSE(ParseStrategy("nonsense").ok());
}

}  // namespace
}  // namespace emsim::workload

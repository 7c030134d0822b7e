// Run formation and the depletion trace: runs are sorted permutations of
// their input, and ExtractDepletionTrace agrees with a brute-force k-way
// merge on every key distribution, run formation strategy and edge geometry.

#include <algorithm>
#include <cstddef>
#include <cstdint>
#include <initializer_list>
#include <tuple>
#include <vector>

#include <gtest/gtest.h>

#include "core/config.h"
#include "extsort/depletion_trace.h"
#include "extsort/record.h"
#include "extsort/run_formation.h"
#include "util/rng.h"
#include "util/status.h"
#include "workload/record_generator.h"

namespace emsim::extsort {
namespace {

using workload::KeyDistribution;

std::vector<Record> GenerateRecords(size_t n, KeyDistribution dist, uint64_t seed) {
  workload::RecordGeneratorOptions opt;
  opt.distribution = dist;
  opt.seed = seed;
  workload::RecordGenerator gen(opt);
  std::vector<Record> records;
  records.reserve(n);
  for (size_t i = 0; i < n; ++i) {
    records.push_back({gen.NextKey(), i});  // Value = original position.
  }
  return records;
}

/// A run of records with the given keys and value 0.
SortedRun Keys(std::initializer_list<uint64_t> keys) {
  SortedRun run;
  for (uint64_t key : keys) {
    run.push_back({key, 0});
  }
  return run;
}

int64_t CeilDiv(size_t a, size_t b) { return static_cast<int64_t>((a + b - 1) / b); }

/// The merge the trace stands for, done the slow way: pull each run's first
/// record, then repeatedly output the least head by (key, value), the lower
/// run on a tie, pull that run's next record, and note a block when the
/// pulled record ends one.
std::vector<int> BruteForceTrace(const std::vector<SortedRun>& runs, size_t records_per_block) {
  auto ends_block = [&](size_t r, size_t p) {
    return (p + 1) % records_per_block == 0 || p + 1 == runs[r].size();
  };
  std::vector<int> trace;
  for (size_t r = 0; r < runs.size(); ++r) {
    if (!runs[r].empty() && ends_block(r, 0)) {
      trace.push_back(static_cast<int>(r));
    }
  }
  std::vector<size_t> head(runs.size(), 0);
  for (;;) {
    size_t least = runs.size();
    for (size_t r = 0; r < runs.size(); ++r) {
      if (head[r] < runs[r].size() &&
          (least == runs.size() || runs[r][head[r]] < runs[least][head[least]])) {
        least = r;
      }
    }
    if (least == runs.size()) {
      return trace;
    }
    size_t p = ++head[least];
    if (p < runs[least].size() && ends_block(least, p)) {
      trace.push_back(static_cast<int>(least));
    }
  }
}

/// The trace equals the brute-force merge's, and run r appears in it exactly
/// run_blocks[r] = ceil(n_r / records_per_block) times.
void ExpectTraceMatchesMerge(const std::vector<SortedRun>& runs, size_t records_per_block) {
  auto got = ExtractDepletionTrace(runs, records_per_block);
  ASSERT_TRUE(got.ok()) << got.status().ToString();
  EXPECT_EQ(got->trace, BruteForceTrace(runs, records_per_block));
  std::vector<int64_t> blocks;
  for (const SortedRun& run : runs) {
    blocks.push_back(CeilDiv(run.size(), records_per_block));
  }
  EXPECT_EQ(got->run_blocks, blocks);
  std::vector<int64_t> counts(runs.size(), 0);
  for (int r : got->trace) {
    ASSERT_GE(r, 0);
    ASSERT_LT(r, static_cast<int>(counts.size()));
    ++counts[static_cast<size_t>(r)];
  }
  EXPECT_EQ(counts, blocks);
}

TEST(RecordTest, OrderingByKeyThenValue) {
  Record a{1, 5};
  Record b{2, 0};
  Record c{1, 9};
  EXPECT_LT(a, b);
  EXPECT_LT(a, c);
  EXPECT_FALSE(b < a);
  EXPECT_EQ(a, (Record{1, 5}));
}

class FormRunsConserves
    : public ::testing::TestWithParam<std::tuple<KeyDistribution, RunFormationStrategy>> {};

TEST_P(FormRunsConserves, RunsAreSortedAndHoldTheInput) {
  auto [dist, strategy] = GetParam();
  auto input = GenerateRecords(5000, dist, 11);
  RunFormationOptions options;
  options.memory_records = 300;
  options.strategy = strategy;
  auto runs = FormRuns(input, options);
  ASSERT_TRUE(runs.ok()) << runs.status().ToString();
  std::vector<Record> all;
  for (const SortedRun& run : *runs) {
    EXPECT_FALSE(run.empty());
    EXPECT_TRUE(std::ranges::is_sorted(run));
    all.insert(all.end(), run.begin(), run.end());
  }
  std::sort(all.begin(), all.end());
  std::vector<Record> expect = input;
  std::sort(expect.begin(), expect.end());
  EXPECT_EQ(all, expect);
}

INSTANTIATE_TEST_SUITE_P(
    DistributionsAndStrategies, FormRunsConserves,
    ::testing::Combine(::testing::Values(KeyDistribution::kUniform, KeyDistribution::kZipf,
                                         KeyDistribution::kNearlySorted,
                                         KeyDistribution::kReverseSorted),
                       ::testing::Values(RunFormationStrategy::kLoadSort,
                                         RunFormationStrategy::kReplacementSelection)));

class TraceMatchesBruteForce
    : public ::testing::TestWithParam<
          std::tuple<KeyDistribution, RunFormationStrategy, size_t>> {};

TEST_P(TraceMatchesBruteForce, OnFormedRuns) {
  auto [dist, strategy, records_per_block] = GetParam();
  auto input = GenerateRecords(5000, dist, 11);
  RunFormationOptions options;
  options.memory_records = 300;
  options.strategy = strategy;
  auto runs = FormRuns(input, options);
  ASSERT_TRUE(runs.ok()) << runs.status().ToString();
  ExpectTraceMatchesMerge(*runs, records_per_block);
}

INSTANTIATE_TEST_SUITE_P(
    DistributionsStrategiesAndBlockSizes, TraceMatchesBruteForce,
    ::testing::Combine(::testing::Values(KeyDistribution::kUniform, KeyDistribution::kZipf,
                                         KeyDistribution::kNearlySorted,
                                         KeyDistribution::kReverseSorted),
                       ::testing::Values(RunFormationStrategy::kLoadSort,
                                         RunFormationStrategy::kReplacementSelection),
                       ::testing::Values(size_t{1}, size_t{7}, size_t{255})));

TEST(DepletionTraceTest, HandWorkedMerge) {
  // Blocks [1 4][5] and [2 3][6]: outputting 1 pulls 4 (run 0's first block
  // is used up), 2 pulls 3, 3 pulls 6 (run 1's last block), 4 pulls 5.
  std::vector<SortedRun> runs = {Keys({1, 4, 5}), Keys({2, 3, 6})};
  auto got = ExtractDepletionTrace(runs, 2);
  ASSERT_TRUE(got.ok());
  EXPECT_EQ(got->trace, (std::vector<int>{0, 1, 1, 0}));
  EXPECT_EQ(got->run_blocks, (std::vector<int64_t>{2, 2}));
  ExpectTraceMatchesMerge(runs, 2);
}

TEST(DepletionTraceTest, OneRecordPerBlock) {
  // Every pull uses up a block: first each run's opening pull in run order,
  // then the run of each output record that still has one to pull.
  std::vector<SortedRun> runs = {Keys({1, 3}), Keys({2, 4})};
  auto got = ExtractDepletionTrace(runs, 1);
  ASSERT_TRUE(got.ok());
  EXPECT_EQ(got->trace, (std::vector<int>{0, 1, 0, 1}));
  ExpectTraceMatchesMerge(runs, 1);
  ExpectTraceMatchesMerge({Keys({1, 2, 3, 4, 5}), Keys({6}), Keys({0, 7, 8})}, 1);
}

TEST(DepletionTraceTest, SingleRecordRunDepletesAtInitialPull) {
  std::vector<SortedRun> runs = {Keys({5, 6, 7, 8}), Keys({1}), Keys({2, 3, 9})};
  auto got = ExtractDepletionTrace(runs, 4);
  ASSERT_TRUE(got.ok());
  // Run 1's only block is used up before any record is output, although its
  // record is the first to leave the merge.
  EXPECT_EQ(got->trace, (std::vector<int>{1, 2, 0}));
  ExpectTraceMatchesMerge(runs, 4);
  ExpectTraceMatchesMerge({Keys({9}), Keys({1, 2}), Keys({3})}, 2);
}

TEST(DepletionTraceTest, LastBlockHoldsOneRecord) {
  // 7 = 2 * 3 + 1 and 4 = 3 + 1 records at 3 per block, keys interleaved.
  std::vector<SortedRun> runs = {Keys({0, 2, 4, 6, 8, 10, 12}), Keys({1, 3, 5, 7})};
  auto got = ExtractDepletionTrace(runs, 3);
  ASSERT_TRUE(got.ok());
  EXPECT_EQ(got->run_blocks, (std::vector<int64_t>{3, 2}));
  ExpectTraceMatchesMerge(runs, 3);
}

TEST(DepletionTraceTest, SingleRun) {
  std::vector<SortedRun> runs = {Keys({1, 2, 3, 4, 5, 6, 7, 8, 9, 10})};
  auto got = ExtractDepletionTrace(runs, 3);
  ASSERT_TRUE(got.ok());
  EXPECT_EQ(got->trace, (std::vector<int>{0, 0, 0, 0}));
  EXPECT_EQ(got->run_blocks, (std::vector<int64_t>{4}));
  ExpectTraceMatchesMerge(runs, 1);
  ExpectTraceMatchesMerge(runs, 10);
}

TEST(DepletionTraceTest, ReplacementSelectionUnequalRuns) {
  auto input = GenerateRecords(3000, KeyDistribution::kUniform, 17);
  RunFormationOptions options;
  options.memory_records = 100;
  options.strategy = RunFormationStrategy::kReplacementSelection;
  auto runs = FormRuns(input, options);
  ASSERT_TRUE(runs.ok());
  auto [shortest, longest] = std::minmax_element(
      runs->begin(), runs->end(),
      [](const SortedRun& a, const SortedRun& b) { return a.size() < b.size(); });
  ASSERT_NE(shortest->size(), longest->size());
  for (size_t records_per_block : {1, 2, 7, 16, 255}) {
    ExpectTraceMatchesMerge(*runs, records_per_block);
  }
}

TEST(DepletionTraceTest, EqualRecordsLeaveInRunOrder) {
  // Run 0 wins every tie, so its blocks are used up before run 1's.
  std::vector<SortedRun> runs = {Keys({5, 5, 5}), Keys({5, 5})};
  auto got = ExtractDepletionTrace(runs, 2);
  ASSERT_TRUE(got.ok());
  EXPECT_EQ(got->trace, (std::vector<int>{0, 0, 1}));
  ExpectTraceMatchesMerge(runs, 2);
}

TEST(DepletionTraceTest, EmptyRunHasNoBlocks) {
  std::vector<SortedRun> runs = {SortedRun{}, Keys({1, 2})};
  auto got = ExtractDepletionTrace(runs, 1);
  ASSERT_TRUE(got.ok());
  EXPECT_EQ(got->trace, (std::vector<int>{1, 1}));
  EXPECT_EQ(got->run_blocks, (std::vector<int64_t>{0, 2}));
}

TEST(DepletionTraceTest, RejectsUnsortedRun) {
  auto got = ExtractDepletionTrace({Keys({1, 2}), Keys({100, 5})}, 1);
  EXPECT_FALSE(got.ok());
  EXPECT_EQ(got.status().code(), StatusCode::kInvalidArgument);
}

TEST(DepletionTraceTest, RejectsNoRunsAndEmptyBlocks) {
  EXPECT_EQ(ExtractDepletionTrace({}, 1).status().code(), StatusCode::kInvalidArgument);
  EXPECT_EQ(ExtractDepletionTrace({Keys({1})}, 0).status().code(),
            StatusCode::kInvalidArgument);
}

TEST(DepletionTraceTest, TraceFeedsSimulatorValidation) {
  auto input = GenerateRecords(3000, KeyDistribution::kUniform, 31);
  RunFormationOptions opt;
  opt.memory_records = 300;
  auto runs = FormRuns(input, opt);
  ASSERT_TRUE(runs.ok());
  auto got = ExtractDepletionTrace(*runs, 15);
  ASSERT_TRUE(got.ok());
  EXPECT_EQ(got->run_blocks, std::vector<int64_t>(10, 20));
  EXPECT_EQ(got->trace.size(), 200u);

  core::MergeConfig cfg;
  cfg.num_runs = static_cast<int>(got->run_blocks.size());
  cfg.num_disks = 5;
  cfg.run_lengths = got->run_blocks;
  cfg.depletion = core::DepletionKind::kTrace;
  cfg.trace = got->trace;
  EXPECT_TRUE(cfg.Validate().ok()) << cfg.Validate().ToString();
}

class DepletionTraceRandomized : public ::testing::TestWithParam<int> {};

TEST_P(DepletionTraceRandomized, MatchesBruteForce) {
  // Short runs, a narrow key range (ties across runs) and block sizes from
  // one record to more than a whole run.
  int k = GetParam();
  Rng rng(static_cast<uint64_t>(k) * 7919);
  for (int trial = 0; trial < 10; ++trial) {
    std::vector<SortedRun> runs(static_cast<size_t>(k));
    for (SortedRun& run : runs) {
      size_t len = 1 + rng.UniformInt(40);
      for (size_t i = 0; i < len; ++i) {
        run.push_back({rng.UniformInt(50), rng.UniformInt(3)});
      }
      std::sort(run.begin(), run.end());
    }
    size_t records_per_block = 1 + rng.UniformInt(45);
    SCOPED_TRACE(::testing::Message() << "k=" << k << " trial=" << trial
                                      << " records_per_block=" << records_per_block);
    ExpectTraceMatchesMerge(runs, records_per_block);
  }
}

INSTANTIATE_TEST_SUITE_P(FanIns, DepletionTraceRandomized,
                         ::testing::Values(1, 2, 3, 4, 5, 7, 8, 13, 16, 25, 50, 64, 100));

TEST(RunFormationTest, LoadSortRunCountAndSizes) {
  auto input = GenerateRecords(1000, KeyDistribution::kUniform, 5);
  RunFormationOptions opt;
  opt.memory_records = 256;
  auto result = FormRuns(input, opt);
  ASSERT_TRUE(result.ok());
  ASSERT_EQ(result->size(), 4u);  // ceil(1000/256)
  for (size_t i = 0; i < result->size(); ++i) {
    const SortedRun& run = (*result)[i];
    EXPECT_EQ(run.size(), i < 3 ? 256u : 232u);
    EXPECT_TRUE(std::ranges::is_sorted(run));
    // Each run is one memory-load of the input, in input order.
    std::vector<Record> load(input.begin() + static_cast<std::ptrdiff_t>(i * 256),
                             input.begin() + static_cast<std::ptrdiff_t>(i * 256 + run.size()));
    std::sort(load.begin(), load.end());
    EXPECT_EQ(run, load);
  }
}

TEST(RunFormationTest, ReplacementSelectionDoublesRunLength) {
  // Knuth: on random input, replacement selection runs average ~2x memory.
  auto input = GenerateRecords(20000, KeyDistribution::kUniform, 21);
  RunFormationOptions opt;
  opt.memory_records = 500;

  opt.strategy = RunFormationStrategy::kLoadSort;
  auto load = FormRuns(input, opt);
  ASSERT_TRUE(load.ok());

  opt.strategy = RunFormationStrategy::kReplacementSelection;
  auto rs = FormRuns(input, opt);
  ASSERT_TRUE(rs.ok());

  EXPECT_EQ(load->size(), 40u);
  EXPECT_LT(rs->size(), 26u);  // ~20000/1000 = 20 expected.
  EXPECT_GT(rs->size(), 15u);
}

TEST(RunFormationTest, ReplacementSelectionSortedInputOneRun) {
  auto input = GenerateRecords(5000, KeyDistribution::kNearlySorted, 3);
  std::sort(input.begin(), input.end());
  RunFormationOptions opt;
  opt.memory_records = 100;
  opt.strategy = RunFormationStrategy::kReplacementSelection;
  auto result = FormRuns(input, opt);
  ASSERT_TRUE(result.ok());
  ASSERT_EQ(result->size(), 1u);  // Already sorted: a single giant run.
  EXPECT_EQ(result->front(), input);
}

TEST(RunFormationTest, ReverseSortedWorstCase) {
  auto input = GenerateRecords(2000, KeyDistribution::kReverseSorted, 3);
  RunFormationOptions opt;
  opt.memory_records = 100;
  opt.strategy = RunFormationStrategy::kReplacementSelection;
  auto result = FormRuns(input, opt);
  ASSERT_TRUE(result.ok());
  // Descending input defeats replacement selection: runs equal memory size.
  EXPECT_EQ(result->size(), 20u);
}

TEST(RunFormationTest, RejectsEmptyInput) {
  RunFormationOptions opt;
  EXPECT_FALSE(FormRuns({}, opt).ok());
}

TEST(RunFormationTest, RejectsZeroMemory) {
  auto input = GenerateRecords(10, KeyDistribution::kUniform, 1);
  RunFormationOptions opt;
  opt.memory_records = 0;
  EXPECT_EQ(FormRuns(input, opt).status().code(), StatusCode::kInvalidArgument);
}

}  // namespace
}  // namespace emsim::extsort

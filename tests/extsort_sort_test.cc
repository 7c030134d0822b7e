#include <algorithm>
#include <cstddef>
#include <cstdint>
#include <tuple>
#include <vector>

#include <gtest/gtest.h>

#include "extsort/block_device.h"
#include "extsort/merger.h"
#include "extsort/record.h"
#include "extsort/run_formation.h"
#include "extsort/run_io.h"
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

/// Streams a run back through RunReader and checks it yields exactly the
/// records its descriptor claims.
std::vector<Record> ReadAll(BlockDevice* device, const RunDescriptor& run) {
  RunReader reader(device, run);
  std::vector<Record> records;
  Record r;
  while (reader.Next(&r)) {
    records.push_back(r);
  }
  EXPECT_TRUE(reader.status().ok()) << reader.status().ToString();
  EXPECT_EQ(records.size(), run.num_records);
  return records;
}

class ExternalSortCorrectness
    : public ::testing::TestWithParam<std::tuple<KeyDistribution, RunFormationStrategy>> {};

TEST_P(ExternalSortCorrectness, SortsAndConserves) {
  auto [dist, strategy] = GetParam();
  const size_t n = 5000;
  auto input = GenerateRecords(n, dist, 11);

  MemoryBlockDevice scratch(4096, 256);  // 15 records per block.
  MemoryBlockDevice output(4096, 256);
  RunFormationOptions options;
  options.memory_records = 300;
  options.strategy = strategy;
  auto runs = FormRuns(input, &scratch, options);
  ASSERT_TRUE(runs.ok()) << runs.status().ToString();
  auto merged = MergeRuns(&scratch, runs->runs, &output);
  ASSERT_TRUE(merged.ok()) << merged.status().ToString();
  EXPECT_EQ(merged->records_merged, n);

  // Output is the input, sorted.
  std::vector<Record> sorted = ReadAll(&output, merged->output);
  std::vector<Record> expect = input;
  std::sort(expect.begin(), expect.end());
  EXPECT_EQ(sorted, expect);

  // Depletion trace is consistent with the run lengths.
  std::vector<int64_t> lengths;
  for (const auto& run : runs->runs) {
    lengths.push_back(run.num_blocks);
  }
  std::vector<int64_t> counts(runs->runs.size(), 0);
  for (int r : merged->depletion_trace) {
    ASSERT_GE(r, 0);
    ASSERT_LT(r, static_cast<int>(counts.size()));
    ++counts[static_cast<size_t>(r)];
  }
  EXPECT_EQ(counts, lengths);
}

INSTANTIATE_TEST_SUITE_P(
    DistributionsAndStrategies, ExternalSortCorrectness,
    ::testing::Combine(::testing::Values(KeyDistribution::kUniform,
                                         KeyDistribution::kZipf,
                                         KeyDistribution::kNearlySorted,
                                         KeyDistribution::kReverseSorted),
                       ::testing::Values(RunFormationStrategy::kLoadSort,
                                         RunFormationStrategy::kReplacementSelection)));

TEST(RunFormationTest, LoadSortRunCountAndSizes) {
  auto input = GenerateRecords(1000, KeyDistribution::kUniform, 5);
  MemoryBlockDevice dev(2048, 256);
  RunFormationOptions opt;
  opt.memory_records = 256;
  auto result = FormRuns(input, &dev, opt);
  ASSERT_TRUE(result.ok());
  EXPECT_EQ(result->runs.size(), 4u);  // ceil(1000/256)
  uint64_t total = 0;
  for (const auto& run : result->runs) {
    total += run.num_records;
    EXPECT_TRUE(IsSorted(ReadAll(&dev, run)));
  }
  EXPECT_EQ(total, 1000u);
  // Runs are laid out contiguously.
  int64_t expect_start = 0;
  for (const auto& run : result->runs) {
    EXPECT_EQ(run.start_block, expect_start);
    expect_start += run.num_blocks;
  }
  EXPECT_EQ(result->next_free_block, expect_start);
}

TEST(RunFormationTest, ReplacementSelectionDoublesRunLength) {
  // Knuth: on random input, replacement selection runs average ~2x memory.
  auto input = GenerateRecords(20000, KeyDistribution::kUniform, 21);
  MemoryBlockDevice dev(1 << 15, 256);
  RunFormationOptions opt;
  opt.memory_records = 500;

  opt.strategy = RunFormationStrategy::kLoadSort;
  auto load = FormRuns(input, &dev, opt);
  ASSERT_TRUE(load.ok());

  MemoryBlockDevice dev2(1 << 15, 256);
  opt.strategy = RunFormationStrategy::kReplacementSelection;
  auto rs = FormRuns(input, &dev2, opt);
  ASSERT_TRUE(rs.ok());

  EXPECT_EQ(load->runs.size(), 40u);
  EXPECT_LT(rs->runs.size(), 26u);  // ~20000/1000 = 20 expected.
  EXPECT_GT(rs->runs.size(), 15u);
}

TEST(RunFormationTest, ReplacementSelectionSortedInputOneRun) {
  auto input = GenerateRecords(5000, KeyDistribution::kNearlySorted, 3);
  std::sort(input.begin(), input.end());
  MemoryBlockDevice dev(4096, 256);
  RunFormationOptions opt;
  opt.memory_records = 100;
  opt.strategy = RunFormationStrategy::kReplacementSelection;
  auto result = FormRuns(input, &dev, opt);
  ASSERT_TRUE(result.ok());
  EXPECT_EQ(result->runs.size(), 1u);  // Already sorted: a single giant run.
}

TEST(RunFormationTest, ReverseSortedWorstCase) {
  auto input = GenerateRecords(2000, KeyDistribution::kReverseSorted, 3);
  MemoryBlockDevice dev(4096, 256);
  RunFormationOptions opt;
  opt.memory_records = 100;
  opt.strategy = RunFormationStrategy::kReplacementSelection;
  auto result = FormRuns(input, &dev, opt);
  ASSERT_TRUE(result.ok());
  // Descending input defeats replacement selection: runs equal memory size.
  EXPECT_EQ(result->runs.size(), 20u);
}

TEST(RunFormationTest, RejectsEmptyInput) {
  MemoryBlockDevice dev(16, 256);
  RunFormationOptions opt;
  EXPECT_FALSE(FormRuns({}, &dev, opt).ok());
}

TEST(MergeRunsTest, DetectsCorruptRunOrdering) {
  MemoryBlockDevice dev(64, 256);
  // Hand-write a "run" that is not sorted by bypassing RunWriter's check:
  // write two single-record runs, then lie about them being one run.
  RunWriter w1(&dev, 0);
  ASSERT_TRUE(w1.Append({100, 0}).ok());
  auto r1 = w1.Finish();
  ASSERT_TRUE(r1.ok());
  RunWriter w2(&dev, 1);
  ASSERT_TRUE(w2.Append({5, 0}).ok());
  auto r2 = w2.Finish();
  ASSERT_TRUE(r2.ok());
  RunDescriptor lying;
  lying.start_block = 0;
  lying.num_blocks = 2;
  lying.num_records = 2;
  MemoryBlockDevice out(64, 256);
  auto outcome = MergeRuns(&dev, {lying}, &out);
  EXPECT_FALSE(outcome.ok());
  EXPECT_EQ(outcome.status().code(), StatusCode::kCorruption);
}

TEST(MergeRunsTest, TraceFeedsSimulatorValidation) {
  auto input = GenerateRecords(3000, KeyDistribution::kUniform, 31);
  MemoryBlockDevice scratch(2048, 256);
  RunFormationOptions opt;
  opt.memory_records = 300;
  auto runs = FormRuns(input, &scratch, opt);
  ASSERT_TRUE(runs.ok());
  auto outcome = ExtractDepletionTrace(&scratch, runs->runs);
  ASSERT_TRUE(outcome.ok());
  EXPECT_EQ(outcome->records_merged, 3000u);
  // Without an output device there is no output descriptor.
  EXPECT_EQ(outcome->output.num_records, 0u);
  int64_t blocks = 0;
  for (const auto& run : runs->runs) {
    blocks += run.num_blocks;
  }
  EXPECT_EQ(static_cast<int64_t>(outcome->depletion_trace.size()), blocks);
}

}  // namespace
}  // namespace emsim::extsort

#include <cstdint>
#include <vector>

#include <gtest/gtest.h>

#include "extsort/block_device.h"
#include "extsort/record.h"
#include "extsort/run_io.h"
#include "util/status.h"

namespace emsim::extsort {
namespace {

std::vector<Record> SequentialRecords(uint64_t n) {
  std::vector<Record> records;
  for (uint64_t i = 0; i < n; ++i) {
    records.push_back({i, i * 10});
  }
  return records;
}

RunDescriptor WriteRun(BlockDevice* dev, const std::vector<Record>& records,
                       int64_t start = 0) {
  RunWriter writer(dev, start);
  for (const Record& r : records) {
    EXPECT_TRUE(writer.Append(r).ok());
  }
  auto run = writer.Finish();
  EXPECT_TRUE(run.ok());
  return *run;
}

TEST(RunWriterTest, DescriptorMatchesContent) {
  MemoryBlockDevice dev(100, 64);  // 3 records per block.
  auto records = SequentialRecords(10);
  RunDescriptor run = WriteRun(&dev, records);
  EXPECT_EQ(run.start_block, 0);
  EXPECT_EQ(run.num_records, 10u);
  EXPECT_EQ(run.num_blocks, 4);  // ceil(10/3)
}

TEST(RunWriterTest, RejectsOutOfOrderAppend) {
  MemoryBlockDevice dev(10, 64);
  RunWriter writer(&dev, 0);
  ASSERT_TRUE(writer.Append({5, 0}).ok());
  Status s = writer.Append({4, 0});
  EXPECT_EQ(s.code(), StatusCode::kInvalidArgument);
  // Equal keys are fine.
  EXPECT_TRUE(writer.Append({5, 0}).ok());
}

TEST(RunWriterTest, EmptyRun) {
  MemoryBlockDevice dev(10, 64);
  RunWriter writer(&dev, 2);
  auto run = writer.Finish();
  ASSERT_TRUE(run.ok());
  EXPECT_EQ(run->num_blocks, 0);
  EXPECT_EQ(run->num_records, 0u);
}

TEST(RunReaderTest, RoundTripsRecords) {
  MemoryBlockDevice dev(100, 64);
  auto records = SequentialRecords(10);
  RunDescriptor run = WriteRun(&dev, records);
  RunReader reader(&dev, run);
  std::vector<Record> got;
  Record r;
  while (reader.Next(&r)) {
    got.push_back(r);
  }
  EXPECT_EQ(got, records);
  EXPECT_EQ(reader.blocks_depleted(), run.num_blocks);
}

TEST(RunReaderTest, NonZeroStartBlock) {
  MemoryBlockDevice dev(100, 64);
  auto first = SequentialRecords(5);
  auto second = SequentialRecords(7);
  RunDescriptor run1 = WriteRun(&dev, first, 0);
  RunDescriptor run2 = WriteRun(&dev, second, run1.num_blocks);
  RunReader reader(&dev, run2);
  std::vector<Record> got;
  Record r;
  while (reader.Next(&r)) {
    got.push_back(r);
  }
  EXPECT_EQ(got, second);
}

TEST(RunReaderTest, BufferedReadingEquivalent) {
  MemoryBlockDevice dev(200, 64);
  auto records = SequentialRecords(50);
  RunDescriptor run = WriteRun(&dev, records);
  for (int buffer_blocks : {1, 2, 5, 100}) {
    RunReader reader(&dev, run, buffer_blocks);
    std::vector<Record> got;
    Record r;
    while (reader.Next(&r)) {
      got.push_back(r);
    }
    EXPECT_EQ(got, records) << "buffer=" << buffer_blocks;
    EXPECT_EQ(reader.blocks_depleted(), run.num_blocks);
  }
}

TEST(RunReaderTest, BufferingReducesIoCount) {
  MemoryBlockDevice dev(200, 64);
  auto records = SequentialRecords(60);  // 20 blocks.
  RunDescriptor run = WriteRun(&dev, records);
  uint64_t base_reads = dev.reads();
  {
    RunReader reader(&dev, run, 1);
    Record r;
    while (reader.Next(&r)) {
    }
  }
  uint64_t unbuffered = dev.reads() - base_reads;
  base_reads = dev.reads();
  {
    RunReader reader(&dev, run, 5);
    Record r;
    while (reader.Next(&r)) {
    }
  }
  uint64_t buffered = dev.reads() - base_reads;
  EXPECT_EQ(unbuffered, buffered);  // Same block count either way...
  EXPECT_EQ(buffered, 20u);         // ...every block read exactly once.
}

TEST(RunReaderTest, BlocksDepleteIncrementally) {
  MemoryBlockDevice dev(100, 64);  // 3 records/block.
  auto records = SequentialRecords(7);
  RunDescriptor run = WriteRun(&dev, records);
  RunReader reader(&dev, run, 2);
  Record r;
  EXPECT_EQ(reader.blocks_depleted(), 0);
  reader.Next(&r);
  reader.Next(&r);
  EXPECT_EQ(reader.blocks_depleted(), 0);
  reader.Next(&r);  // Third record finishes block 0.
  EXPECT_EQ(reader.blocks_depleted(), 1);
  while (reader.Next(&r)) {
  }
  EXPECT_EQ(reader.blocks_depleted(), 3);  // 3+3+1 records in 3 blocks.
}

TEST(RunReaderTest, ReadsOnlyWhenTheBufferDrains) {
  MemoryBlockDevice dev(100, 64);  // 3 records/block.
  auto records = SequentialRecords(10);  // 4 blocks.
  RunDescriptor run = WriteRun(&dev, records);
  const uint64_t base = dev.reads();
  RunReader reader(&dev, run, 2);
  EXPECT_EQ(dev.reads() - base, 0u);  // Construction reads nothing.
  Record r;
  for (int i = 0; i < 6; ++i) {  // Blocks 0-1 arrive in the first refill.
    ASSERT_TRUE(reader.Next(&r));
    EXPECT_EQ(dev.reads() - base, 2u) << "record " << i;
  }
  ASSERT_TRUE(reader.Next(&r));  // Buffer drained: blocks 2-3 are read now.
  EXPECT_EQ(dev.reads() - base, 4u);
  while (reader.Next(&r)) {
  }
  EXPECT_EQ(dev.reads() - base, 4u);  // End of run triggers no further read.
}

}  // namespace
}  // namespace emsim::extsort

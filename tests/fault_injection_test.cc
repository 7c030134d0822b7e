// Failure injection: disk errors must surface as Status at the library
// boundary — no aborts, no corrupted success results — from run formation,
// run I/O and the merge.

#include <cstddef>
#include <cstdint>
#include <memory>
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

std::vector<Record> MakeRecords(size_t n) {
  workload::RecordGeneratorOptions opt;
  opt.seed = 31;
  workload::RecordGenerator gen(opt);
  std::vector<Record> records;
  for (size_t i = 0; i < n; ++i) {
    records.push_back({gen.NextKey(), i});
  }
  return records;
}

std::unique_ptr<FaultyBlockDevice> Faulty(int64_t blocks, FaultyBlockDevice::Options opt) {
  return std::make_unique<FaultyBlockDevice>(
      std::make_unique<MemoryBlockDevice>(blocks, 256), opt);
}

TEST(FaultyBlockDeviceTest, InjectsAtConfiguredRate) {
  FaultyBlockDevice::Options opt;
  opt.read_failure_rate = 0.5;
  auto dev = Faulty(16, opt);
  std::vector<uint8_t> buf(256, 0);
  ASSERT_TRUE(dev->Write(0, buf).ok());
  int failures = 0;
  for (int i = 0; i < 200; ++i) {
    failures += !dev->Read(0, buf).ok();
  }
  EXPECT_NEAR(failures, 100, 30);
  EXPECT_EQ(dev->injected_read_failures(), static_cast<uint64_t>(failures));
}

TEST(FaultyBlockDeviceTest, NthFailureIsPrecise) {
  FaultyBlockDevice::Options opt;
  opt.fail_nth_write = 3;
  auto dev = Faulty(16, opt);
  std::vector<uint8_t> buf(256, 0);
  EXPECT_TRUE(dev->Write(0, buf).ok());
  EXPECT_TRUE(dev->Write(1, buf).ok());
  EXPECT_EQ(dev->Write(2, buf).code(), StatusCode::kIoError);
  EXPECT_TRUE(dev->Write(3, buf).ok());
}

TEST(FaultInjectionTest, RunFormationWriteFailureSurfaces) {
  auto input = MakeRecords(500);
  FaultyBlockDevice::Options opt;
  opt.fail_nth_write = 5;
  auto scratch = Faulty(512, opt);
  RunFormationOptions rf;
  rf.memory_records = 100;
  auto result = FormRuns(input, scratch.get(), rf);
  ASSERT_FALSE(result.ok());
  EXPECT_EQ(result.status().code(), StatusCode::kIoError);
}

TEST(FaultInjectionTest, MergeReadFailureSurfaces) {
  auto input = MakeRecords(500);
  auto scratch = Faulty(512, FaultyBlockDevice::Options{});
  RunFormationOptions rf;
  rf.memory_records = 100;
  auto runs = FormRuns(input, scratch.get(), rf);
  ASSERT_TRUE(runs.ok());

  // Now make a mid-merge read fail.
  FaultyBlockDevice::Options read_fault;
  read_fault.fail_nth_read = 7;
  // Rebuild the data on a fresh faulty device by copying blocks over.
  auto flaky = Faulty(512, read_fault);
  std::vector<uint8_t> buf(256);
  for (int64_t b = 0; b < runs->next_free_block; ++b) {
    ASSERT_TRUE(scratch->Read(b, buf).ok());
    ASSERT_TRUE(flaky->Write(b, buf).ok());
  }
  MemoryBlockDevice output(512, 256);
  auto outcome = MergeRuns(flaky.get(), runs->runs, &output);
  ASSERT_FALSE(outcome.ok());
  EXPECT_EQ(outcome.status().code(), StatusCode::kIoError);
}

TEST(FaultInjectionTest, ReadRunPropagatesError) {
  auto input = MakeRecords(200);
  auto scratch = Faulty(512, FaultyBlockDevice::Options{});
  RunFormationOptions rf;
  rf.memory_records = 200;
  auto runs = FormRuns(input, scratch.get(), rf);
  ASSERT_TRUE(runs.ok());

  FaultyBlockDevice::Options read_fault;
  read_fault.fail_nth_read = 2;
  auto flaky = Faulty(512, read_fault);
  std::vector<uint8_t> buf(256);
  for (int64_t b = 0; b < runs->next_free_block; ++b) {
    ASSERT_TRUE(scratch->Read(b, buf).ok());
    ASSERT_TRUE(flaky->Write(b, buf).ok());
  }
  RunReader reader(flaky.get(), runs->runs.front());
  Record r;
  uint64_t returned = 0;
  while (reader.Next(&r)) {
    ++returned;
  }
  EXPECT_LT(returned, runs->runs.front().num_records);
  EXPECT_EQ(reader.status().code(), StatusCode::kIoError);
}

TEST(FaultInjectionTest, ZeroRateInjectsNothing) {
  auto input = MakeRecords(300);
  auto scratch = Faulty(512, FaultyBlockDevice::Options{});
  MemoryBlockDevice output(512, 256);
  RunFormationOptions rf;
  rf.memory_records = 100;
  auto runs = FormRuns(input, scratch.get(), rf);
  ASSERT_TRUE(runs.ok());
  auto outcome = MergeRuns(scratch.get(), runs->runs, &output);
  ASSERT_TRUE(outcome.ok());
  EXPECT_EQ(scratch->injected_read_failures(), 0u);
  EXPECT_EQ(scratch->injected_write_failures(), 0u);
}

}  // namespace
}  // namespace emsim::extsort

#include <cstdint>
#include <vector>

#include <gtest/gtest.h>

#include "extsort/block_device.h"
#include "util/status.h"

namespace emsim::extsort {
namespace {

TEST(MemoryBlockDeviceTest, WriteThenReadRoundTrips) {
  MemoryBlockDevice dev(8, 64);
  std::vector<uint8_t> out(64, 0xCD);
  ASSERT_TRUE(dev.Write(3, out).ok());
  std::vector<uint8_t> in(64, 0);
  ASSERT_TRUE(dev.Read(3, in).ok());
  EXPECT_EQ(in, out);
  EXPECT_EQ(dev.reads(), 1u);
  EXPECT_EQ(dev.writes(), 1u);
}

TEST(MemoryBlockDeviceTest, ReadingUnwrittenBlockFails) {
  MemoryBlockDevice dev(4, 64);
  std::vector<uint8_t> buf(64);
  Status s = dev.Read(0, buf);
  EXPECT_EQ(s.code(), StatusCode::kNotFound);
}

TEST(MemoryBlockDeviceTest, OutOfRangeRejected) {
  MemoryBlockDevice dev(4, 64);
  std::vector<uint8_t> buf(64);
  EXPECT_EQ(dev.Read(4, buf).code(), StatusCode::kOutOfRange);
  EXPECT_EQ(dev.Read(-1, buf).code(), StatusCode::kOutOfRange);
  EXPECT_EQ(dev.Write(99, buf).code(), StatusCode::kOutOfRange);
}

TEST(MemoryBlockDeviceTest, WrongBufferSizeRejected) {
  MemoryBlockDevice dev(4, 64);
  std::vector<uint8_t> small(32);
  EXPECT_EQ(dev.Write(0, small).code(), StatusCode::kInvalidArgument);
  EXPECT_EQ(dev.Read(0, small).code(), StatusCode::kInvalidArgument);
}

TEST(MemoryBlockDeviceTest, OverwriteAllowed) {
  MemoryBlockDevice dev(2, 64);
  std::vector<uint8_t> a(64, 1);
  std::vector<uint8_t> b(64, 2);
  ASSERT_TRUE(dev.Write(0, a).ok());
  ASSERT_TRUE(dev.Write(0, b).ok());
  std::vector<uint8_t> in(64);
  ASSERT_TRUE(dev.Read(0, in).ok());
  EXPECT_EQ(in, b);
}

}  // namespace
}  // namespace emsim::extsort

#ifndef EMSIM_EXTSORT_BLOCK_DEVICE_H_
#define EMSIM_EXTSORT_BLOCK_DEVICE_H_

#include <cstddef>
#include <cstdint>
#include <memory>
#include <span>
#include <vector>

#include "fault/fault_plan.h"
#include "util/status.h"

namespace emsim::extsort {

/// Random-access block storage — the substrate run formation and the merger
/// read and write. Implementations: an in-memory device and a fault-injecting
/// decorator over any device.
class BlockDevice {
 public:
  virtual ~BlockDevice() = default;

  virtual size_t block_bytes() const = 0;
  virtual int64_t num_blocks() const = 0;

  /// Reads block `index` into `out` (size block_bytes).
  virtual Status Read(int64_t index, std::span<uint8_t> out) = 0;

  /// Writes `data` (size block_bytes) to block `index`.
  virtual Status Write(int64_t index, std::span<const uint8_t> data) = 0;

  /// I/O counters.
  uint64_t reads() const { return reads_; }
  uint64_t writes() const { return writes_; }

 protected:
  uint64_t reads_ = 0;
  uint64_t writes_ = 0;
};

/// RAM-backed block device. Reading a never-written block fails (catches
/// run-descriptor bugs).
class MemoryBlockDevice : public BlockDevice {
 public:
  MemoryBlockDevice(int64_t num_blocks, size_t block_bytes);

  size_t block_bytes() const override { return block_bytes_; }
  int64_t num_blocks() const override { return num_blocks_; }
  Status Read(int64_t index, std::span<uint8_t> out) override;
  Status Write(int64_t index, std::span<const uint8_t> data) override;

 private:
  Status CheckIndex(int64_t index, size_t span_bytes) const;

  int64_t num_blocks_;
  size_t block_bytes_;
  std::vector<uint8_t> data_;
  std::vector<bool> written_;
};

/// Decorator injecting I/O failures at configurable rates — exercises the
/// library's Status paths (run formation, run I/O, merging) under disk
/// errors. Uses the same seeded fault vocabulary as the simulation's
/// fault::FaultPlan, so a spec exercised against the simulator and a real
/// sort exercised against this device share one set of fault options.
/// Failures are deterministic for a seed.
class FaultyBlockDevice : public BlockDevice {
 public:
  /// Shared with fault::FaultPlan; see fault/fault_plan.h.
  using Options = fault::MediaFaultOptions;

  FaultyBlockDevice(std::unique_ptr<BlockDevice> base, const Options& options);

  size_t block_bytes() const override { return base_->block_bytes(); }
  int64_t num_blocks() const override { return base_->num_blocks(); }
  Status Read(int64_t index, std::span<uint8_t> out) override;
  Status Write(int64_t index, std::span<const uint8_t> data) override;

  uint64_t injected_read_failures() const { return injector_.injected_read_failures(); }
  uint64_t injected_write_failures() const { return injector_.injected_write_failures(); }

 private:
  std::unique_ptr<BlockDevice> base_;
  fault::MediaErrorInjector injector_;
};

}  // namespace emsim::extsort

#endif  // EMSIM_EXTSORT_BLOCK_DEVICE_H_

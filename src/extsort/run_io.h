#ifndef EMSIM_EXTSORT_RUN_IO_H_
#define EMSIM_EXTSORT_RUN_IO_H_

#include <cstddef>
#include <cstdint>
#include <string>
#include <vector>

#include "extsort/block_device.h"
#include "extsort/record.h"
#include "util/status.h"

namespace emsim::extsort {

/// Location and size of one sorted run on a device.
struct RunDescriptor {
  int64_t start_block = 0;
  int64_t num_blocks = 0;
  uint64_t num_records = 0;

  std::string ToString() const;
};

/// Streams sorted records into consecutive blocks starting at `start_block`.
/// Append order must be sorted (checked); Finish flushes the tail block and
/// returns the descriptor.
class RunWriter {
 public:
  RunWriter(BlockDevice* device, int64_t start_block);

  Status Append(const Record& record);

  /// Flushes and returns the run's descriptor. The writer is unusable
  /// afterwards.
  Result<RunDescriptor> Finish();

  uint64_t records_written() const { return records_; }

 private:
  Status Flush();

  BlockDevice* device_;
  int64_t start_block_;
  int64_t next_block_;
  std::vector<Record> pending_;
  std::vector<uint8_t> scratch_;
  uint64_t records_ = 0;
  bool finished_ = false;
  bool has_last_ = false;
  Record last_;
};

/// Streams a run's records back, reading `buffer_blocks` blocks per I/O
/// (the intra-run prefetch analogue in the real sorter). Tracks how many
/// blocks have been fully consumed so the merger can extract the paper's
/// block-depletion trace.
class RunReader {
 public:
  RunReader(BlockDevice* device, const RunDescriptor& run, int buffer_blocks = 1);

  /// Fetches the next record; returns false at end of run OR on an I/O
  /// error — check status() to distinguish.
  bool Next(Record* record);

  /// OK unless a read or decode failed; sticky once set.
  const Status& status() const { return status_; }

  /// Blocks whose records have all been returned.
  int64_t blocks_depleted() const { return blocks_depleted_; }

  const RunDescriptor& run() const { return run_; }

 private:
  void Refill();

  BlockDevice* device_;
  RunDescriptor run_;
  int buffer_blocks_;
  int64_t next_block_ = 0;        ///< Next block index (within run) to read.
  std::vector<Record> buffer_;    ///< Decoded records not yet returned.
  size_t buffer_pos_ = 0;
  std::vector<int64_t> buffered_block_ends_;  ///< Record counts per buffered block.
  int64_t blocks_depleted_ = 0;
  uint64_t records_returned_ = 0;
  std::vector<uint8_t> scratch_;
  Status status_;
};

}  // namespace emsim::extsort

#endif  // EMSIM_EXTSORT_RUN_IO_H_

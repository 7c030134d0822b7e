#include "extsort/run_io.h"

#include <algorithm>

#include "util/check.h"
#include "util/status.h"
#include "util/str.h"

namespace emsim::extsort {

std::string RunDescriptor::ToString() const {
  return StrFormat("Run{start=%lld, blocks=%lld, records=%llu}",
                   static_cast<long long>(start_block), static_cast<long long>(num_blocks),
                   static_cast<unsigned long long>(num_records));
}

RunWriter::RunWriter(BlockDevice* device, int64_t start_block)
    : device_(device),
      start_block_(start_block),
      next_block_(start_block),
      scratch_(device->block_bytes()) {
  EMSIM_CHECK(device != nullptr);
  pending_.reserve(RecordBlock::Capacity(device->block_bytes()));
}

Status RunWriter::Append(const Record& record) {
  EMSIM_CHECK(!finished_);
  if (has_last_ && record < last_) {
    return Status::InvalidArgument("RunWriter::Append out of sorted order");
  }
  last_ = record;
  has_last_ = true;
  pending_.push_back(record);
  ++records_;
  if (pending_.size() == RecordBlock::Capacity(device_->block_bytes())) {
    return Flush();
  }
  return Status::OK();
}

Status RunWriter::Flush() {
  if (pending_.empty()) {
    return Status::OK();
  }
  RecordBlock::Encode(pending_, scratch_);
  EMSIM_RETURN_IF_ERROR(device_->Write(next_block_, scratch_));
  ++next_block_;
  pending_.clear();
  return Status::OK();
}

Result<RunDescriptor> RunWriter::Finish() {
  EMSIM_CHECK(!finished_);
  Status status = Flush();
  if (!status.ok()) {
    return status;
  }
  finished_ = true;
  RunDescriptor run;
  run.start_block = start_block_;
  run.num_blocks = next_block_ - start_block_;
  run.num_records = records_;
  return run;
}

RunReader::RunReader(BlockDevice* device, const RunDescriptor& run, int buffer_blocks)
    : device_(device),
      run_(run),
      buffer_blocks_(buffer_blocks),
      scratch_(device->block_bytes()) {
  EMSIM_CHECK(device != nullptr);
  EMSIM_CHECK(buffer_blocks >= 1);
}

void RunReader::Refill() {
  buffer_.clear();
  buffered_block_ends_.clear();
  buffer_pos_ = 0;
  int64_t to_read = std::min<int64_t>(buffer_blocks_, run_.num_blocks - next_block_);
  for (int64_t i = 0; i < to_read; ++i) {
    Status status = device_->Read(run_.start_block + next_block_, scratch_);
    if (!status.ok()) {
      status_ = status;
      return;
    }
    std::vector<Record> records;
    status = RecordBlock::Decode(scratch_, &records);
    if (!status.ok()) {
      status_ = status;
      return;
    }
    buffer_.insert(buffer_.end(), records.begin(), records.end());
    buffered_block_ends_.push_back(static_cast<int64_t>(buffer_.size()));
    ++next_block_;
  }
}

bool RunReader::Next(Record* record) {
  if (!status_.ok() || records_returned_ >= run_.num_records) {
    return false;
  }
  if (buffer_pos_ >= buffer_.size()) {
    Refill();
    if (!status_.ok() || buffer_.empty()) {
      return false;
    }
  }
  *record = buffer_[buffer_pos_];
  ++buffer_pos_;
  ++records_returned_;
  // Account fully consumed blocks (a block "depletes" when its last record
  // is handed out — the unit of the paper's depletion model).
  while (!buffered_block_ends_.empty() &&
         static_cast<int64_t>(buffer_pos_) >= buffered_block_ends_.front()) {
    ++blocks_depleted_;
    // Offsets are relative to the buffer; rebase the remaining ends lazily
    // by popping — they stay valid because buffer_pos_ only grows until the
    // next Refill resets both.
    buffered_block_ends_.erase(buffered_block_ends_.begin());
  }
  return true;
}

}  // namespace emsim::extsort

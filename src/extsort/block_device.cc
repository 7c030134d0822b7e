#include "extsort/block_device.h"

#include <cstring>
#include <utility>

#include "util/check.h"
#include "util/str.h"

namespace emsim::extsort {

MemoryBlockDevice::MemoryBlockDevice(int64_t num_blocks, size_t block_bytes)
    : num_blocks_(num_blocks),
      block_bytes_(block_bytes),
      data_(static_cast<size_t>(num_blocks) * block_bytes),
      written_(static_cast<size_t>(num_blocks), false) {
  EMSIM_CHECK(num_blocks >= 1);
  EMSIM_CHECK(block_bytes >= 16);
}

Status MemoryBlockDevice::CheckIndex(int64_t index, size_t span_bytes) const {
  if (index < 0 || index >= num_blocks_) {
    return Status::OutOfRange(StrFormat("block %lld out of range [0, %lld)",
                                        static_cast<long long>(index),
                                        static_cast<long long>(num_blocks_)));
  }
  if (span_bytes != block_bytes_) {
    return Status::InvalidArgument(
        StrFormat("buffer is %zu bytes; device block is %zu", span_bytes, block_bytes_));
  }
  return Status::OK();
}

Status MemoryBlockDevice::Read(int64_t index, std::span<uint8_t> out) {
  EMSIM_RETURN_IF_ERROR(CheckIndex(index, out.size()));
  if (!written_[static_cast<size_t>(index)]) {
    return Status::NotFound(
        StrFormat("block %lld was never written", static_cast<long long>(index)));
  }
  std::memcpy(out.data(), data_.data() + static_cast<size_t>(index) * block_bytes_,
              block_bytes_);
  ++reads_;
  return Status::OK();
}

Status MemoryBlockDevice::Write(int64_t index, std::span<const uint8_t> data) {
  EMSIM_RETURN_IF_ERROR(CheckIndex(index, data.size()));
  std::memcpy(data_.data() + static_cast<size_t>(index) * block_bytes_, data.data(),
              block_bytes_);
  written_[static_cast<size_t>(index)] = true;
  ++writes_;
  return Status::OK();
}

FaultyBlockDevice::FaultyBlockDevice(std::unique_ptr<BlockDevice> base,
                                     const Options& options)
    : base_(std::move(base)), injector_(options) {
  EMSIM_CHECK(base_ != nullptr);
}

Status FaultyBlockDevice::Read(int64_t index, std::span<uint8_t> out) {
  if (injector_.NextReadFails()) {
    return Status::IoError(
        StrFormat("injected read failure at block %lld", static_cast<long long>(index)));
  }
  Status status = base_->Read(index, out);
  if (status.ok()) {
    ++reads_;
  }
  return status;
}

Status FaultyBlockDevice::Write(int64_t index, std::span<const uint8_t> data) {
  if (injector_.NextWriteFails()) {
    return Status::IoError(
        StrFormat("injected write failure at block %lld", static_cast<long long>(index)));
  }
  Status status = base_->Write(index, data);
  if (status.ok()) {
    ++writes_;
  }
  return status;
}

}  // namespace emsim::extsort

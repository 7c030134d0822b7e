#include "extsort/run_formation.h"

#include <algorithm>
#include <cstddef>
#include <functional>
#include <memory>
#include <queue>

#include "util/check.h"
#include "util/status.h"

namespace emsim::extsort {

namespace {

Result<RunFormationResult> LoadSort(std::span<const Record> input, BlockDevice* device,
                                    const RunFormationOptions& options) {
  RunFormationResult out;
  int64_t next_block = 0;
  std::vector<Record> workspace;
  workspace.reserve(options.memory_records);
  size_t pos = 0;
  while (pos < input.size()) {
    size_t take = std::min(options.memory_records, input.size() - pos);
    workspace.assign(input.begin() + static_cast<std::ptrdiff_t>(pos),
                     input.begin() + static_cast<std::ptrdiff_t>(pos + take));
    pos += take;
    std::sort(workspace.begin(), workspace.end());
    RunWriter writer(device, next_block);
    for (const Record& r : workspace) {
      Status status = writer.Append(r);
      if (!status.ok()) {
        return status;
      }
    }
    Result<RunDescriptor> run = writer.Finish();
    if (!run.ok()) {
      return run.status();
    }
    next_block += run->num_blocks;
    out.runs.push_back(*run);
  }
  out.next_free_block = next_block;
  return out;
}

/// Replacement selection (Knuth 5.4.1): a min-heap of (run-tag, record);
/// records smaller than the last one emitted are tagged for the next run.
Result<RunFormationResult> ReplacementSelection(std::span<const Record> input,
                                                BlockDevice* device,
                                                const RunFormationOptions& options) {
  struct Entry {
    uint64_t run_tag;
    Record record;
    bool operator>(const Entry& other) const {
      if (run_tag != other.run_tag) {
        return run_tag > other.run_tag;
      }
      return other.record < record;
    }
  };
  std::priority_queue<Entry, std::vector<Entry>, std::greater<>> heap;

  RunFormationResult out;
  int64_t next_block = 0;
  size_t pos = 0;
  for (; pos < std::min(options.memory_records, input.size()); ++pos) {
    heap.push(Entry{0, input[pos]});
  }

  uint64_t current_tag = 0;
  std::unique_ptr<RunWriter> writer;
  Record last_emitted;
  bool emitted_any = false;

  auto open_writer = [&]() { writer = std::make_unique<RunWriter>(device, next_block); };
  auto close_writer = [&]() -> Status {
    if (writer == nullptr) {
      return Status::OK();
    }
    Result<RunDescriptor> run = writer->Finish();
    if (!run.ok()) {
      return run.status();
    }
    next_block += run->num_blocks;
    out.runs.push_back(*run);
    writer.reset();
    return Status::OK();
  };

  while (!heap.empty()) {
    Entry top = heap.top();
    heap.pop();
    if (top.run_tag != current_tag) {
      Status status = close_writer();
      if (!status.ok()) {
        return status;
      }
      current_tag = top.run_tag;
      emitted_any = false;
    }
    if (writer == nullptr) {
      open_writer();
    }
    Status status = writer->Append(top.record);
    if (!status.ok()) {
      return status;
    }
    last_emitted = top.record;
    emitted_any = true;
    if (pos < input.size()) {
      const Record& incoming = input[pos++];
      // A record below the current output frontier must wait for the next run.
      uint64_t tag = (emitted_any && incoming < last_emitted) ? current_tag + 1 : current_tag;
      heap.push(Entry{tag, incoming});
    }
  }
  Status status = close_writer();
  if (!status.ok()) {
    return status;
  }
  out.next_free_block = next_block;
  return out;
}

}  // namespace

Result<RunFormationResult> FormRuns(std::span<const Record> input, BlockDevice* device,
                                    const RunFormationOptions& options) {
  EMSIM_CHECK(device != nullptr);
  if (options.memory_records < 1) {
    return Status::InvalidArgument("memory_records must be >= 1");
  }
  if (input.empty()) {
    return Status::InvalidArgument("cannot form runs from empty input");
  }
  switch (options.strategy) {
    case RunFormationStrategy::kLoadSort:
      return LoadSort(input, device, options);
    case RunFormationStrategy::kReplacementSelection:
      return ReplacementSelection(input, device, options);
  }
  return Status::InvalidArgument("unknown run formation strategy");
}

}  // namespace emsim::extsort

#include "extsort/run_formation.h"

#include <algorithm>
#include <cstddef>
#include <cstdint>
#include <functional>
#include <queue>

#include "util/status.h"

namespace emsim::extsort {

namespace {

std::vector<SortedRun> LoadSort(std::span<const Record> input, size_t memory_records) {
  std::vector<SortedRun> runs;
  for (size_t pos = 0; pos < input.size(); pos += memory_records) {
    std::span<const Record> load =
        input.subspan(pos, std::min(memory_records, input.size() - pos));
    SortedRun& run = runs.emplace_back(load.begin(), load.end());
    std::sort(run.begin(), run.end());
  }
  return runs;
}

/// Replacement selection (Knuth 5.4.1): a min-heap of (run-tag, record);
/// records smaller than the last one emitted are tagged for the next run.
std::vector<SortedRun> ReplacementSelection(std::span<const Record> input, size_t memory_records) {
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
  size_t pos = 0;
  for (; pos < std::min(memory_records, input.size()); ++pos) {
    heap.push(Entry{0, input[pos]});
  }

  std::vector<SortedRun> runs;
  uint64_t current_tag = 0;
  while (!heap.empty()) {
    Entry top = heap.top();
    heap.pop();
    if (runs.empty() || top.run_tag != current_tag) {
      runs.emplace_back();
      current_tag = top.run_tag;
    }
    runs.back().push_back(top.record);
    if (pos < input.size()) {
      const Record& incoming = input[pos++];
      // A record below the current output frontier must wait for the next run.
      uint64_t tag = incoming < top.record ? current_tag + 1 : current_tag;
      heap.push(Entry{tag, incoming});
    }
  }
  return runs;
}

}  // namespace

Result<std::vector<SortedRun>> FormRuns(std::span<const Record> input,
                                  const RunFormationOptions& options) {
  if (options.memory_records < 1) {
    return Status::InvalidArgument("memory_records must be >= 1");
  }
  if (input.empty()) {
    return Status::InvalidArgument("cannot form runs from empty input");
  }
  switch (options.strategy) {
    case RunFormationStrategy::kLoadSort:
      return LoadSort(input, options.memory_records);
    case RunFormationStrategy::kReplacementSelection:
      return ReplacementSelection(input, options.memory_records);
  }
  return Status::InvalidArgument("unknown run formation strategy");
}

}  // namespace emsim::extsort

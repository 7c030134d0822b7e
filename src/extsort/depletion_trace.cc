#include "extsort/depletion_trace.h"

#include <algorithm>
#include <utility>

#include "extsort/record.h"
#include "util/str.h"

namespace emsim::extsort {

Result<DepletionTrace> ExtractDepletionTrace(const std::vector<SortedRun>& runs,
                                             size_t records_per_block) {
  if (runs.empty()) {
    return Status::InvalidArgument("no runs to trace");
  }
  if (records_per_block < 1) {
    return Status::InvalidArgument("records_per_block must be >= 1");
  }
  // Record p of a run is pulled last from its block if it fills the block or
  // ends the run.
  auto ends_block = [records_per_block](const SortedRun& run, size_t p) {
    return (p + 1) % records_per_block == 0 || p + 1 == run.size();
  };

  DepletionTrace out;
  std::vector<std::pair<Record, int>> merged;  // Every record, tagged by run.
  for (size_t r = 0; r < runs.size(); ++r) {
    const SortedRun& run = runs[r];
    if (!std::ranges::is_sorted(run)) {
      return Status::InvalidArgument(StrFormat("run %zu is not sorted", r));
    }
    out.run_blocks.push_back(
        static_cast<int64_t>((run.size() + records_per_block - 1) / records_per_block));
    for (const Record& record : run) {
      merged.emplace_back(record, static_cast<int>(r));
    }
    // The merge's first pull of each run, in run order.
    if (!run.empty() && ends_block(run, 0)) {
      out.trace.push_back(static_cast<int>(r));
    }
  }
  // The merge outputs the records in this order; each output pulls its run's
  // next record.
  std::sort(merged.begin(), merged.end());
  std::vector<size_t> pulled(runs.size(), 1);
  for (const auto& [record, r] : merged) {
    const SortedRun& run = runs[static_cast<size_t>(r)];
    size_t p = pulled[static_cast<size_t>(r)]++;
    if (p < run.size() && ends_block(run, p)) {
      out.trace.push_back(r);
    }
  }
  return out;
}

}  // namespace emsim::extsort

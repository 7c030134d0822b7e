#ifndef EMSIM_EXTSORT_RUN_FORMATION_H_
#define EMSIM_EXTSORT_RUN_FORMATION_H_

#include <cstddef>
#include <span>
#include <vector>

#include "extsort/record.h"
#include "util/status.h"

namespace emsim::extsort {

/// How initial sorted runs are produced from unsorted input.
enum class RunFormationStrategy {
  /// Fill memory, sort, emit: every run is exactly `memory_records` long
  /// (except the last) — the paper's "individually sorting one memory-load
  /// of data at a time".
  kLoadSort,
  /// Replacement selection with a min-heap: runs average twice the memory
  /// size on random input (Knuth Vol. 3), fewer and longer runs.
  kReplacementSelection,
};

struct RunFormationOptions {
  size_t memory_records = 4096;  ///< Records that fit in the sort workspace.
  RunFormationStrategy strategy = RunFormationStrategy::kLoadSort;
};

/// One initial run: its records in sorted order.
using SortedRun = std::vector<Record>;

/// Sorts `input` into initial runs, in the order they are formed.
Result<std::vector<SortedRun>> FormRuns(std::span<const Record> input,
                                  const RunFormationOptions& options);

}  // namespace emsim::extsort

#endif  // EMSIM_EXTSORT_RUN_FORMATION_H_

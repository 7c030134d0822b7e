#ifndef EMSIM_EXTSORT_DEPLETION_TRACE_H_
#define EMSIM_EXTSORT_DEPLETION_TRACE_H_

#include <cstddef>
#include <cstdint>
#include <vector>

#include "extsort/run_formation.h"
#include "util/status.h"

namespace emsim::extsort {

/// Records of a 4,096-byte block: 16-byte records behind a 4-byte count.
/// X-SORT's 40k-record load-sort runs take 157 such blocks.
inline constexpr size_t kRecordsPerBlock = 255;

/// The block-depletion order of a k-way merge of sorted runs. Feeding it to
/// the merge-phase simulator (core::DepletionKind::kTrace) times the real
/// merge's I/O under any prefetching strategy — the bridge between real key
/// distributions and the paper's stochastic model.
struct DepletionTrace {
  /// Entry t is the index of the run whose block was the t-th to be used up.
  std::vector<int> trace;
  /// Blocks of each run, ceil(records / records_per_block), aligned with the
  /// trace's run indices.
  std::vector<int64_t> run_blocks;
};

/// Computes the depletion trace of merging `runs`, each cut into blocks of
/// `records_per_block`, without merging them. The merge pulls every run's
/// first record up front and, after it outputs a record, pulls the next
/// record of that record's run; a block is used up when its last record is
/// pulled. Equal records leave the merge in run order. Fails on an empty run
/// list, a zero block size or an unsorted run.
Result<DepletionTrace> ExtractDepletionTrace(const std::vector<SortedRun>& runs,
                                             size_t records_per_block);

}  // namespace emsim::extsort

#endif  // EMSIM_EXTSORT_DEPLETION_TRACE_H_

#ifndef EMSIM_EXTSORT_MERGER_H_
#define EMSIM_EXTSORT_MERGER_H_

#include <cstdint>
#include <vector>

#include "extsort/block_device.h"
#include "extsort/run_io.h"
#include "util/status.h"

namespace emsim::extsort {

/// Result of a k-way merge pass.
struct MergeOutcome {
  uint64_t records_merged = 0;
  RunDescriptor output;  ///< Where the merged run was written.

  /// The block-depletion trace: entry t is the run index whose block was
  /// the t-th to be fully consumed. Feeding this to the merge-phase
  /// simulator (core::DepletionKind::kTrace) times the *real* merge's I/O
  /// under any prefetching strategy — the bridge between the library's real
  /// sorter and the paper's stochastic model.
  std::vector<int> depletion_trace;

  /// Blocks of each input run (aligned with the trace run indices).
  std::vector<int64_t> run_blocks;
};

/// Merges the given sorted runs (all on `input_device`, read one block at a
/// time) into one run written from block 0 of `output_device`, with the
/// loser tree doing source selection, and records the depletion trace.
/// A null `output_device` discards the merged records. Verifies input
/// order as it goes (corrupt runs fail).
Result<MergeOutcome> MergeRuns(BlockDevice* input_device,
                               const std::vector<RunDescriptor>& runs,
                               BlockDevice* output_device);

/// Merges without an output device, returning only the depletion trace
/// (used to drive the simulator from real key distributions without
/// materializing output).
Result<MergeOutcome> ExtractDepletionTrace(BlockDevice* input_device,
                                           const std::vector<RunDescriptor>& runs);

}  // namespace emsim::extsort

#endif  // EMSIM_EXTSORT_MERGER_H_

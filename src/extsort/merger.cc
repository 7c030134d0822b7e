#include "extsort/merger.h"

#include <cstddef>
#include <memory>

#include "extsort/loser_tree.h"
#include "extsort/record.h"
#include "util/check.h"
#include "util/status.h"
#include "util/str.h"

namespace emsim::extsort {

Result<MergeOutcome> MergeRuns(BlockDevice* input_device,
                               const std::vector<RunDescriptor>& runs,
                               BlockDevice* output_device) {
  EMSIM_CHECK(input_device != nullptr);
  if (runs.empty()) {
    return Status::InvalidArgument("no runs to merge");
  }
  int k = static_cast<int>(runs.size());

  std::vector<std::unique_ptr<RunReader>> readers;
  readers.reserve(runs.size());
  for (const RunDescriptor& run : runs) {
    readers.push_back(std::make_unique<RunReader>(input_device, run));
  }

  LoserTree<Record> tree(k);
  std::vector<int64_t> depleted(static_cast<size_t>(k), 0);
  MergeOutcome outcome;
  for (const RunDescriptor& run : runs) {
    outcome.run_blocks.push_back(run.num_blocks);
  }

  auto note_depletions = [&](int source) {
    int64_t now = readers[static_cast<size_t>(source)]->blocks_depleted();
    for (int64_t i = depleted[static_cast<size_t>(source)]; i < now; ++i) {
      outcome.depletion_trace.push_back(source);
    }
    depleted[static_cast<size_t>(source)] = now;
  };

  for (int s = 0; s < k; ++s) {
    Record r;
    if (readers[static_cast<size_t>(s)]->Next(&r)) {
      tree.SetInitial(s, r);
      note_depletions(s);
    } else {
      EMSIM_RETURN_IF_ERROR(readers[static_cast<size_t>(s)]->status());
      tree.MarkExhausted(s);
    }
  }
  tree.Build();

  std::unique_ptr<RunWriter> writer;
  if (output_device != nullptr) {
    writer = std::make_unique<RunWriter>(output_device, /*start_block=*/0);
  }

  Record previous;
  bool have_previous = false;
  while (!tree.Empty()) {
    int source = tree.WinnerSource();
    Record winner = tree.WinnerItem();
    if (have_previous && winner < previous) {
      return Status::Corruption(
          StrFormat("merge output went backwards at record %llu",
                    static_cast<unsigned long long>(outcome.records_merged)));
    }
    previous = winner;
    have_previous = true;
    if (writer != nullptr) {
      EMSIM_RETURN_IF_ERROR(writer->Append(winner));
    }
    ++outcome.records_merged;

    Record next;
    if (readers[static_cast<size_t>(source)]->Next(&next)) {
      tree.ReplaceWinner(next);
    } else {
      EMSIM_RETURN_IF_ERROR(readers[static_cast<size_t>(source)]->status());
      tree.ExhaustWinner();
    }
    // The winner's block may have depleted when `next` was pulled.
    note_depletions(source);
  }

  if (writer != nullptr) {
    Result<RunDescriptor> out = writer->Finish();
    if (!out.ok()) {
      return out.status();
    }
    outcome.output = *out;
  }
  return outcome;
}

Result<MergeOutcome> ExtractDepletionTrace(BlockDevice* input_device,
                                           const std::vector<RunDescriptor>& runs) {
  return MergeRuns(input_device, runs, /*output_device=*/nullptr);
}

}  // namespace emsim::extsort

#ifndef EMSIM_SWEEP_MERGE_H_
#define EMSIM_SWEEP_MERGE_H_

#include <string>
#include <vector>

#include "core/experiment.h"
#include "util/status.h"

namespace emsim::sweep {

/// One shard artifact with the label used in diagnostics — the file path for
/// on-disk artifacts, so a corrupt shard names its culprit file.
struct NamedArtifact {
  std::string name;      ///< Diagnostic label (file path for disk artifacts).
  std::string contents;  ///< The artifact document, footer included if sealed.
};

/// Merges decoded shard artifacts (as raw JSON documents) for `units` back
/// into per-unit aggregates.
///
/// Determinism contract (pinned by sweep_shard_test): for any shard count
/// and any assignment of shards to workers, the merged vector is
/// bit-identical to what core::RunSweep(units, ...) returns in one
/// process — both aggregate through core::AggregateGrid, here from exact
/// round-tripped per-trial results in global task order. Consequently the
/// JSON rendered from the merged aggregates is byte-identical to the
/// single-process artifact.
///
/// Validation: every artifact's spec digest must match `units`; together
/// the artifacts must cover every task index exactly once (duplicate shard
/// indices with identical ranges are tolerated — the per-task results are
/// deterministic, so either copy is correct — but conflicting or missing
/// coverage is an error). A captured task failure surfaces as the failure with the lowest
/// global task index, as the same core::SweepTaskFailure a single-process
/// RunSweep returns: "sweep task <i> failed: <status>".
Result<std::vector<core::ExperimentResult>> MergeShardArtifacts(
    const std::vector<core::SweepUnit>& units, const std::vector<std::string>& artifacts);

/// Same merge over *sealed* on-disk artifacts: every file's integrity footer
/// is verified and stripped (UnsealShardArtifact) before its payload is
/// trusted, and every validation error is prefixed with the culprit
/// artifact's name. A truncated body, a bit-flipped payload under a stale
/// footer, and a digest-mismatched shard all fail here with the file named.
Result<std::vector<core::ExperimentResult>> MergeShardArtifacts(
    const std::vector<core::SweepUnit>& units, const std::vector<NamedArtifact>& artifacts);

}  // namespace emsim::sweep

#endif  // EMSIM_SWEEP_MERGE_H_

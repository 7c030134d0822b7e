#ifndef EMSIM_SWEEP_SHARD_H_
#define EMSIM_SWEEP_SHARD_H_

#include <cstdint>
#include <string>
#include <string_view>
#include <vector>

#include "core/experiment.h"
#include "core/result.h"
#include "util/status.h"
#include "workload/experiment_spec.h"

namespace emsim::sweep {

/// Version of the shard-artifact schema below. A worker and merger must
/// agree on it exactly — the codec is a bit-exact wire format, not a
/// human-facing export.
inline constexpr int kShardSchemaVersion = 1;

/// FNV-1a over raw bytes, one byte per step: the digest of spec renderings
/// (SpecDigest) and of exported documents.
uint64_t Fnv1aDigest(std::string_view bytes);

/// Appends the integrity footer to an encoded artifact payload:
///
///     #emsim-shard-footer v2 len=<payload bytes> fnv1a64w=<16-hex digest>
///
/// The digest is FNV-1a stepped over the payload as little-endian 64-bit
/// words (same offset basis and prime as Fnv1aDigest), with the last
/// size % 8 bytes folded in one at a time; any change confined to one word
/// changes it. The footer makes every artifact file self-verifying: a
/// truncated write loses the footer, a truncated or bit-flipped payload
/// disagrees with the recorded length/digest. UnsealShardArtifact refuses
/// both, naming the failure, so the merge never trusts a torn file.
std::string SealShardArtifact(std::string payload);

/// Verifies and strips the integrity footer; returns the payload, a view
/// into `file_contents`. Errors are kCorruption and name the defect
/// (missing footer / footer version other than v2 / length mismatch /
/// digest mismatch).
Result<std::string_view> UnsealShardArtifact(std::string_view file_contents);

/// A contiguous half-open slice [begin, end) of a SweepGrid's global task
/// index space.
struct ShardRange {
  int begin = 0;
  int end = 0;

  int size() const { return end - begin; }
};

/// Deterministic contiguous split of `total_tasks` into `num_shards`
/// near-equal slices: the first `total_tasks % num_shards` shards get one
/// extra task. Shards past the task count come out empty. Every process
/// computes the same split from (total, k, N) alone — no coordination.
ShardRange ShardSlice(int total_tasks, int shard_index, int num_shards);

/// Parses a worker's shard as `k/N`: two plain non-negative decimal integers
/// with 0 <= k < N and nothing else (no sign, space or trailing text). On
/// false, `*index` and `*count` are unspecified.
bool ParseShardSpec(std::string_view text, int* index, int* count);

/// Canonical units for a parsed experiment spec, preserving spec order.
std::vector<core::SweepUnit> UnitsFromSpecs(const std::vector<workload::ExperimentSpec>& specs);

/// FNV-1a digest of the canonical spec rendering of `units` (name, config,
/// trials). Workers stamp it into their artifacts; the merger refuses to
/// combine shards whose digest disagrees with the spec it loaded, so a
/// stale shard file from a different sweep cannot silently corrupt a merge.
uint64_t SpecDigest(const std::vector<core::SweepUnit>& units);

/// One task's outcome inside a shard artifact. Failures are data, not
/// aborts: a worker records them and exits cleanly so the merger can
/// surface the lowest-global-index failure exactly as a single-process run
/// would have.
struct ShardTask {
  int task = 0;  ///< Global task index.
  bool ok = true;
  core::MergeResult result;  ///< Valid when ok.
  Status error;              ///< Valid when !ok.
};

/// A decoded shard artifact.
struct ShardArtifact {
  int shard_index = 0;
  int shard_count = 0;
  int total_tasks = 0;
  ShardRange range;
  uint64_t spec_digest = 0;
  std::vector<ShardTask> tasks;  ///< Ascending by global task index.
};

/// Renders one shard's outcome as a JSON artifact. The per-task MergeResult
/// encoding is exact: every field (including Accumulator internals) is
/// written in a form that decodes back bit-for-bit, so aggregates built
/// from decoded results are byte-identical to single-process aggregates.
std::string EncodeShardArtifact(const ShardArtifact& artifact);

/// Reads an artifact back, member by member in the order the encoder writes
/// them, and validates its header. A reordered, unknown or duplicate member,
/// or a value that does not fit its field, is kCorruption naming it.
Result<ShardArtifact> DecodeShardArtifact(std::string_view text);

/// Runs one shard of the grid (the slice ShardSlice picks for
/// `shard_index`/`shard_count`) and packages the outcome as an artifact.
/// Task failures are captured per task, not surfaced as a Status — only the
/// lowest-index failure is recorded, mirroring the parallel runners'
/// failure capture.
ShardArtifact RunShard(const core::SweepGrid& grid, int shard_index, int shard_count,
                       int num_threads, const core::TrialDeadline& deadline);

}  // namespace emsim::sweep

#endif  // EMSIM_SWEEP_SHARD_H_

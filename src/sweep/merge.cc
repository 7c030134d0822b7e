#include "sweep/merge.h"

#include <cstddef>
#include <cstdint>
#include <functional>
#include <limits>
#include <string>
#include <string_view>
#include <utility>

#include "core/result.h"
#include "sweep/shard.h"
#include "util/str.h"

namespace emsim::sweep {

namespace {

/// The common merge over already-unsealed payloads; `name(a)` labels
/// artifact `a` in every diagnostic.
Result<std::vector<core::ExperimentResult>> MergePayloads(
    const std::vector<core::SweepUnit>& units, size_t count,
    const std::function<std::string_view(size_t)>& payload,
    const std::function<std::string(size_t)>& name) {
  core::SweepGrid grid(units);
  const uint64_t digest = SpecDigest(units);
  const int total = grid.total_tasks();

  std::vector<core::MergeResult> results(static_cast<size_t>(total));
  std::vector<bool> covered(static_cast<size_t>(total), false);
  int failed_task = std::numeric_limits<int>::max();
  Status failed_status;

  for (size_t a = 0; a < count; ++a) {
    Result<ShardArtifact> decoded = DecodeShardArtifact(payload(a));
    if (!decoded.ok()) {
      return Status::Corruption(StrFormat("%s: %s", name(a).c_str(),
                                          decoded.status().message().c_str()));
    }
    ShardArtifact& shard = *decoded;
    if (shard.spec_digest != digest) {
      return Status::InvalidArgument(
          StrFormat("%s (shard %d/%d): spec digest %016llx does not match the "
                    "loaded spec (%016llx) — artifact is from a different sweep",
                    name(a).c_str(), shard.shard_index, shard.shard_count,
                    static_cast<unsigned long long>(shard.spec_digest),
                    static_cast<unsigned long long>(digest)));
    }
    if (shard.total_tasks != total) {
      return Status::InvalidArgument(
          StrFormat("%s: %d total tasks, spec defines %d", name(a).c_str(), shard.total_tasks,
                    total));
    }
    ShardRange expected = ShardSlice(total, shard.shard_index, shard.shard_count);
    if (shard.range.begin != expected.begin || shard.range.end != expected.end) {
      return Status::Corruption(
          StrFormat("%s: shard %d/%d claims range [%d, %d), expected [%d, %d)",
                    name(a).c_str(), shard.shard_index, shard.shard_count, shard.range.begin,
                    shard.range.end, expected.begin, expected.end));
    }
    for (ShardTask& task : shard.tasks) {
      if (task.task < shard.range.begin || task.task >= shard.range.end) {
        return Status::Corruption(StrFormat("%s: task %d outside its shard range",
                                            name(a).c_str(), task.task));
      }
      if (!task.ok) {
        if (task.task < failed_task) {
          failed_task = task.task;
          failed_status = task.error;
        }
        continue;
      }
      // The same shard may be given twice; the per-task results are
      // deterministic, so either copy is correct.
      results[static_cast<size_t>(task.task)] = std::move(task.result);
      covered[static_cast<size_t>(task.task)] = true;
    }
  }

  if (failed_task != std::numeric_limits<int>::max()) {
    // The exact error a single-process RunSweep returns: lowest-index
    // capture is shard- and thread-count independent.
    return core::SweepTaskFailure(failed_task, failed_status);
  }
  for (int t = 0; t < total; ++t) {
    if (!covered[static_cast<size_t>(t)]) {
      core::SweepGrid::Task task = grid.At(t);
      return Status::InvalidArgument(StrFormat(
          "task %d (unit '%s', trial %d) not covered by any artifact — missing shard?", t,
          units[static_cast<size_t>(task.unit)].name.c_str(), task.trial));
    }
  }

  return core::AggregateGrid(grid, std::move(results));
}

}  // namespace

Result<std::vector<core::ExperimentResult>> MergeShardArtifacts(
    const std::vector<core::SweepUnit>& units, const std::vector<std::string>& artifacts) {
  return MergePayloads(
      units, artifacts.size(), [&](size_t a) -> std::string_view { return artifacts[a]; },
      [](size_t a) { return StrFormat("artifact %zu", a); });
}

Result<std::vector<core::ExperimentResult>> MergeShardArtifacts(
    const std::vector<core::SweepUnit>& units, const std::vector<NamedArtifact>& artifacts) {
  // Verify every seal before trusting any payload: corruption diagnostics
  // should name the culprit file even when it is not the first artifact.
  std::vector<std::string_view> payloads;
  payloads.reserve(artifacts.size());
  for (const NamedArtifact& artifact : artifacts) {
    Result<std::string_view> payload = UnsealShardArtifact(artifact.contents);
    if (!payload.ok()) {
      return Status::Corruption(StrFormat("%s: %s", artifact.name.c_str(),
                                          payload.status().message().c_str()));
    }
    payloads.push_back(*payload);
  }
  return MergePayloads(
      units, payloads.size(), [&](size_t a) { return payloads[a]; },
      [&](size_t a) { return artifacts[a].name; });
}

}  // namespace emsim::sweep

#ifndef EMSIM_SWEEP_DISPATCHER_H_
#define EMSIM_SWEEP_DISPATCHER_H_

#include <atomic>
#include <functional>
#include <string>
#include <vector>

#include "fault/fault_plan.h"
#include "util/status.h"

namespace emsim::sweep {

/// Dispatch-layer counters, reported next to the simulated fault counters in
/// the merged sweep JSON (opt-in). All zeros on a clean run — the explicit
/// zeros distinguish "nothing retried" from "nobody counted".
struct DispatchStats {
  int launches = 0;         ///< Worker processes spawned (including chaos kills).
  int resubmissions = 0;    ///< Failed attempts re-queued with backoff.
  int deadline_kills = 0;   ///< Stragglers killed past retry.timeout_ms.
  int chaos_kills = 0;      ///< Attempts killed by the chaos hook.
  int spawn_failures = 0;   ///< Subprocess::Start failures (retried).
  int drain_kills = 0;      ///< In-flight workers killed at the drain deadline.
};

/// Lifecycle notification for one shard attempt; the CLI's journal is wired
/// through this observer so every dispatch transition is durable.
struct ShardEvent {
  enum class Kind {
    kStart,   ///< Attempt launched; `path` = its artifact path.
    kDone,    ///< Attempt succeeded; `path` = the published artifact.
    kRetry,   ///< Attempt failed; resubmission queued (`detail` = why).
    kFailed,  ///< Retries exhausted (`detail` = why).
  };

  Kind kind = Kind::kStart;
  int shard = 0;
  int attempt = 0;
  std::string path;
  std::string detail;
};

/// Multi-process shard dispatcher: hands shard indices to a pool of worker
/// subprocesses with work-stealing handoff (a finished worker immediately
/// claims the next pending shard), per-shard wall-clock deadlines, and
/// straggler resubmission with exponential backoff — the same
/// fault::RetryPolicy shape the simulated I/O retry driver uses, applied to
/// real processes. Shard artifacts are deterministic per shard index, so a
/// resubmitted attempt reproduces exactly what the killed straggler would
/// have written and the merged result is unaffected by retries.
struct DispatcherOptions {
  int num_shards = 1;
  /// Shard indices to actually run; empty = all of [0, num_shards). Resume
  /// passes only the shards whose artifacts are missing or quarantined.
  std::vector<int> shards;
  /// Concurrent worker subprocesses; 0 = min(shard count, hardware threads).
  int max_workers = 0;
  /// retry.timeout_ms: per-shard wall-clock deadline before the attempt is
  /// killed and resubmitted (0 = no deadline). retry.max_retries:
  /// resubmissions allowed per shard. retry.backoff_base_ms/multiplier:
  /// real-time backoff before a resubmission.
  fault::RetryPolicy retry;
  /// Test/CI chaos hook: SIGKILL the first attempt of this shard right
  /// after it spawns, to prove the resubmission path end to end (-1 = off).
  int chaos_kill_shard = -1;
  /// Graceful-drain request (signal handlers flip it). Once set, no new
  /// shards launch; in-flight workers get `drain_grace_ms` to finish, then
  /// are killed. The run reports drained=true and is resumable.
  const std::atomic<bool>* drain = nullptr;
  double drain_grace_ms = 2000.0;
  /// Progress lines ("shard 3/7 attempt 2: exit 0"); null = silent.
  std::function<void(const std::string&)> log;
  /// Attempt lifecycle observer (journal hook); null = none.
  std::function<void(const ShardEvent&)> on_event;
};

/// Per-shard dispatch outcome.
struct ShardDispatch {
  int shard = 0;
  int attempts = 0;
  bool ok = false;
  std::string artifact_path;  ///< Written by the successful attempt.
  std::string error;          ///< Why the shard ultimately failed / drained.
};

/// Outcome of a dispatch round: one entry per *requested* shard in ascending
/// shard order, the drain verdict, and the dispatch counters.
struct DispatchReport {
  std::vector<ShardDispatch> shards;
  bool drained = false;  ///< Drain requested; incomplete shards are resumable.
  DispatchStats stats;
};

/// Builds the worker argv for one shard attempt; `out_path` is where the
/// worker must write its artifact (the dispatcher picks an attempt-unique
/// path so a killed attempt's partial file cannot shadow a good one).
using ShardCommandFn =
    std::function<std::vector<std::string>(int shard, const std::string& out_path)>;

/// Runs the requested shards to completion, permanent failure, or drain.
/// The call fails only on infrastructure errors (spawn failure, shard
/// exhausting its retries); per-task simulation failures live inside the
/// artifacts and are surfaced by the merger. A drained run is NOT an error:
/// the report comes back with drained=true and whatever shards finished.
Result<DispatchReport> RunShardedSweep(const DispatcherOptions& options,
                                       const std::string& shard_dir,
                                       const ShardCommandFn& command);

}  // namespace emsim::sweep

#endif  // EMSIM_SWEEP_DISPATCHER_H_

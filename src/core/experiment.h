#ifndef EMSIM_CORE_EXPERIMENT_H_
#define EMSIM_CORE_EXPERIMENT_H_

#include <cstddef>
#include <cstdint>
#include <string>
#include <vector>

#include "core/config.h"
#include "core/result.h"
#include "stats/accumulator.h"
#include "stats/confidence.h"
#include "util/status.h"

namespace emsim::core {

/// Aggregate of several independently seeded trials of one configuration —
/// the paper averages its trials the same way.
struct ExperimentResult {
  std::vector<MergeResult> trials;

  stats::Accumulator total_ms;
  stats::Accumulator success_ratio;
  stats::Accumulator concurrency;
  stats::Accumulator io_operations;
  stats::Accumulator cache_occupancy;

  double MeanTotalSeconds() const { return total_ms.Mean() / 1000.0; }
  stats::ConfidenceInterval TotalSecondsCi() const {
    auto ci = stats::MeanConfidence95(total_ms);
    ci.mean /= 1000.0;
    ci.half_width /= 1000.0;
    return ci;
  }
  double MeanSuccessRatio() const { return success_ratio.Mean(); }
  double MeanConcurrency() const { return concurrency.Mean(); }

  std::string ToString() const;
};

/// Per-trial runaway guard applied by the trial runners: a trial that
/// exceeds either bound is converted into a DeadlineExceeded failure (with
/// the offending config echoed) instead of hanging the whole experiment.
/// Zero disables a bound. Bounds already present on a config are kept (the
/// tighter of the two wins for the event cap; a nonzero config wall clock
/// wins outright since wall time is not additive across trials).
struct TrialDeadline {
  uint64_t max_sim_events = 0;  ///< Calendar events per trial (0 = unlimited).
  double max_wall_ms = 0.0;     ///< Wall-clock ms per trial (0 = unlimited).
};

/// One experiment point in a sweep: a named configuration and its trial
/// count. This is the unit the spec parser, the trial runners and the
/// shard workers all agree on.
struct SweepUnit {
  std::string name;
  MergeConfig config;
  int trials = 1;
};

/// Deterministic flattening of a set of SweepUnits into one global task
/// list: task index t maps to (unit, trial) in unit-major, trial-minor
/// order. Trial `i` of a unit runs with seed `config.seed + i`, exactly as
/// RunTrials seeds its trials. The flattening is pure arithmetic on the
/// unit list, so every process that builds a grid from the same units —
/// a single-machine sweep, a worker subprocess handed a shard of the index
/// space, the artifact merger — sees the identical task <-> (unit, trial)
/// correspondence. That shared numbering is what makes sharded execution
/// mergeable back into the bit-identical single-process aggregate.
class SweepGrid {
 public:
  SweepGrid() = default;
  explicit SweepGrid(std::vector<SweepUnit> units);

  struct Task {
    int unit = 0;
    int trial = 0;
  };

  int total_tasks() const { return total_tasks_; }
  int num_units() const { return static_cast<int>(units_.size()); }
  const std::vector<SweepUnit>& units() const { return units_; }

  /// Maps a global task index to its (unit, trial) pair.
  Task At(int global_index) const;

  /// First global task index of `unit` (its trials are contiguous).
  int UnitBegin(int unit) const { return offsets_[static_cast<size_t>(unit)]; }

  /// The fully configured per-trial MergeConfig for one task: the unit's
  /// config with the trial seed and the harness deadline applied.
  MergeConfig TaskConfig(int global_index, const TrialDeadline& deadline) const;

 private:
  std::vector<SweepUnit> units_;
  std::vector<int> offsets_;  // Prefix sums; size num_units() + 1.
  int total_tasks_ = 0;
};

/// Outcome of running a contiguous slice of a SweepGrid's task space.
/// Either every task in the range succeeded (`ok()`, `results[i]` holds
/// task begin+i), or `failed_task` names the lowest-index failing task and
/// `status` its error — the same lowest-index capture the parallel runners
/// have always used, so the failure a caller sees is independent of thread
/// count, shard count and scheduling order.
struct SweepRangeOutcome {
  std::vector<MergeResult> results;
  int failed_task = -1;
  Status status;

  bool ok() const { return failed_task < 0; }
};

/// Runs tasks [begin, end) of the grid on the shared worker pool with up to
/// `num_threads`-way parallelism (0 = hardware concurrency, 1 = inline on
/// the caller in index order). Task results are deterministic per task
/// index, independent of threads.
SweepRangeOutcome RunSweepRange(const SweepGrid& grid, int begin, int end, int num_threads,
                                const TrialDeadline& deadline = {});

/// Aggregates one unit's trials, in trial order, into an ExperimentResult.
ExperimentResult AggregateTrials(std::vector<MergeResult> trials);

/// Aggregates a whole grid's per-task results (indexed by global task) into
/// one ExperimentResult per unit, in unit order. RunSweep and the shard
/// merger both end here, which is what makes their outputs bit-identical.
std::vector<ExperimentResult> AggregateGrid(const SweepGrid& grid,
                                            std::vector<MergeResult> results);

/// The error a sweep reports for its lowest-index failing task:
/// "sweep task <task> failed: <status>", keeping the task's status code.
Status SweepTaskFailure(int task, const Status& status);

/// Runs `num_trials` trials with seeds seed, seed+1, ... on up to
/// `num_threads` pool threads (1 = inline in seed order, 0 = hardware
/// concurrency) and aggregates them in seed order, so the result is
/// bit-identical for every thread count. Aborts on the lowest-index trial
/// failure ("trial <i> failed: ...", reported from the joining thread):
/// experiments are programmed, not user input; use RunSweep or
/// SimulateMerge for Status-based handling.
ExperimentResult RunTrials(const MergeConfig& config, int num_trials, int num_threads = 1,
                           const TrialDeadline& deadline = {});

/// Runs every unit's trials as one flattened task grid on up to
/// `num_threads` pool threads (0 = hardware concurrency), so a sweep keeps
/// all threads busy even when per-unit trial counts are small. Results are
/// aggregated per unit, in the order given; a task failure returns
/// SweepTaskFailure for the lowest failing task index.
Result<std::vector<ExperimentResult>> RunSweep(const std::vector<SweepUnit>& units,
                                               int num_threads = 0,
                                               const TrialDeadline& deadline = {});

/// Default trial count used by the benches (the paper's count is lost to
/// OCR; 5 gives sub-1% confidence half-widths at these run lengths).
inline constexpr int kDefaultTrials = 5;

}  // namespace emsim::core

#endif  // EMSIM_CORE_EXPERIMENT_H_

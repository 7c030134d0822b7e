#include "core/experiment.h"

#include <algorithm>
#include <cstddef>
#include <cstdint>
#include <limits>
#include <thread>
#include <utility>

#include "core/merge_simulator.h"
#include "core/result.h"
#include "util/check.h"
#include "util/mutex.h"
#include "util/status.h"
#include "util/str.h"
#include "util/thread_annotations.h"
#include "util/thread_pool.h"

namespace emsim::core {

namespace {

/// Collects the first failure by *task index* (not arrival order) so the
/// failure a caller sees is deterministic across thread counts, and defers
/// any abort to the joining thread: pool workers must never call abort()
/// while sibling tasks are mid-flight. Accessors lock too: they are called
/// only after the pool joins, but taking the mutex keeps the class
/// race-free by construction (and the thread-safety analysis checkable)
/// rather than by caller protocol.
class FailureCapture {
 public:
  void Record(int index, const Status& status) EMSIM_EXCLUDES(mu_) {
    util::MutexLock lock(&mu_);
    if (index < first_index_) {
      first_index_ = index;
      status_ = status;
    }
  }

  bool failed() const EMSIM_EXCLUDES(mu_) {
    util::MutexLock lock(&mu_);
    return first_index_ != std::numeric_limits<int>::max();
  }
  int first_index() const EMSIM_EXCLUDES(mu_) {
    util::MutexLock lock(&mu_);
    return first_index_;
  }
  Status status() const EMSIM_EXCLUDES(mu_) {
    util::MutexLock lock(&mu_);
    return status_;
  }

 private:
  mutable util::Mutex mu_;
  int first_index_ EMSIM_GUARDED_BY(mu_) = std::numeric_limits<int>::max();
  Status status_ EMSIM_GUARDED_BY(mu_);
};

int ResolveThreads(int num_threads) {
  if (num_threads > 0) {
    return num_threads;
  }
  int hw = static_cast<int>(std::thread::hardware_concurrency());
  return hw > 0 ? hw : 2;
}

/// Stamps the harness deadline onto one trial's config. Config-level bounds
/// take precedence where they are tighter (events) or set at all (wall
/// clock); see TrialDeadline's doc for the rationale.
void ApplyDeadline(MergeConfig& config, const TrialDeadline& deadline) {
  if (deadline.max_sim_events > 0 &&
      (config.max_sim_events == 0 || deadline.max_sim_events < config.max_sim_events)) {
    config.max_sim_events = deadline.max_sim_events;
  }
  if (deadline.max_wall_ms > 0 && config.max_wall_ms == 0) {
    config.max_wall_ms = deadline.max_wall_ms;
  }
}

}  // namespace

std::string ExperimentResult::ToString() const {
  auto ci = stats::MeanConfidence95(total_ms);
  return StrFormat("Experiment{trials=%zu, total=%.2f±%.2f s, success=%.3f, conc=%.3f}",
                   trials.size(), ci.mean / 1000.0, ci.half_width / 1000.0,
                   MeanSuccessRatio(), MeanConcurrency());
}

SweepGrid::SweepGrid(std::vector<SweepUnit> units) : units_(std::move(units)) {
  offsets_.reserve(units_.size() + 1);
  offsets_.push_back(0);
  for (const SweepUnit& unit : units_) {
    EMSIM_CHECK(unit.trials >= 1);
    offsets_.push_back(offsets_.back() + unit.trials);
  }
  total_tasks_ = offsets_.back();
}

SweepGrid::Task SweepGrid::At(int global_index) const {
  EMSIM_CHECK(global_index >= 0 && global_index < total_tasks_);
  // First offset strictly greater than the index marks the owning unit.
  auto it = std::upper_bound(offsets_.begin(), offsets_.end(), global_index);
  int unit = static_cast<int>(it - offsets_.begin()) - 1;
  return Task{unit, global_index - offsets_[static_cast<size_t>(unit)]};
}

MergeConfig SweepGrid::TaskConfig(int global_index, const TrialDeadline& deadline) const {
  Task task = At(global_index);
  MergeConfig config = units_[static_cast<size_t>(task.unit)].config;
  config.seed = config.seed + static_cast<uint64_t>(task.trial);
  ApplyDeadline(config, deadline);
  return config;
}

ExperimentResult AggregateTrials(std::vector<MergeResult> trials) {
  ExperimentResult out;
  for (MergeResult& r : trials) {
    out.total_ms.Add(r.total_ms);
    out.success_ratio.Add(r.SuccessRatio());
    out.concurrency.Add(r.avg_concurrency);
    out.io_operations.Add(static_cast<double>(r.io_operations));
    out.cache_occupancy.Add(r.mean_cache_occupancy);
    out.trials.push_back(std::move(r));
  }
  return out;
}

SweepRangeOutcome RunSweepRange(const SweepGrid& grid, int begin, int end, int num_threads,
                                const TrialDeadline& deadline) {
  EMSIM_CHECK(begin >= 0 && begin <= end && end <= grid.total_tasks());
  SweepRangeOutcome out;
  out.results.resize(static_cast<size_t>(end - begin));
  if (begin == end) {
    return out;
  }
  FailureCapture failure;
  auto task = [&](int i) {
    int global = begin + i;
    Result<MergeResult> result = SimulateMerge(grid.TaskConfig(global, deadline));
    if (!result.ok()) {
      failure.Record(global, result.status());
      return;
    }
    out.results[static_cast<size_t>(i)] = *std::move(result);
  };
  ThreadPool::Instance().Run(ResolveThreads(num_threads), end - begin, task);
  if (failure.failed()) {
    out.failed_task = failure.first_index();
    out.status = failure.status();
    out.results.clear();
  }
  return out;
}

std::vector<ExperimentResult> AggregateGrid(const SweepGrid& grid,
                                            std::vector<MergeResult> results) {
  std::vector<ExperimentResult> out;
  out.reserve(static_cast<size_t>(grid.num_units()));
  for (int u = 0; u < grid.num_units(); ++u) {
    auto first = results.begin() + grid.UnitBegin(u);
    auto last = first + grid.units()[static_cast<size_t>(u)].trials;
    out.push_back(AggregateTrials(
        std::vector<MergeResult>(std::make_move_iterator(first), std::make_move_iterator(last))));
  }
  return out;
}

Status SweepTaskFailure(int task, const Status& status) {
  return Status(status.code(),
                StrFormat("sweep task %d failed: %s", task, status.ToString().c_str()));
}

ExperimentResult RunTrials(const MergeConfig& config, int num_trials, int num_threads,
                           const TrialDeadline& deadline) {
  EMSIM_CHECK(num_trials >= 1);
  SweepGrid grid({SweepUnit{"", config, num_trials}});
  SweepRangeOutcome outcome = RunSweepRange(grid, 0, grid.total_tasks(), num_threads, deadline);
  EMSIM_CHECK_MSG(outcome.ok(),
                  StrFormat("trial %d failed: %s", outcome.failed_task,
                            outcome.status.ToString().c_str())
                      .c_str());
  return AggregateTrials(std::move(outcome.results));
}

Result<std::vector<ExperimentResult>> RunSweep(const std::vector<SweepUnit>& units,
                                               int num_threads, const TrialDeadline& deadline) {
  SweepGrid grid(units);
  SweepRangeOutcome outcome = RunSweepRange(grid, 0, grid.total_tasks(), num_threads, deadline);
  if (!outcome.ok()) {
    return SweepTaskFailure(outcome.failed_task, outcome.status);
  }
  return AggregateGrid(grid, std::move(outcome.results));
}

}  // namespace emsim::core

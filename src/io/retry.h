#ifndef EMSIM_IO_RETRY_H_
#define EMSIM_IO_RETRY_H_

#include <cstdint>
#include <deque>
#include <vector>

#include "disk/array.h"
#include "disk/disk.h"
#include "fault/fault_plan.h"
#include "fault/health.h"
#include "obs/metrics.h"
#include "sim/simulation.h"

namespace emsim::io {

/// Cumulative recovery counters maintained by the retry driver.
struct RetryStats {
  uint64_t timeouts = 0;           ///< Attempts abandoned while queued.
  uint64_t retries = 0;            ///< Re-submissions (after error or timeout).
  uint64_t permanent_failures = 0; ///< Requests that exhausted every retry.
  double backoff_ms = 0.0;         ///< Total simulated backoff wait.
};

/// Fault-aware submission path between the merge engine and the disk array.
/// Each request becomes a job: every attempt is fallible and carries a fresh
/// progress cell; a timeout watchdog abandons attempts stuck in a queue (a
/// fail-stopped disk) and re-submits after exponential backoff; injected
/// media errors re-submit the same way. Outcomes feed the HealthTracker so
/// planners can route the fan-out around sick disks. A job that exhausts
/// `policy.max_retries` re-submissions reports `OnError(request)` to the
/// caller's sink — the engine decides whether the merge can degrade further
/// or must surface a Status.
///
/// The driver is the disks' sink for every attempt and forwards to the
/// caller's sink. Jobs and attempts live in recycled slots addressed by the
/// request cookie, so the fault-free path allocates nothing once warm. An
/// attempt abandoned while queued keeps its slot (its request may still sit
/// in a disk queue), so slot growth is bounded by the timeout count.
///
/// Everything runs on simulated time inside the single-threaded kernel:
/// retry schedules are ScheduleCallback events, so trials with identical
/// seeds and fault plans replay identically. Every watchdog is armed at
/// Now() + timeout_ms and never cancelled, so a fault trial keeps a
/// hundred-odd of them pending on the kernel's calendar heap.
class FetchRetryDriver final : public disk::RequestSink {
 public:
  /// `metrics` may be null; when set, the driver registers "fault.retries",
  /// "fault.timeouts" counters and the "fault.backoff_ms" gauge.
  FetchRetryDriver(sim::Simulation* sim, disk::DiskArray* disks, fault::HealthTracker* health,
                   fault::RetryPolicy policy, obs::MetricsRegistry* metrics);

  FetchRetryDriver(const FetchRetryDriver&) = delete;
  FetchRetryDriver& operator=(const FetchRetryDriver&) = delete;

  /// Submits `request` to `disk` under the retry policy. The request's sink
  /// gets each block and OnComplete once, from the first attempt that
  /// succeeds (a successful completion also clears the disk's failure
  /// streak), or OnError once every retry is spent. The caller's request
  /// must have a sink, be infallible and carry no progress cell — the
  /// driver owns fallibility and progress.
  void Submit(int disk, const disk::DiskRequest& request);

  const RetryStats& stats() const { return stats_; }

  // disk::RequestSink: outcomes of the driver's own attempts.
  void OnBlock(const disk::DiskRequest& attempt, int i) override;
  void OnComplete(const disk::DiskRequest& attempt) override;
  void OnError(const disk::DiskRequest& attempt) override;

 private:
  struct Job {
    int disk = 0;
    disk::DiskRequest request;  ///< The caller's request, copied per attempt.
    int attempts = 0;
  };

  /// One attempt's progress cell. Held by the disk until the attempt
  /// settles and by the watchdog until it stops watching; recycled once
  /// neither holds it.
  struct AttemptSlot {
    disk::RequestProgress progress;
    uint32_t job = 0;
    int holds = 0;
  };

  void Attempt(uint32_t job);
  void ArmTimeout(uint32_t attempt);
  void OnTimeout(uint32_t attempt);
  void HandleFailure(uint32_t job);
  void Release(uint32_t attempt);

  sim::Simulation* sim_;
  disk::DiskArray* disks_;
  fault::HealthTracker* health_;
  fault::RetryPolicy policy_;
  RetryStats stats_;
  std::vector<Job> jobs_;
  std::vector<uint32_t> free_jobs_;
  /// A deque: disks hold pointers to the progress cells across growth.
  std::deque<AttemptSlot> attempts_;
  std::vector<uint32_t> free_attempts_;
  obs::Counter* metric_retries_ = nullptr;
  obs::Counter* metric_timeouts_ = nullptr;
  obs::Gauge* metric_backoff_ms_ = nullptr;
};

}  // namespace emsim::io

#endif  // EMSIM_IO_RETRY_H_

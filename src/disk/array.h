#ifndef EMSIM_DISK_ARRAY_H_
#define EMSIM_DISK_ARRAY_H_

#include <cstddef>
#include <cstdint>
#include <memory>
#include <vector>

#include "disk/disk.h"
#include "disk/disk_params.h"
#include "fault/fault_plan.h"
#include "obs/metrics.h"
#include "sim/simulation.h"
#include "stats/time_weighted.h"

namespace emsim::disk {

/// A bank of `D` independent disks with a shared concurrency statistic.
/// The channel between the I/O subsystem and memory is assumed wide enough
/// for all disks to transfer at once (the paper's assumption), so the array
/// imposes no cross-disk contention — it only observes it.
class DiskArray : private BusyObserver {
 public:
  struct Options {
    DiskParams params;
    int num_disks = 5;
    uint64_t seed = 1;
    /// Optional metrics registry; wires per-disk busy/queue timelines, the
    /// shared request counters, and the "<prefix>s.concurrency" timeline.
    obs::MetricsRegistry* metrics = nullptr;
    /// Optional fault plan consulted by every disk on every request
    /// (nullptr keeps the fault-free paths byte-identical). Must outlive
    /// the array.
    fault::FaultPlan* faults = nullptr;
    /// Metric name prefix ("disk" gives "disk0.busy", "disk.requests" and
    /// "disks.concurrency"), so two arrays can share one registry.
    const char* metric_prefix = "disk";
  };

  DiskArray(sim::Simulation* sim, const Options& options);

  DiskArray(const DiskArray&) = delete;
  DiskArray& operator=(const DiskArray&) = delete;

  /// Starts every disk's server process.
  void Start();

  /// Stops all disks (after their queues drain).
  void Stop();

  int num_disks() const { return static_cast<int>(disks_.size()); }
  Disk& disk(int i) { return *disks_.at(static_cast<size_t>(i)); }
  const Disk& disk(int i) const { return *disks_.at(static_cast<size_t>(i)); }

  void Submit(int disk_id, const DiskRequest& request) { disk(disk_id).Submit(request); }

  /// Number of disks busy right now.
  int BusyDisks() const { return busy_count_; }

  /// Time-averaged number of concurrently busy disks over the intervals
  /// where at least one disk is busy — the paper's "average I/O parallelism"
  /// (asymptotically sqrt(pi D / 2) - 1/3 for unsynchronized intra-run).
  double MeanConcurrencyWhileActive() const { return concurrency_.AverageWhilePositive(); }

  /// Time-averaged number of busy disks over all elapsed time.
  double MeanBusyDisks() const { return concurrency_.Average(); }

  /// Fraction of elapsed time with at least one busy disk.
  double ActiveFraction() const;

  /// Aggregated statistics over all disks.
  DiskStats TotalStats() const;

  /// Per-disk utilization snapshots, ordered by disk id (call FlushStats
  /// first for end-of-run figures).
  std::vector<DiskUtilization> UtilizationSnapshot() const;

  /// Closes statistic windows (array-wide and per-disk) at the current
  /// simulated time.
  void FlushStats();

 private:
  void OnBusyChanged(int disk_id, bool busy) override;

  sim::Simulation* sim_;
  std::vector<std::unique_ptr<Disk>> disks_;
  int busy_count_ = 0;
  stats::TimeWeighted concurrency_;
  obs::Timeline* metric_concurrency_ = nullptr;
};

}  // namespace emsim::disk

#endif  // EMSIM_DISK_ARRAY_H_

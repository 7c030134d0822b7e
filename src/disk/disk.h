#ifndef EMSIM_DISK_DISK_H_
#define EMSIM_DISK_DISK_H_

#include <cstddef>
#include <cstdint>
#include <string>
#include <type_traits>
#include <vector>

#include "disk/disk_params.h"
#include "disk/mechanism.h"
#include "fault/fault_plan.h"
#include "obs/metrics.h"
#include "sim/calendar.h"
#include "sim/process.h"
#include "sim/signal.h"
#include "sim/simulation.h"
#include "stats/time_weighted.h"
#include "util/rng.h"

namespace emsim::disk {

/// Why a request was issued; used for statistics and tracing.
enum class RequestKind {
  kDemand,    ///< The merge is stalled waiting for this block.
  kPrefetch,  ///< Speculative read issued by a prefetching policy.
  kWrite,     ///< Merged output written behind the merge (extension).
};

/// Where a request stands in the disk's pipeline; written by the disk,
/// polled by issuers that retry on timeout (io::FetchRetryDriver).
enum class RequestPhase {
  kQueued,   ///< Submitted; not yet picked by the server.
  kServing,  ///< Non-preemptively in service.
  kDone,     ///< All blocks delivered, OnComplete sent.
  kFailed,   ///< Injected media error; OnError sent, no blocks delivered.
};

/// Progress cell for one request attempt, owned by the issuer. The issuer
/// keeps it so its timeout watchdog can see how far the attempt got; it
/// sets `abandoned` to disown an attempt that is still queued (the disk
/// drops it unserved — there is no preemption of an attempt in service).
struct RequestProgress {
  RequestPhase phase = RequestPhase::kQueued;
  bool abandoned = false;
};

class RequestSink;

/// One request for `nblocks` contiguous disk-local blocks, as plain data:
/// queueing, copying and delivering it never touches the heap. The disk
/// reports to `sink`: `OnBlock(req, i)` when the i-th block's transfer
/// completes (this is how unsynchronized prefetching lets the CPU resume
/// after the first block) and `OnComplete(req)` after the last. A null sink
/// receives nothing. Block i arrives at service start + positioning +
/// (i + 1) transfer times, summed step by step, each delivery one simulation
/// event: the server awaits one kernel tick series per request (sim::Ticks),
/// and `OnBlock` runs in the tick's dispatch, at the same time and in the
/// same order as after a per-block delay. `OnComplete` runs when the server
/// resumes after the last block. Sink calls must not block.
///
/// Only a `fallible` request can be failed by an injected media error; its
/// sink then gets `OnError(req)` instead of any block or completion. Other
/// requests are never failed, since their issuer would not observe it,
/// though timing faults (fail-slow, spikes, fail-stop) still apply.
/// A fault-aware issuer may also attach a `progress` cell it owns.
///
/// `run` through `cookie` are the issuer's routing data; the disk never
/// reads them.
struct DiskRequest {
  int64_t start_block = 0;
  int nblocks = 1;
  RequestKind kind = RequestKind::kDemand;
  RequestSink* sink = nullptr;
  bool fallible = false;
  int run = 0;                ///< Run the blocks belong to.
  int64_t first_offset = 0;   ///< Run offset of block 0 of the request.
  int64_t offset_stride = 1;  ///< Run-offset step between blocks.
  uint32_t cookie = 0;        ///< Issuer's own slot (e.g. a retry job).
  RequestProgress* progress = nullptr;

  // Filled in by Disk::Submit.
  uint64_t id = 0;
  sim::SimTime enqueue_time = 0;
};

static_assert(std::is_trivially_copyable_v<DiskRequest>,
              "disk requests are plain data; queueing one must not allocate");

/// Receives a disk's per-request outcomes (see DiskRequest). OnBlock runs
/// inside the kernel's tick dispatch, OnComplete and OnError in the disk
/// server's process; none may block.
class RequestSink {
 public:
  virtual void OnBlock(const DiskRequest& request, int i) = 0;
  virtual void OnComplete(const DiskRequest& request) = 0;
  virtual void OnError(const DiskRequest& request) = 0;

 protected:
  ~RequestSink() = default;
};

/// Told of every busy/idle transition of a disk; DiskArray implements it to
/// maintain the cross-disk concurrency statistic.
class BusyObserver {
 public:
  virtual void OnBusyChanged(int disk_id, bool busy) = 0;

 protected:
  ~BusyObserver() = default;
};

/// Cumulative per-disk statistics.
struct DiskStats {
  uint64_t requests = 0;
  uint64_t demand_requests = 0;
  uint64_t blocks_transferred = 0;
  uint64_t seeks = 0;             ///< Requests with nonzero arm travel.
  int64_t seek_cylinders = 0;     ///< Total arm travel.
  double seek_ms = 0;
  double rotation_ms = 0;
  double transfer_ms = 0;
  double queue_wait_ms = 0;       ///< Sum over requests of (service start - enqueue).
  size_t max_queue_length = 0;

  // Fault-path counters; all stay zero when no FaultPlan is attached.
  uint64_t media_errors = 0;      ///< Requests failed by injected media errors.
  uint64_t latency_spikes = 0;    ///< Requests that paid a latency spike.
  uint64_t dropped_requests = 0;  ///< Abandoned attempts dropped unserved.
  double fail_stop_ms = 0;        ///< Time parked by a finite fail-stop window.
  double fault_extra_ms = 0;      ///< Extra service time from fail-slow/spikes.

  double BusyMs() const { return seek_ms + rotation_ms + transfer_ms; }
};

/// End-of-run utilization snapshot of one disk: the time-weighted view the
/// cumulative DiskStats cannot express (busy fraction of elapsed time, mean
/// queue length) plus the cumulative counters. This is what the JSON
/// exporters emit per disk.
struct DiskUtilization {
  int id = 0;
  double busy_fraction = 0.0;      ///< Fraction of elapsed time in service.
  double mean_queue_length = 0.0;  ///< Time-averaged waiting requests.
  DiskStats stats;
};

/// A single disk unit: a FIFO (or SSTF) queue served by one simulation
/// process that prices each request with the Mechanism and delivers blocks
/// at transfer-time granularity, as one kernel tick series per request.
/// Matches the paper's model where every block request is queued at the disk
/// and serviced independently, non-preemptively.
class Disk {
 public:
  /// `seed` derives the disk's private rotational-latency RNG stream.
  Disk(sim::Simulation* sim, const DiskParams& params, int id, uint64_t seed);

  Disk(const Disk&) = delete;
  Disk& operator=(const Disk&) = delete;

  /// Spawns the server process. Call once before the simulation runs.
  void Start();

  /// Stops the server once the queue drains (used for clean teardown).
  void Stop();

  /// Enqueues a request. May be called from any process at any time.
  void Submit(const DiskRequest& request);

  int id() const { return id_; }
  bool busy() const { return busy_; }
  size_t QueueLength() const { return queue_.size() - queue_head_; }
  const DiskStats& stats() const { return stats_; }
  const Mechanism& mechanism() const { return mechanism_; }

  /// Fraction of elapsed simulated time this disk spent servicing requests
  /// (integrates to the last update; call FlushLocalStats first for an
  /// end-of-run figure).
  double BusyFraction() const { return busy_timeline_.Average(); }

  /// Time-averaged number of requests waiting in this disk's queue.
  double MeanQueueLength() const { return queue_timeline_.Average(); }

  /// Closes the busy/queue timelines at the current simulated time.
  void FlushLocalStats();

  /// Utilization snapshot (flush first for end-of-run accuracy).
  DiskUtilization Utilization() const;

  /// Registers this disk's timelines ("<prefix><i>.busy",
  /// "<prefix><i>.queue_len") and request counters ("<prefix>.requests",
  /// "<prefix>.blocks_transferred") with `metrics`. Call before the
  /// simulation runs.
  void AttachMetrics(obs::MetricsRegistry* metrics, const char* prefix);

  /// Attaches a fault plan consulted on every request (nullptr — the
  /// default — keeps the fault-free hot path untouched). The plan must
  /// outlive the disk. Call before the simulation runs.
  void SetFaultPlan(fault::FaultPlan* plan) { faults_ = plan; }

  /// Registers the observer told of busy-state transitions (nullptr
  /// detaches). It must outlive the disk.
  void SetBusyObserver(BusyObserver* observer) { busy_observer_ = observer; }

  std::string ToString() const;

 private:
  sim::Process Serve();

  /// Removes and returns the next request per the scheduling policy.
  DiskRequest PopNext();

  // Inline: both run on every request transition (twice per request for the
  // busy flag), bracketing every block of simulated I/O.
  void SetBusy(bool busy) {
    if (busy_ == busy) {
      return;
    }
    busy_ = busy;
    busy_timeline_.Update(sim_->Now(), busy ? 1.0 : 0.0);
    if (metric_busy_ != nullptr) {
      metric_busy_->Update(sim_->Now(), busy ? 1.0 : 0.0);
    }
    if (busy_observer_ != nullptr) {
      busy_observer_->OnBusyChanged(id_, busy);
    }
  }

  void NoteQueueLength() {
    queue_timeline_.Update(sim_->Now(), static_cast<double>(QueueLength()));
    if (metric_queue_ != nullptr) {
      metric_queue_->Update(sim_->Now(), static_cast<double>(QueueLength()));
    }
  }

  sim::Simulation* sim_;
  int id_;
  Mechanism mechanism_;
  fault::FaultPlan* faults_ = nullptr;
  Rng rng_;
  BusyObserver* busy_observer_ = nullptr;
  /// Requests the queue buffer holds from construction. The deepest queue
  /// seen on the benchmark workloads is 30 pending requests (k=25, D=5,
  /// N=1 inter-run), so their trials never grow it; a deeper queue still
  /// grows by doubling.
  static constexpr size_t kReservedRequests = 32;

  /// Pending requests are queue_[queue_head_, size) in arrival order. The
  /// served prefix is dropped when the queue drains, or compacted away when
  /// a push finds the buffer full, so a steady state reuses one buffer.
  std::vector<DiskRequest> queue_;
  size_t queue_head_ = 0;
  sim::Signal work_;
  DiskStats stats_;
  uint64_t next_request_id_ = 0;
  bool busy_ = false;
  bool started_ = false;
  bool stopping_ = false;

  // Always-on utilization timelines (a few arithmetic ops per transition).
  stats::TimeWeighted busy_timeline_;
  stats::TimeWeighted queue_timeline_;

  // Optional registry mirrors (null unless AttachMetrics was called).
  obs::Timeline* metric_busy_ = nullptr;
  obs::Timeline* metric_queue_ = nullptr;
  obs::Counter* metric_requests_ = nullptr;
  obs::Counter* metric_blocks_ = nullptr;
};

}  // namespace emsim::disk

#endif  // EMSIM_DISK_DISK_H_

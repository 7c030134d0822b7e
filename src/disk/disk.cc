#include "disk/disk.h"

#include <algorithm>
#include <cmath>
#include <cstddef>

#include "disk/disk_params.h"
#include "util/check.h"
#include "util/str.h"

namespace emsim::disk {

Disk::Disk(sim::Simulation* sim, const DiskParams& params, int id, uint64_t seed)
    : sim_(sim), id_(id), mechanism_(params), rng_(seed), work_(sim) {
  EMSIM_CHECK(sim != nullptr);
  queue_.reserve(kReservedRequests);
  busy_timeline_.Update(sim->Now(), 0.0);
  queue_timeline_.Update(sim->Now(), 0.0);
}

void Disk::AttachMetrics(obs::MetricsRegistry* metrics, const char* prefix) {
  if (metrics == nullptr) {
    metric_busy_ = nullptr;
    metric_queue_ = nullptr;
    metric_requests_ = nullptr;
    metric_blocks_ = nullptr;
    return;
  }
  metric_busy_ = &metrics->GetTimeline(StrFormat("%s%d.busy", prefix, id_));
  metric_queue_ = &metrics->GetTimeline(StrFormat("%s%d.queue_len", prefix, id_));
  metric_requests_ = &metrics->GetCounter(StrFormat("%s.requests", prefix));
  metric_blocks_ = &metrics->GetCounter(StrFormat("%s.blocks_transferred", prefix));
  metric_busy_->Update(sim_->Now(), busy_ ? 1.0 : 0.0);
  metric_queue_->Update(sim_->Now(), static_cast<double>(QueueLength()));
}

void Disk::FlushLocalStats() {
  busy_timeline_.Flush(sim_->Now());
  queue_timeline_.Flush(sim_->Now());
}

DiskUtilization Disk::Utilization() const {
  DiskUtilization u;
  u.id = id_;
  u.busy_fraction = BusyFraction();
  u.mean_queue_length = MeanQueueLength();
  u.stats = stats_;
  return u;
}

void Disk::Start() {
  EMSIM_CHECK(!started_);
  started_ = true;
  sim_->Spawn(Serve());
}

void Disk::Stop() {
  stopping_ = true;
  work_.Fire();
}

void Disk::Submit(const DiskRequest& request) {
  EMSIM_CHECK(started_ && "Submit before Start");
  EMSIM_CHECK(!stopping_ && "Submit after Stop");
  EMSIM_CHECK(request.nblocks >= 1);
  EMSIM_CHECK(!request.fallible || request.sink != nullptr);
  if (queue_head_ > 0 && queue_.size() == queue_.capacity()) {
    // Reclaim the served prefix instead of growing the buffer.
    queue_.erase(queue_.begin(), queue_.begin() + static_cast<std::ptrdiff_t>(queue_head_));
    queue_head_ = 0;
  }
  queue_.push_back(request);
  DiskRequest& queued = queue_.back();
  queued.id = next_request_id_++;
  queued.enqueue_time = sim_->Now();
  stats_.max_queue_length = std::max(stats_.max_queue_length, QueueLength());
  NoteQueueLength();
  work_.Fire();
}

DiskRequest Disk::PopNext() {
  EMSIM_CHECK(QueueLength() > 0);
  size_t pick = queue_head_;
  if (mechanism_.params().scheduling == SchedulingPolicy::kSstf) {
    int64_t best = mechanism_.SeekDistanceTo(queue_[pick].start_block);
    for (size_t i = queue_head_ + 1; i < queue_.size(); ++i) {
      int64_t d = mechanism_.SeekDistanceTo(queue_[i].start_block);
      if (d < best) {
        best = d;
        pick = i;
      }
    }
  }
  DiskRequest req = queue_[pick];
  if (pick == queue_head_) {
    ++queue_head_;  // FCFS and front-winning SSTF: O(1), no shifting.
  } else {
    queue_.erase(queue_.begin() + static_cast<std::ptrdiff_t>(pick));
  }
  if (queue_head_ == queue_.size()) {
    queue_.clear();
    queue_head_ = 0;
  }
  return req;
}

sim::Process Disk::Serve() {
  for (;;) {
    while (QueueLength() == 0) {
      if (stopping_) {
        co_return;
      }
      co_await work_.Wait();
    }
    if (faults_ != nullptr && faults_->FailStopped(id_, sim_->Now())) {
      const double outage_end = faults_->FailStopEndMs(id_);
      if (std::isinf(outage_end)) {
        // Permanent fail-stop: the server exits with its queue frozen.
        // Queued attempts are reclaimed by their issuers' retry timeouts;
        // nothing on this disk will ever be served again.
        co_return;
      }
      const double park_ms = outage_end - sim_->Now();
      stats_.fail_stop_ms += park_ms;
      co_await sim::Delay(park_ms);
      continue;  // Re-check: more outage windows or a Stop() may be pending.
    }
    DiskRequest req = PopNext();
    NoteQueueLength();
    if (faults_ != nullptr && req.progress != nullptr && req.progress->abandoned) {
      ++stats_.dropped_requests;
      continue;  // The issuer timed out and disowned this attempt.
    }
    SetBusy(true);
    stats_.queue_wait_ms += sim_->Now() - req.enqueue_time;
    ++stats_.requests;
    if (req.kind == RequestKind::kDemand) {
      ++stats_.demand_requests;
    }
    if (metric_requests_ != nullptr) {
      metric_requests_->Increment();
    }

    if (req.progress != nullptr) {
      req.progress->phase = RequestPhase::kServing;
    }

    AccessCost cost = mechanism_.Access(req.start_block, req.nblocks, rng_, sim_->Now());
    stats_.seek_ms += cost.seek_ms;
    stats_.rotation_ms += cost.rotation_ms;
    stats_.transfer_ms += cost.transfer_ms;
    stats_.seek_cylinders += cost.seek_cylinders;
    if (cost.seek_cylinders > 0) {
      ++stats_.seeks;
    }

    // Fault surcharge: the verdict is drawn per served request in service
    // order from the plan's per-disk streams, so the disk's own rotational
    // stream (rng_) is never perturbed. With no plan attached every value
    // below is exactly the fault-free one.
    double positioning_ms = cost.PositioningMs();
    double per_block = mechanism_.transfer_ms_per_block();
    bool media_error = false;
    if (faults_ != nullptr) {
      fault::RequestFault verdict = faults_->OnRequestStart(id_, sim_->Now());
      const double base_service_ms = positioning_ms + per_block * req.nblocks;
      positioning_ms = positioning_ms * verdict.slow_factor + verdict.extra_latency_ms;
      per_block *= verdict.slow_factor;
      if (verdict.extra_latency_ms > 0) {
        ++stats_.latency_spikes;
      }
      // Infallible requests cannot be failed usefully (the issuer would
      // never observe it); their verdict still consumes the same stream
      // draws so fallibility never shifts later verdicts.
      media_error = verdict.media_error && req.fallible;
      const double service_ms =
          media_error ? positioning_ms : positioning_ms + per_block * req.nblocks;
      stats_.fault_extra_ms += service_ms - (media_error ? 0.0 : base_service_ms);
    }

    if (media_error) {
      // The failed request pays its positioning cost but delivers nothing.
      if (positioning_ms > 0) {
        co_await sim::Delay(positioning_ms);
      }
      ++stats_.media_errors;
      if (req.progress != nullptr) {
        req.progress->phase = RequestPhase::kFailed;
      }
      req.sink->OnError(req);
      SetBusy(false);
      continue;
    }
    // Positioning, then one kernel tick per block: block i reaches the sink
    // as its transfer ends, while the server suspends once per request.
    co_await sim::Ticks(positioning_ms, per_block, req.nblocks, [this, &req](int i) {
      ++stats_.blocks_transferred;
      if (metric_blocks_ != nullptr) {
        metric_blocks_->Increment();
      }
      if (req.sink != nullptr) {
        req.sink->OnBlock(req, i);
      }
    });
    if (req.progress != nullptr) {
      req.progress->phase = RequestPhase::kDone;
    }
    if (req.sink != nullptr) {
      req.sink->OnComplete(req);
    }
    SetBusy(false);
  }
}

std::string Disk::ToString() const {
  return StrFormat("Disk%d{requests=%llu, blocks=%llu, busy=%.1f ms, queue=%zu}", id_,
                   static_cast<unsigned long long>(stats_.requests),
                   static_cast<unsigned long long>(stats_.blocks_transferred), stats_.BusyMs(),
                   QueueLength());
}

}  // namespace emsim::disk

#include "disk/array.h"

#include <algorithm>
#include <cstddef>
#include <utility>

#include "sim/simulation.h"
#include "util/check.h"
#include "util/rng.h"
#include "util/str.h"

namespace emsim::disk {

DiskArray::DiskArray(sim::Simulation* sim, const Options& options) : sim_(sim) {
  EMSIM_CHECK(sim != nullptr);
  EMSIM_CHECK(options.num_disks >= 1);
  Rng seeder(options.seed);
  disks_.reserve(static_cast<size_t>(options.num_disks));
  for (int i = 0; i < options.num_disks; ++i) {
    auto d = std::make_unique<Disk>(sim, options.params, i, seeder.Next64());
    d->SetBusyObserver(this);
    if (options.metrics != nullptr) {
      d->AttachMetrics(options.metrics, options.metric_prefix);
    }
    if (options.faults != nullptr) {
      d->SetFaultPlan(options.faults);
    }
    disks_.push_back(std::move(d));
  }
  if (options.metrics != nullptr) {
    metric_concurrency_ =
        &options.metrics->GetTimeline(StrFormat("%ss.concurrency", options.metric_prefix));
    metric_concurrency_->Update(sim->Now(), 0.0);
  }
  concurrency_.Update(sim->Now(), 0.0);
}

void DiskArray::OnBusyChanged(int /*disk_id*/, bool busy) {
  busy_count_ += busy ? 1 : -1;
  EMSIM_DCHECK(busy_count_ >= 0 && busy_count_ <= num_disks());
  concurrency_.Update(sim_->Now(), busy_count_);
  if (metric_concurrency_ != nullptr) {
    metric_concurrency_->Update(sim_->Now(), busy_count_);
  }
}

void DiskArray::Start() {
  for (auto& d : disks_) {
    d->Start();
  }
}

void DiskArray::Stop() {
  for (auto& d : disks_) {
    d->Stop();
  }
}

double DiskArray::ActiveFraction() const {
  double total = concurrency_.TotalTime();
  if (total <= 0) {
    return 0.0;
  }
  return concurrency_.PositiveTime() / total;
}

DiskStats DiskArray::TotalStats() const {
  DiskStats total;
  for (const auto& d : disks_) {
    const DiskStats& s = d->stats();
    total.requests += s.requests;
    total.demand_requests += s.demand_requests;
    total.blocks_transferred += s.blocks_transferred;
    total.seeks += s.seeks;
    total.seek_cylinders += s.seek_cylinders;
    total.seek_ms += s.seek_ms;
    total.rotation_ms += s.rotation_ms;
    total.transfer_ms += s.transfer_ms;
    total.queue_wait_ms += s.queue_wait_ms;
    total.max_queue_length = std::max(total.max_queue_length, s.max_queue_length);
    total.media_errors += s.media_errors;
    total.latency_spikes += s.latency_spikes;
    total.dropped_requests += s.dropped_requests;
    total.fail_stop_ms += s.fail_stop_ms;
    total.fault_extra_ms += s.fault_extra_ms;
  }
  return total;
}

std::vector<DiskUtilization> DiskArray::UtilizationSnapshot() const {
  std::vector<DiskUtilization> out;
  out.reserve(disks_.size());
  for (const auto& d : disks_) {
    out.push_back(d->Utilization());
  }
  return out;
}

void DiskArray::FlushStats() {
  concurrency_.Flush(sim_->Now());
  for (auto& d : disks_) {
    d->FlushLocalStats();
  }
}

}  // namespace emsim::disk

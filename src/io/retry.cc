#include "io/retry.h"

#include "util/check.h"

namespace emsim::io {

FetchRetryDriver::FetchRetryDriver(sim::Simulation* sim, disk::DiskArray* disks,
                                   fault::HealthTracker* health, fault::RetryPolicy policy,
                                   obs::MetricsRegistry* metrics)
    : sim_(sim), disks_(disks), health_(health), policy_(policy) {
  EMSIM_CHECK(sim != nullptr);
  EMSIM_CHECK(disks != nullptr);
  EMSIM_CHECK(health != nullptr);
  EMSIM_CHECK(policy_.Validate().ok());
  if (metrics != nullptr) {
    metric_retries_ = &metrics->GetCounter("fault.retries");
    metric_timeouts_ = &metrics->GetCounter("fault.timeouts");
    metric_backoff_ms_ = &metrics->GetGauge("fault.backoff_ms");
  }
}

void FetchRetryDriver::Submit(int disk, const disk::DiskRequest& request) {
  EMSIM_CHECK(request.sink != nullptr && !request.fallible && request.progress == nullptr);
  uint32_t job;
  if (free_jobs_.empty()) {
    job = static_cast<uint32_t>(jobs_.size());
    jobs_.emplace_back();
  } else {
    job = free_jobs_.back();
    free_jobs_.pop_back();
  }
  jobs_[job] = Job{disk, request, 0};
  Attempt(job);
}

void FetchRetryDriver::Attempt(uint32_t job) {
  uint32_t slot;
  if (free_attempts_.empty()) {
    slot = static_cast<uint32_t>(attempts_.size());
    attempts_.emplace_back();
  } else {
    slot = free_attempts_.back();
    free_attempts_.pop_back();
  }
  AttemptSlot& a = attempts_[slot];
  a.progress = disk::RequestProgress{};
  a.job = job;
  a.holds = policy_.timeout_ms > 0 ? 2 : 1;  // The disk, plus the watchdog.

  Job& j = jobs_[job];
  ++j.attempts;
  disk::DiskRequest attempt = j.request;
  attempt.sink = this;
  attempt.fallible = true;
  attempt.cookie = slot;
  attempt.progress = &a.progress;
  disks_->Submit(j.disk, attempt);
  ArmTimeout(slot);
}

void FetchRetryDriver::Release(uint32_t attempt) {
  if (--attempts_[attempt].holds == 0) {
    free_attempts_.push_back(attempt);
  }
}

void FetchRetryDriver::OnBlock(const disk::DiskRequest& attempt, int i) {
  // A copy: the sink may submit, which can grow jobs_.
  const disk::DiskRequest request = jobs_[attempts_[attempt.cookie].job].request;
  request.sink->OnBlock(request, i);
}

void FetchRetryDriver::OnComplete(const disk::DiskRequest& attempt) {
  const uint32_t job = attempts_[attempt.cookie].job;
  Release(attempt.cookie);
  health_->NoteSuccess(jobs_[job].disk);
  const disk::DiskRequest request = jobs_[job].request;
  free_jobs_.push_back(job);
  request.sink->OnComplete(request);
}

void FetchRetryDriver::OnError(const disk::DiskRequest& attempt) {
  const uint32_t job = attempts_[attempt.cookie].job;
  Release(attempt.cookie);
  HandleFailure(job);
}

void FetchRetryDriver::ArmTimeout(uint32_t attempt) {
  if (policy_.timeout_ms <= 0) {
    return;
  }
  sim_->ScheduleCallback(sim_->Now() + policy_.timeout_ms,
                         [this, attempt] { OnTimeout(attempt); });
}

void FetchRetryDriver::OnTimeout(uint32_t attempt) {
  disk::RequestProgress& progress = attempts_[attempt].progress;
  switch (progress.phase) {
    case disk::RequestPhase::kDone:
    case disk::RequestPhase::kFailed:
      Release(attempt);  // Settled; the error path (if any) already ran.
      return;
    case disk::RequestPhase::kServing:
      // Service is non-preemptive and always finite (a fail-slow disk is
      // slow, not stuck) — keep watching the same attempt.
      ArmTimeout(attempt);
      return;
    case disk::RequestPhase::kQueued: {
      // Stuck in a queue that is not draining (fail-stopped disk).
      // Disown the attempt; the disk drops it if it ever surfaces, so the
      // disk's hold on the slot is never given back.
      progress.abandoned = true;
      ++stats_.timeouts;
      if (metric_timeouts_ != nullptr) {
        metric_timeouts_->Increment();
      }
      const uint32_t job = attempts_[attempt].job;
      Release(attempt);
      HandleFailure(job);
      return;
    }
  }
}

void FetchRetryDriver::HandleFailure(uint32_t job) {
  Job& j = jobs_[job];
  health_->NoteFailure(j.disk, sim_->Now());
  if (j.attempts > policy_.max_retries) {
    ++stats_.permanent_failures;
    const disk::DiskRequest request = j.request;
    free_jobs_.push_back(job);
    request.sink->OnError(request);
    return;
  }
  const double backoff = policy_.BackoffMs(j.attempts - 1);
  ++stats_.retries;
  stats_.backoff_ms += backoff;
  if (metric_retries_ != nullptr) {
    metric_retries_->Increment();
  }
  if (metric_backoff_ms_ != nullptr) {
    metric_backoff_ms_->Add(backoff);
  }
  if (backoff > 0) {
    sim_->ScheduleCallback(sim_->Now() + backoff, [this, job] { Attempt(job); });
  } else {
    Attempt(job);
  }
}

}  // namespace emsim::io

#include "fault/fault_plan.h"

#include <cstddef>
#include <limits>

#include "util/str.h"

namespace emsim::fault {

double RetryPolicy::BackoffMs(int retry) const {
  double backoff = backoff_base_ms;
  for (int i = 0; i < retry; ++i) {
    backoff *= backoff_multiplier;
  }
  return backoff;
}

Status RetryPolicy::Validate() const {
  if (max_retries < 0) {
    return Status::InvalidArgument("fault: max_retries must be >= 0");
  }
  if (timeout_ms < 0.0) {
    return Status::InvalidArgument("fault: timeout_ms must be >= 0 (0 disables)");
  }
  if (backoff_base_ms < 0.0) {
    return Status::InvalidArgument("fault: backoff_base_ms must be >= 0");
  }
  if (backoff_multiplier < 1.0) {
    return Status::InvalidArgument("fault: backoff_multiplier must be >= 1");
  }
  return Status::OK();
}

bool FaultConfig::InjectionEnabled() const {
  return media_error_rate > 0.0 || latency_spike_rate > 0.0 || fail_slow_disk >= 0 ||
         fail_stop_disk >= 0;
}

Status FaultConfig::Validate(int num_disks) const {
  EMSIM_RETURN_IF_ERROR(retry.Validate());
  if (media_error_rate < 0.0 || media_error_rate >= 1.0) {
    return Status::InvalidArgument("fault: media_error_rate must be in [0, 1)");
  }
  if (latency_spike_rate < 0.0 || latency_spike_rate > 1.0) {
    return Status::InvalidArgument("fault: latency_spike_rate must be in [0, 1]");
  }
  if (latency_spike_ms < 0.0) {
    return Status::InvalidArgument("fault: latency_spike_ms must be >= 0");
  }
  if (fail_slow_disk >= num_disks) {
    return Status::InvalidArgument("fault: fail_slow_disk out of range");
  }
  if (fail_slow_disk >= 0 && fail_slow_factor < 1.0) {
    return Status::InvalidArgument("fault: fail_slow_factor must be >= 1");
  }
  if (fail_slow_disk >= 0 && fail_slow_start_ms < 0.0) {
    return Status::InvalidArgument("fault: fail_slow_start_ms must be >= 0");
  }
  if (fail_slow_disk >= 0 && fail_slow_end_ms >= 0.0 && fail_slow_end_ms <= fail_slow_start_ms) {
    return Status::InvalidArgument("fault: fail_slow window is empty");
  }
  if (fail_stop_disk >= num_disks) {
    return Status::InvalidArgument("fault: fail_stop_disk out of range");
  }
  if (fail_stop_disk >= 0 && fail_stop_start_ms < 0.0) {
    return Status::InvalidArgument("fault: fail_stop_start_ms must be >= 0");
  }
  if (fail_stop_disk >= 0 && fail_stop_end_ms >= 0.0 && fail_stop_end_ms <= fail_stop_start_ms) {
    return Status::InvalidArgument("fault: fail_stop window is empty");
  }
  return Status::OK();
}

std::string FaultConfig::ToString() const {
  if (!InjectionEnabled()) return "fault{off}";
  std::vector<std::string> parts;
  if (media_error_rate > 0.0) {
    parts.push_back(StrFormat("media_error_rate=%g", media_error_rate));
  }
  if (latency_spike_rate > 0.0) {
    parts.push_back(
        StrFormat("latency_spike=%g@%gms", latency_spike_rate, latency_spike_ms));
  }
  if (fail_slow_disk >= 0) {
    parts.push_back(StrFormat("fail_slow{disk=%d x%g [%g, %g)ms}", fail_slow_disk,
                              fail_slow_factor, fail_slow_start_ms, fail_slow_end_ms));
  }
  if (fail_stop_disk >= 0) {
    parts.push_back(StrFormat("fail_stop{disk=%d [%g, %g)ms}", fail_stop_disk,
                              fail_stop_start_ms, fail_stop_end_ms));
  }
  if (seed != 0) parts.push_back(StrFormat("fault_seed=%llu", (unsigned long long)seed));
  return "fault{" + StrJoin(parts, " ") + "}";
}

FaultPlan::FaultPlan(const FaultConfig& config, int num_disks, uint64_t base_seed)
    : config_(config) {
  // Expand one plan seed into independent per-disk streams: fault draws on
  // disk i never shift the stream of disk j.
  SplitMix64 expand(config.seed != 0 ? config.seed : base_seed ^ 0xFA177C0DEULL);
  media_rngs_.reserve(static_cast<size_t>(num_disks));
  spike_rngs_.reserve(static_cast<size_t>(num_disks));
  for (int d = 0; d < num_disks; ++d) {
    media_rngs_.emplace_back(expand.Next());
    spike_rngs_.emplace_back(expand.Next());
  }
}

bool FaultPlan::FailStopped(int disk, double now) const {
  if (disk != config_.fail_stop_disk) return false;
  if (now < config_.fail_stop_start_ms) return false;
  return config_.fail_stop_end_ms < 0.0 || now < config_.fail_stop_end_ms;
}

double FaultPlan::FailStopEndMs(int disk) const {
  if (disk != config_.fail_stop_disk || config_.fail_stop_end_ms < 0.0) {
    return std::numeric_limits<double>::infinity();
  }
  return config_.fail_stop_end_ms;
}

RequestFault FaultPlan::OnRequestStart(int disk, double now) {
  RequestFault fault;
  auto d = static_cast<size_t>(disk);
  if (config_.media_error_rate > 0.0) {
    fault.media_error = media_rngs_[d].Bernoulli(config_.media_error_rate);
  }
  if (config_.latency_spike_rate > 0.0 && spike_rngs_[d].Bernoulli(config_.latency_spike_rate)) {
    fault.extra_latency_ms = config_.latency_spike_ms;
  }
  if (disk == config_.fail_slow_disk && now >= config_.fail_slow_start_ms &&
      (config_.fail_slow_end_ms < 0.0 || now < config_.fail_slow_end_ms)) {
    fault.slow_factor = config_.fail_slow_factor;
  }
  return fault;
}

}  // namespace emsim::fault

#ifndef EMSIM_FAULT_FAULT_PLAN_H_
#define EMSIM_FAULT_FAULT_PLAN_H_

#include <cstdint>
#include <string>
#include <vector>

#include "util/rng.h"
#include "util/status.h"

namespace emsim::fault {

/// Retry/timeout/backoff policy for fault-aware I/O submission
/// (io::FetchRetryDriver). Only consulted when fault injection is enabled.
struct RetryPolicy {
  /// Re-submissions allowed after the first attempt; exhausting them is a
  /// permanent failure (the merge surfaces a Status for a demand span).
  int max_retries = 4;
  /// Simulated time an attempt may sit queued before it is abandoned and
  /// retried elsewhere in time. 0 disables timeouts (error-triggered
  /// retries only). Attempts in service are never preempted.
  double timeout_ms = 2000.0;
  /// Exponential backoff before re-submission: base * multiplier^retry.
  double backoff_base_ms = 20.0;
  double backoff_multiplier = 2.0;

  double BackoffMs(int retry) const;

  Status Validate() const;

  bool operator==(const RetryPolicy&) const = default;
};

/// Scalar fault-injection knobs for one simulated merge — the CLI/spec-facing
/// configuration a FaultPlan is compiled from. All-defaults means *no fault
/// injection*: the simulation takes the exact pre-fault code paths and
/// produces byte-identical results (pinned by the golden tests).
struct FaultConfig {
  /// Probability that a request entering service fails with a transient
  /// media error (applies to every disk; each disk samples its own stream).
  double media_error_rate = 0.0;

  /// Probability that a request pays `latency_spike_ms` extra positioning
  /// time (controller hiccups, recovered-sector retries).
  double latency_spike_rate = 0.0;
  double latency_spike_ms = 50.0;

  /// Fail-slow: one disk whose service times are multiplied by
  /// `fail_slow_factor` inside [fail_slow_start_ms, fail_slow_end_ms).
  /// -1 disables; end < 0 means "until the end of the run".
  int fail_slow_disk = -1;
  double fail_slow_factor = 4.0;
  double fail_slow_start_ms = 0.0;
  double fail_slow_end_ms = -1.0;

  /// Fail-stop: one disk that stops serving requests inside
  /// [fail_stop_start_ms, fail_stop_end_ms). -1 disables; end < 0 means the
  /// disk never comes back (its unread runs become unreadable and the merge
  /// surfaces a Status once retries exhaust).
  int fail_stop_disk = -1;
  double fail_stop_start_ms = 0.0;
  double fail_stop_end_ms = -1.0;

  /// Seed for the plan's private per-disk fault streams. 0 derives the seed
  /// from the merge seed, so trials stay independent by default.
  uint64_t seed = 0;

  /// Retry/timeout/backoff policy applied while injection is enabled.
  RetryPolicy retry;

  /// True when any fault source is active. False means the merge must not
  /// construct fault machinery at all (byte-identical baseline).
  bool InjectionEnabled() const;

  Status Validate(int num_disks) const;

  std::string ToString() const;

  bool operator==(const FaultConfig&) const = default;
};

/// Per-request fault verdict drawn when a request enters service.
struct RequestFault {
  bool media_error = false;
  double extra_latency_ms = 0.0;  ///< Latency spike surcharge.
  double slow_factor = 1.0;       ///< Service-time multiplier (fail-slow).
};

/// A deterministic, seeded schedule of disk misbehavior for one trial:
/// per-disk fail-stop intervals, fail-slow multipliers, transient media-error
/// rates and latency spikes. Disks consult the plan on every request; the
/// plan's streams are separate from every model stream, so enabling faults
/// never perturbs the baseline rotational-latency or depletion sequences.
class FaultPlan {
 public:
  /// `base_seed` seeds the per-disk streams when `config.seed` is 0 (the
  /// usual case: derive from the merge seed so trials differ).
  FaultPlan(const FaultConfig& config, int num_disks, uint64_t base_seed);

  FaultPlan(const FaultPlan&) = delete;
  FaultPlan& operator=(const FaultPlan&) = delete;

  /// True while `disk` is fail-stopped at simulated time `now`.
  bool FailStopped(int disk, double now) const;

  /// Simulated time at which a fail-stopped `disk` resumes service;
  /// +infinity when the outage never lifts.
  double FailStopEndMs(int disk) const;

  /// Draws the fault verdict for one request entering service on `disk`.
  /// Deterministic: each disk owns a private stream, and the draw order is
  /// the disk's service order.
  RequestFault OnRequestStart(int disk, double now);

  const FaultConfig& config() const { return config_; }
  int num_disks() const { return static_cast<int>(spike_rngs_.size()); }

 private:
  FaultConfig config_;
  std::vector<Rng> media_rngs_;  ///< One per disk.
  std::vector<Rng> spike_rngs_;  ///< One per disk.
};

/// Aggregated fault/recovery outcome of one simulated merge. All fields stay
/// zero (and `injection_enabled` false) when the trial ran without fault
/// injection; the JSON export emits the block only when enabled, keeping
/// zero-fault artifacts byte-identical to the pre-fault schema.
struct FaultStats {
  bool injection_enabled = false;
  uint64_t media_errors = 0;        ///< Requests failed by injected media errors.
  uint64_t latency_spikes = 0;      ///< Requests that paid the spike surcharge.
  uint64_t timeouts = 0;            ///< Attempts abandoned after the request timeout.
  uint64_t retries = 0;             ///< Re-submissions after an error or timeout.
  uint64_t dropped_requests = 0;    ///< Abandoned attempts discarded at the disk.
  uint64_t permanent_failures = 0;  ///< Spans that exhausted every retry.
  uint64_t degraded_plans = 0;      ///< Prefetch plans issued with >= 1 disk quarantined.
  uint64_t quarantine_events = 0;   ///< Disk transitions into quarantine.
  double backoff_ms = 0.0;          ///< Total simulated backoff wait.
  double fail_stop_ms = 0.0;        ///< Disk time parked by fail-stop with work queued.
  double quarantine_ms = 0.0;       ///< Disk time spent quarantined by the tracker.
};

}  // namespace emsim::fault

#endif  // EMSIM_FAULT_FAULT_PLAN_H_

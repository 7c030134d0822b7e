#include <cmath>
#include <limits>
#include <vector>

#include <gtest/gtest.h>

#include "fault/fault_plan.h"
#include "fault/health.h"

namespace emsim::fault {
namespace {

TEST(RetryPolicyTest, BackoffIsExponential) {
  RetryPolicy policy;
  policy.backoff_base_ms = 10.0;
  policy.backoff_multiplier = 3.0;
  EXPECT_DOUBLE_EQ(policy.BackoffMs(0), 10.0);
  EXPECT_DOUBLE_EQ(policy.BackoffMs(1), 30.0);
  EXPECT_DOUBLE_EQ(policy.BackoffMs(2), 90.0);
}

TEST(RetryPolicyTest, ValidationRejectsNonsense) {
  RetryPolicy policy;
  EXPECT_TRUE(policy.Validate().ok());
  policy.max_retries = -1;
  EXPECT_FALSE(policy.Validate().ok());
  policy = RetryPolicy{};
  policy.timeout_ms = -1.0;
  EXPECT_FALSE(policy.Validate().ok());
  policy = RetryPolicy{};
  policy.backoff_multiplier = 0.5;
  EXPECT_FALSE(policy.Validate().ok());
}

TEST(FaultConfigTest, DefaultsDisableInjection) {
  FaultConfig config;
  EXPECT_FALSE(config.InjectionEnabled());
  EXPECT_TRUE(config.Validate(5).ok());
  EXPECT_EQ(config.ToString(), "fault{off}");
}

TEST(FaultConfigTest, AnySourceEnablesInjection) {
  FaultConfig config;
  config.media_error_rate = 0.01;
  EXPECT_TRUE(config.InjectionEnabled());
  config = FaultConfig{};
  config.latency_spike_rate = 0.1;
  EXPECT_TRUE(config.InjectionEnabled());
  config = FaultConfig{};
  config.fail_slow_disk = 0;
  EXPECT_TRUE(config.InjectionEnabled());
  config = FaultConfig{};
  config.fail_stop_disk = 0;
  EXPECT_TRUE(config.InjectionEnabled());
}

TEST(FaultConfigTest, ValidationCatchesBadRanges) {
  FaultConfig config;
  config.media_error_rate = 1.0;  // Certain failure can never succeed.
  EXPECT_FALSE(config.Validate(5).ok());

  config = FaultConfig{};
  config.fail_slow_disk = 5;  // Out of range for 5 disks.
  EXPECT_FALSE(config.Validate(5).ok());

  config = FaultConfig{};
  config.fail_slow_disk = 1;
  config.fail_slow_factor = 0.5;
  EXPECT_FALSE(config.Validate(5).ok());

  config = FaultConfig{};
  config.fail_stop_disk = 1;
  config.fail_stop_start_ms = 100.0;
  config.fail_stop_end_ms = 100.0;  // Empty window.
  EXPECT_FALSE(config.Validate(5).ok());

  config = FaultConfig{};
  config.fail_stop_disk = 1;
  config.fail_stop_end_ms = -1.0;  // Never lifts: valid.
  EXPECT_TRUE(config.Validate(5).ok());
}

TEST(FaultPlanTest, FailStopWindow) {
  FaultConfig config;
  config.fail_stop_disk = 1;
  config.fail_stop_start_ms = 100.0;
  config.fail_stop_end_ms = 200.0;
  FaultPlan plan(config, 3, /*base_seed=*/1);
  EXPECT_FALSE(plan.FailStopped(1, 99.0));
  EXPECT_TRUE(plan.FailStopped(1, 100.0));
  EXPECT_TRUE(plan.FailStopped(1, 199.0));
  EXPECT_FALSE(plan.FailStopped(1, 200.0));
  EXPECT_FALSE(plan.FailStopped(0, 150.0));  // Other disks unaffected.
  EXPECT_DOUBLE_EQ(plan.FailStopEndMs(1), 200.0);
  EXPECT_TRUE(std::isinf(plan.FailStopEndMs(0)));
}

TEST(FaultPlanTest, InfiniteFailStopNeverLifts) {
  FaultConfig config;
  config.fail_stop_disk = 0;
  config.fail_stop_end_ms = -1.0;
  FaultPlan plan(config, 2, 1);
  EXPECT_TRUE(plan.FailStopped(0, 0.0));
  EXPECT_TRUE(plan.FailStopped(0, 1e12));
  EXPECT_TRUE(std::isinf(plan.FailStopEndMs(0)));
}

TEST(FaultPlanTest, FailSlowFactorOnlyInsideWindow) {
  FaultConfig config;
  config.fail_slow_disk = 2;
  config.fail_slow_factor = 8.0;
  config.fail_slow_start_ms = 50.0;
  config.fail_slow_end_ms = 150.0;
  FaultPlan plan(config, 3, 1);
  EXPECT_DOUBLE_EQ(plan.OnRequestStart(2, 0.0).slow_factor, 1.0);
  EXPECT_DOUBLE_EQ(plan.OnRequestStart(2, 50.0).slow_factor, 8.0);
  EXPECT_DOUBLE_EQ(plan.OnRequestStart(2, 149.0).slow_factor, 8.0);
  EXPECT_DOUBLE_EQ(plan.OnRequestStart(2, 150.0).slow_factor, 1.0);
  EXPECT_DOUBLE_EQ(plan.OnRequestStart(1, 100.0).slow_factor, 1.0);
}

TEST(FaultPlanTest, ZeroMediaErrorRateNeverFails) {
  FaultConfig config;
  config.latency_spike_rate = 0.5;  // Injection on, media errors off.
  FaultPlan plan(config, 2, /*base_seed=*/3);
  int spikes = 0;
  for (int i = 0; i < 1000; ++i) {
    RequestFault fault = plan.OnRequestStart(i % 2, 0.0);
    EXPECT_FALSE(fault.media_error) << "draw " << i;
    spikes += fault.extra_latency_ms > 0.0 ? 1 : 0;
  }
  EXPECT_GT(spikes, 0);
}

TEST(FaultPlanTest, MediaErrorsFollowTheirRate) {
  FaultConfig config;
  config.media_error_rate = 0.2;
  FaultPlan plan(config, 1, /*base_seed=*/99);
  int errors = 0;
  for (int i = 0; i < 5000; ++i) {
    errors += plan.OnRequestStart(0, 0.0).media_error ? 1 : 0;
  }
  EXPECT_GT(errors, 850);   // 1000 expected, sd ~28.
  EXPECT_LT(errors, 1150);
}

TEST(FaultPlanTest, MediaErrorsDoNotShiftSpikes) {
  // Each disk's media-error and latency-spike draws come from separate
  // streams: turning media errors on leaves the spike sequence as it was.
  FaultConfig spikes_only;
  spikes_only.latency_spike_rate = 0.3;
  FaultConfig both = spikes_only;
  both.media_error_rate = 0.4;
  FaultPlan a(spikes_only, 2, /*base_seed=*/5);
  FaultPlan b(both, 2, /*base_seed=*/5);
  for (int i = 0; i < 500; ++i) {
    EXPECT_EQ(a.OnRequestStart(i % 2, 0.0).extra_latency_ms,
              b.OnRequestStart(i % 2, 0.0).extra_latency_ms)
        << "draw " << i;
  }
}

TEST(FaultPlanTest, PerDiskStreamsAreIndependent) {
  FaultConfig config;
  config.media_error_rate = 0.3;
  // Two plans, same seed: disk 1's verdict sequence must be identical even
  // when disk 0 draws a different number of verdicts in between.
  FaultPlan a(config, 2, /*base_seed=*/7);
  FaultPlan b(config, 2, /*base_seed=*/7);
  std::vector<bool> seq_a;
  std::vector<bool> seq_b;
  for (int i = 0; i < 200; ++i) {
    if (i % 3 == 0) {
      a.OnRequestStart(0, 0.0);  // Extra draws on disk 0 in plan a only.
    }
    seq_a.push_back(a.OnRequestStart(1, 0.0).media_error);
    seq_b.push_back(b.OnRequestStart(1, 0.0).media_error);
  }
  EXPECT_EQ(seq_a, seq_b);
}

TEST(FaultPlanTest, ExplicitSeedOverridesMergeSeed) {
  FaultConfig config;
  config.media_error_rate = 0.3;
  config.seed = 42;
  FaultPlan a(config, 1, /*base_seed=*/1);
  FaultPlan b(config, 1, /*base_seed=*/2);
  for (int i = 0; i < 200; ++i) {
    EXPECT_EQ(a.OnRequestStart(0, 0.0).media_error,
              b.OnRequestStart(0, 0.0).media_error)
        << "draw " << i;
  }
}

TEST(HealthTrackerTest, QuarantineAfterConsecutiveFailures) {
  HealthTracker health(3);
  EXPECT_TRUE(health.Usable(0, 0.0));
  health.NoteFailure(0, 10.0);
  EXPECT_TRUE(health.Usable(0, 10.0));  // One failure: still usable.
  health.NoteFailure(0, 20.0);
  EXPECT_FALSE(health.Usable(0, 20.0));  // Second: quarantined.
  EXPECT_TRUE(health.Usable(0, 520.0));  // Window (500 ms) elapsed.
  EXPECT_EQ(health.quarantine_events(), 1u);
  EXPECT_DOUBLE_EQ(health.quarantine_ms(), 500.0);
  EXPECT_TRUE(health.Usable(1, 20.0));  // Other disks unaffected.
}

TEST(HealthTrackerTest, SuccessClearsStreak) {
  HealthTracker health(1);
  health.NoteFailure(0, 0.0);
  health.NoteSuccess(0);
  health.NoteFailure(0, 1.0);
  EXPECT_TRUE(health.Usable(0, 1.0));  // Streak restarted, not quarantined.
}

TEST(HealthTrackerTest, RepeatFailuresExtendQuarantineWithoutDoubleCounting) {
  HealthTracker health(1);
  health.NoteFailure(0, 0.0);
  health.NoteFailure(0, 0.0);  // Quarantined until 500.
  health.NoteFailure(0, 100.0);  // Extended until 600; only 100 ms new time.
  EXPECT_EQ(health.quarantine_events(), 1u);
  EXPECT_DOUBLE_EQ(health.quarantine_ms(), 600.0);
  EXPECT_FALSE(health.Usable(0, 599.0));
  EXPECT_TRUE(health.Usable(0, 600.0));
}

TEST(HealthTrackerTest, DeadIsForever) {
  HealthTracker health(2);
  health.MarkDead(1);
  EXPECT_TRUE(health.Dead(1));
  EXPECT_FALSE(health.Usable(1, std::numeric_limits<double>::max()));
  EXPECT_EQ(health.DegradedCount(0.0), 1);
}

}  // namespace
}  // namespace emsim::fault

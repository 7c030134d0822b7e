// Exercises the multi-process shard dispatcher with real subprocesses:
// clean completion, straggler kill + resubmission (chaos and deadline),
// retry exhaustion, the empty-artifact guard, shard-subset dispatch,
// dispatch counters, and graceful drain.

#include "sweep/dispatcher.h"

#include <atomic>
#include <chrono>
#include <string>
#include <sys/stat.h>
#include <thread>
#include <unistd.h>
#include <vector>

#include <gtest/gtest.h>

#include "sweep/subprocess.h"
#include "util/str.h"

namespace emsim::sweep {
namespace {

std::string FreshDir(const std::string& name) {
  std::string dir = testing::TempDir() + "/" + name;
  (void)::mkdir(dir.c_str(), 0755);
  return dir;
}

/// Worker argv that runs `script` through the shell with $0 = shard index
/// and $1 = artifact path.
ShardCommandFn ShellCommand(const std::string& script) {
  return [script](int shard, const std::string& out_path) {
    return std::vector<std::string>{"/bin/sh", "-c", script,
                                    StrFormat("%d", shard), out_path};
  };
}

TEST(SubprocessTest, RunsAndReportsExitCode) {
  auto child = Subprocess::Start({"/bin/sh", "-c", "exit 3"});
  ASSERT_TRUE(child.ok()) << child.status().ToString();
  while (!child->Poll()) {
  }
  EXPECT_FALSE(child->running());
  EXPECT_FALSE(child->was_signaled());
  EXPECT_FALSE(child->exited_cleanly());
  EXPECT_EQ(child->exit_code(), 3);
  EXPECT_EQ(child->DescribeExit(), "exit 3");
}

TEST(SubprocessTest, ExecFailureIs127) {
  auto child = Subprocess::Start({"/nonexistent/binary/for/emsim"});
  ASSERT_TRUE(child.ok());
  while (!child->Poll()) {
  }
  EXPECT_EQ(child->exit_code(), 127);
}

TEST(SubprocessTest, KillIsReportedAsSignal) {
  auto child = Subprocess::Start({"/bin/sh", "-c", "sleep 30"});
  ASSERT_TRUE(child.ok());
  child->Kill();
  while (!child->Poll()) {
  }
  EXPECT_TRUE(child->was_signaled());
  EXPECT_EQ(child->DescribeExit(), StrFormat("signal %d", 9));
}

TEST(DispatcherTest, RunsAllShardsOnce) {
  std::string dir = FreshDir("dispatch_ok");
  DispatcherOptions options;
  options.num_shards = 5;
  options.max_workers = 2;
  auto report = RunShardedSweep(options, dir, ShellCommand("echo shard $0 > \"$1\""));
  ASSERT_TRUE(report.ok()) << report.status().ToString();
  ASSERT_EQ(report->shards.size(), 5u);
  for (const ShardDispatch& d : report->shards) {
    EXPECT_TRUE(d.ok);
    EXPECT_EQ(d.attempts, 1);
    EXPECT_FALSE(d.artifact_path.empty());
  }
  // A clean run reports explicit zeros everywhere except launches.
  EXPECT_FALSE(report->drained);
  EXPECT_EQ(report->stats.launches, 5);
  EXPECT_EQ(report->stats.resubmissions, 0);
  EXPECT_EQ(report->stats.deadline_kills, 0);
  EXPECT_EQ(report->stats.chaos_kills, 0);
  EXPECT_EQ(report->stats.spawn_failures, 0);
  EXPECT_EQ(report->stats.drain_kills, 0);
}

TEST(DispatcherTest, RunsOnlyRequestedShardSubset) {
  std::string dir = FreshDir("dispatch_subset");
  DispatcherOptions options;
  options.num_shards = 5;
  options.shards = {3, 1};
  auto report = RunShardedSweep(options, dir, ShellCommand("echo shard $0 > \"$1\""));
  ASSERT_TRUE(report.ok()) << report.status().ToString();
  ASSERT_EQ(report->shards.size(), 2u);
  EXPECT_EQ(report->shards[0].shard, 1);
  EXPECT_EQ(report->shards[1].shard, 3);
  EXPECT_TRUE(report->shards[0].ok);
  EXPECT_TRUE(report->shards[1].ok);
  EXPECT_EQ(report->stats.launches, 2);
  // Attempt paths still carry the global shard plan, not the subset size.
  EXPECT_NE(report->shards[0].artifact_path.find("shard_1_of_5"), std::string::npos);
}

TEST(DispatcherTest, ChaosKilledShardIsResubmittedAndCompletes) {
  std::string dir = FreshDir("dispatch_chaos");
  DispatcherOptions options;
  options.num_shards = 3;
  options.chaos_kill_shard = 1;
  options.retry.backoff_base_ms = 1.0;
  std::vector<std::string> lines;
  options.log = [&](const std::string& line) { lines.push_back(line); };
  std::vector<ShardEvent> events;
  options.on_event = [&](const ShardEvent& event) { events.push_back(event); };
  // Slow enough that the chaos SIGKILL lands before the artifact exists.
  auto report =
      RunShardedSweep(options, dir, ShellCommand("sleep 0.2; echo ok > \"$1\""));
  ASSERT_TRUE(report.ok()) << report.status().ToString();
  EXPECT_TRUE(report->shards[1].ok);
  EXPECT_EQ(report->shards[1].attempts, 2);
  EXPECT_EQ(report->shards[0].attempts, 1);
  EXPECT_EQ(report->shards[2].attempts, 1);
  EXPECT_EQ(report->stats.chaos_kills, 1);
  EXPECT_EQ(report->stats.resubmissions, 1);
  bool saw_chaos = false;
  for (const std::string& line : lines) {
    if (line.find("chaos-killed") != std::string::npos) {
      saw_chaos = true;
    }
  }
  EXPECT_TRUE(saw_chaos);
  // The observer saw every lifecycle transition: 4 starts (3 + 1 retry),
  // 3 dones, 1 retry.
  int starts = 0, dones = 0, retries = 0;
  for (const ShardEvent& event : events) {
    starts += event.kind == ShardEvent::Kind::kStart;
    dones += event.kind == ShardEvent::Kind::kDone;
    retries += event.kind == ShardEvent::Kind::kRetry;
  }
  EXPECT_EQ(starts, 4);
  EXPECT_EQ(dones, 3);
  EXPECT_EQ(retries, 1);
}

TEST(DispatcherTest, FailingAttemptIsRetriedUntilSuccess) {
  std::string dir = FreshDir("dispatch_retry");
  // TempDir() persists across runs — stale markers would let the first
  // attempt succeed immediately.
  (void)::unlink((dir + "/marker_0").c_str());
  (void)::unlink((dir + "/marker_1").c_str());
  // First attempt leaves a marker and fails; the resubmission sees the
  // marker and succeeds — a transient infrastructure fault.
  std::string script = StrFormat(
      "if [ -f \"%s/marker_$0\" ]; then echo ok > \"$1\"; "
      "else touch \"%s/marker_$0\"; exit 1; fi",
      dir.c_str(), dir.c_str());
  DispatcherOptions options;
  options.num_shards = 2;
  options.retry.max_retries = 2;
  options.retry.backoff_base_ms = 1.0;
  auto report = RunShardedSweep(options, dir, ShellCommand(script));
  ASSERT_TRUE(report.ok()) << report.status().ToString();
  for (const ShardDispatch& d : report->shards) {
    EXPECT_TRUE(d.ok);
    EXPECT_EQ(d.attempts, 2);
  }
  EXPECT_EQ(report->stats.launches, 4);
  EXPECT_EQ(report->stats.resubmissions, 2);
}

TEST(DispatcherTest, DeadlineKillsStragglerAndExhaustsRetries) {
  std::string dir = FreshDir("dispatch_deadline");
  DispatcherOptions options;
  options.num_shards = 1;
  options.retry.timeout_ms = 50.0;
  options.retry.max_retries = 1;
  options.retry.backoff_base_ms = 1.0;
  auto report = RunShardedSweep(options, dir, ShellCommand("sleep 30"));
  ASSERT_FALSE(report.ok());
  EXPECT_NE(report.status().message().find("signal 9"), std::string::npos)
      << report.status().ToString();
}

TEST(DispatcherTest, CleanExitWithoutArtifactIsAFailure) {
  std::string dir = FreshDir("dispatch_empty");
  DispatcherOptions options;
  options.num_shards = 1;
  options.retry.max_retries = 0;
  auto report = RunShardedSweep(options, dir, ShellCommand("exit 0"));
  ASSERT_FALSE(report.ok());
  EXPECT_NE(report.status().message().find("no artifact"), std::string::npos)
      << report.status().ToString();
}

TEST(DispatcherTest, PreSetDrainParksEveryShardWithoutLaunching) {
  std::string dir = FreshDir("dispatch_drain_preset");
  std::atomic<bool> drain{true};
  DispatcherOptions options;
  options.num_shards = 4;
  options.drain = &drain;
  auto report = RunShardedSweep(options, dir, ShellCommand("echo ok > \"$1\""));
  ASSERT_TRUE(report.ok()) << report.status().ToString();
  EXPECT_TRUE(report->drained);
  EXPECT_EQ(report->stats.launches, 0);
  ASSERT_EQ(report->shards.size(), 4u);
  for (const ShardDispatch& d : report->shards) {
    EXPECT_FALSE(d.ok);
    EXPECT_NE(d.error.find("drained before launch"), std::string::npos) << d.error;
  }
}

TEST(DispatcherTest, DrainKillsInFlightWorkerAfterGrace) {
  std::string dir = FreshDir("dispatch_drain_kill");
  std::atomic<bool> drain{false};
  DispatcherOptions options;
  options.num_shards = 1;
  options.drain = &drain;
  options.drain_grace_ms = 50.0;
  std::thread flipper([&] {
    std::this_thread::sleep_for(std::chrono::milliseconds(100));
    drain.store(true);
  });
  auto report = RunShardedSweep(options, dir, ShellCommand("sleep 30"));
  flipper.join();
  ASSERT_TRUE(report.ok()) << report.status().ToString();
  EXPECT_TRUE(report->drained);
  EXPECT_EQ(report->stats.drain_kills, 1);
  ASSERT_EQ(report->shards.size(), 1u);
  EXPECT_FALSE(report->shards[0].ok);
}

TEST(DispatcherTest, DrainLetsInFlightWorkerFinishInsideGrace) {
  std::string dir = FreshDir("dispatch_drain_finish");
  std::atomic<bool> drain{true};
  DispatcherOptions options;
  options.num_shards = 2;
  options.shards = {0};
  options.drain = &drain;
  options.drain_grace_ms = 10000.0;
  // The drain flag is already set, so the single requested shard never
  // launches; with a subset of one this proves parking and reporting
  // interact (the unrequested shard 1 is absent from the report).
  auto report = RunShardedSweep(options, dir, ShellCommand("echo ok > \"$1\""));
  ASSERT_TRUE(report.ok()) << report.status().ToString();
  EXPECT_TRUE(report->drained);
  ASSERT_EQ(report->shards.size(), 1u);
  EXPECT_EQ(report->shards[0].shard, 0);
}

}  // namespace
}  // namespace emsim::sweep

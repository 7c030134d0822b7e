#include "sweep/dispatcher.h"

#include <algorithm>
#include <chrono>
#include <cstddef>
#include <deque>
#include <map>
#include <sys/stat.h>
#include <thread>
#include <utility>
#include <vector>

#include "sweep/subprocess.h"
#include "util/check.h"
#include "util/str.h"

namespace emsim::sweep {

namespace {

using Clock = std::chrono::steady_clock;

// Wall time here drives worker scheduling only — per-shard deadlines, retry
// backoff gates, and log timestamps. Shard artifact bytes are pinned by the
// merge byte-identity tests regardless of dispatch timing.
// emsim-analyze: allow(determinism-taint)
Clock::time_point WallNow() { return Clock::now(); }

double MsSince(Clock::time_point start) {
  return std::chrono::duration<double, std::milli>(WallNow() - start).count();
}

bool FileNonEmpty(const std::string& path) {
  struct stat st{};
  return ::stat(path.c_str(), &st) == 0 && st.st_size > 0;
}

/// One shard's dispatch state across attempts.
struct ShardState {
  int shard = 0;
  int attempts = 0;
  Clock::time_point ready_at;  ///< Backoff gate for the next attempt.
  std::string last_error;
};

struct RunningWorker {
  ShardState state;
  Subprocess process;
  Clock::time_point started;
  std::string out_path;
  bool killed = false;  ///< Kill already issued (chaos/deadline/drain) — log once.
};

}  // namespace

Result<DispatchReport> RunShardedSweep(const DispatcherOptions& options,
                                       const std::string& shard_dir,
                                       const ShardCommandFn& command) {
  EMSIM_CHECK(options.num_shards >= 1);
  EMSIM_CHECK(static_cast<bool>(command));
  std::vector<int> requested = options.shards;
  if (requested.empty()) {
    for (int s = 0; s < options.num_shards; ++s) {
      requested.push_back(s);
    }
  } else {
    std::sort(requested.begin(), requested.end());
    requested.erase(std::unique(requested.begin(), requested.end()), requested.end());
    for (int s : requested) {
      EMSIM_CHECK(s >= 0 && s < options.num_shards);
    }
  }
  int max_workers = options.max_workers;
  if (max_workers <= 0) {
    int hw = static_cast<int>(std::thread::hardware_concurrency());
    max_workers = hw > 0 ? hw : 2;
  }
  if (max_workers > static_cast<int>(requested.size())) {
    max_workers = static_cast<int>(requested.size());
  }
  auto log = [&](const std::string& line) {
    if (options.log) {
      options.log(line);
    }
  };
  auto emit = [&](ShardEvent::Kind kind, int shard, int attempt, std::string path,
                  std::string detail) {
    if (options.on_event) {
      ShardEvent event;
      event.kind = kind;
      event.shard = shard;
      event.attempt = attempt;
      event.path = std::move(path);
      event.detail = std::move(detail);
      options.on_event(event);
    }
  };

  DispatchReport report;
  std::map<int, ShardDispatch> outcomes;
  for (int s : requested) {
    ShardDispatch d;
    d.shard = s;
    outcomes.emplace(s, std::move(d));
  }

  // Work-stealing handoff: pending shards wait here; any worker slot that
  // frees up claims the front-most ready shard. Retries re-enter the queue
  // with their backoff gate set.
  std::deque<ShardState> pending;
  for (int s : requested) {
    pending.push_back(ShardState{s, 0, WallNow(), ""});
  }
  std::vector<RunningWorker> running;
  int failed_shards = 0;
  std::string first_error;
  bool draining = false;
  Clock::time_point drain_deadline{};

  auto fail_shard = [&](ShardState state, const std::string& why) {
    ShardDispatch& out = outcomes[state.shard];
    out.attempts = state.attempts;
    out.ok = false;
    out.error = why;
    ++failed_shards;
    std::string message = StrFormat("shard %d/%d failed after %d attempt(s): %s", state.shard,
                                    options.num_shards, state.attempts, why.c_str());
    if (first_error.empty()) {
      first_error = message;
    }
    log(message);
    emit(ShardEvent::Kind::kFailed, state.shard, state.attempts, "", why);
  };

  // A drained shard is incomplete, not failed: resume re-runs it.
  auto park_shard = [&](ShardState state, const std::string& why) {
    ShardDispatch& out = outcomes[state.shard];
    out.attempts = state.attempts;
    out.ok = false;
    out.error = why;
    log(StrFormat("shard %d/%d: %s — left for resume", state.shard, options.num_shards,
                  why.c_str()));
  };

  auto resubmit = [&](ShardState state, const std::string& why) {
    if (draining) {
      park_shard(std::move(state), why);
      return;
    }
    // state.attempts counts launches; max_retries bounds *re*-submissions,
    // mirroring the simulated-I/O retry driver's accounting.
    if (state.attempts > options.retry.max_retries) {
      fail_shard(std::move(state), why);
      return;
    }
    double backoff = options.retry.BackoffMs(state.attempts - 1);
    log(StrFormat("shard %d/%d attempt %d: %s — resubmitting after %.0f ms", state.shard,
                  options.num_shards, state.attempts, why.c_str(), backoff));
    ++report.stats.resubmissions;
    emit(ShardEvent::Kind::kRetry, state.shard, state.attempts, "", why);
    state.last_error = why;
    state.ready_at = WallNow() + std::chrono::microseconds(
                                        static_cast<long long>(backoff * 1000.0));
    pending.push_back(std::move(state));
  };

  while (!pending.empty() || !running.empty()) {
    // A drain request stops new launches; in-flight workers get a grace
    // window, then are killed so the journal can close out promptly.
    if (!draining && options.drain != nullptr && options.drain->load()) {
      draining = true;
      drain_deadline = WallNow() + std::chrono::microseconds(
                                       static_cast<long long>(options.drain_grace_ms * 1000.0));
      report.drained = true;
      log(StrFormat("drain requested: %zu shard(s) unlaunched, %zu in flight (grace %.0f ms)",
                    pending.size(), running.size(), options.drain_grace_ms));
      while (!pending.empty()) {
        ShardState state = std::move(pending.front());
        pending.pop_front();
        std::string why =
            state.attempts == 0 ? "drained before launch" : "drained during backoff";
        park_shard(std::move(state), why);
      }
    }

    // Launch workers into free slots (skipping shards still in backoff).
    for (size_t scan = 0; !draining &&
                          static_cast<int>(running.size()) < max_workers && scan < pending.size();) {
      if (pending[scan].ready_at > WallNow()) {
        ++scan;
        continue;
      }
      ShardState state = std::move(pending[scan]);
      pending.erase(pending.begin() + static_cast<std::ptrdiff_t>(scan));
      ++state.attempts;
      std::string out_path = StrFormat("%s/shard_%d_of_%d.attempt%d.json", shard_dir.c_str(),
                                       state.shard, options.num_shards, state.attempts);
      Result<Subprocess> child = Subprocess::Start(command(state.shard, out_path));
      if (!child.ok()) {
        ++report.stats.spawn_failures;
        resubmit(std::move(state), child.status().ToString());
        continue;
      }
      ++report.stats.launches;
      emit(ShardEvent::Kind::kStart, state.shard, state.attempts, out_path, "");
      RunningWorker worker;
      worker.state = std::move(state);
      worker.process = std::move(child).value();
      worker.started = WallNow();
      worker.out_path = std::move(out_path);
      if (worker.state.shard == options.chaos_kill_shard && worker.state.attempts == 1) {
        // Chaos hook: prove a killed worker is resubmitted and the sweep
        // still completes deterministically.
        worker.process.Kill();
        worker.killed = true;
        ++report.stats.chaos_kills;
        log(StrFormat("shard %d/%d attempt 1: chaos-killed (pid %d)", worker.state.shard,
                      options.num_shards, static_cast<int>(worker.process.pid())));
      } else {
        log(StrFormat("shard %d/%d attempt %d: started (pid %d)", worker.state.shard,
                      options.num_shards, worker.state.attempts,
                      static_cast<int>(worker.process.pid())));
      }
      running.push_back(std::move(worker));
    }

    // Poll running workers: reap exits, kill stragglers past the deadline.
    for (size_t i = 0; i < running.size();) {
      RunningWorker& worker = running[i];
      bool done = worker.process.Poll();
      if (!done) {
        if (!worker.killed && draining && WallNow() >= drain_deadline) {
          worker.process.Kill();
          worker.killed = true;
          ++report.stats.drain_kills;
          log(StrFormat("shard %d/%d attempt %d: drain grace expired — killed",
                        worker.state.shard, options.num_shards, worker.state.attempts));
        } else if (!worker.killed && options.retry.timeout_ms > 0 &&
                   MsSince(worker.started) > options.retry.timeout_ms) {
          worker.process.Kill();
          // Keep polling; the kill is collected on a later iteration and
          // routed through the normal failed-attempt path below.
          worker.killed = true;
          ++report.stats.deadline_kills;
          log(StrFormat("shard %d/%d attempt %d: deadline %.0f ms exceeded — killed",
                        worker.state.shard, options.num_shards, worker.state.attempts,
                        options.retry.timeout_ms));
        }
        ++i;
        continue;
      }
      RunningWorker finished = std::move(running[i]);
      running.erase(running.begin() + static_cast<std::ptrdiff_t>(i));
      if (finished.process.exited_cleanly() && FileNonEmpty(finished.out_path)) {
        ShardDispatch& out = outcomes[finished.state.shard];
        out.attempts = finished.state.attempts;
        out.ok = true;
        out.artifact_path = finished.out_path;
        log(StrFormat("shard %d/%d attempt %d: ok", finished.state.shard, options.num_shards,
                      finished.state.attempts));
        emit(ShardEvent::Kind::kDone, finished.state.shard, finished.state.attempts,
             finished.out_path, "");
      } else {
        std::string why = finished.process.exited_cleanly()
                              ? std::string("worker wrote no artifact")
                              : finished.process.DescribeExit();
        resubmit(std::move(finished.state), why);
      }
    }

    if (!running.empty() || !pending.empty()) {
      std::this_thread::sleep_for(std::chrono::milliseconds(2));
    }
  }

  if (failed_shards > 0) {
    return Status::Internal(first_error);
  }
  report.shards.reserve(outcomes.size());
  for (auto& [shard, dispatch] : outcomes) {
    (void)shard;
    report.shards.push_back(std::move(dispatch));
  }
  return report;
}

}  // namespace emsim::sweep

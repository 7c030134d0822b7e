#include "core/merge_simulator.h"

#include <algorithm>
#include <chrono>
#include <cstddef>
#include <cstdint>
#include <memory>
#include <utility>
#include <vector>

#include "cache/block_cache.h"
#include "core/depletion.h"
#include "disk/array.h"
#include "disk/disk.h"
#include "disk/layout.h"
#include "fault/fault_plan.h"
#include "fault/health.h"
#include "io/planner.h"
#include "io/retry.h"
#include "io/run_state.h"
#include "io/victim_chooser.h"
#include "obs/metrics.h"
#include "sim/process.h"
#include "sim/signal.h"
#include "sim/simulation.h"
#include "util/check.h"
#include "util/rng.h"
#include "util/str.h"

namespace emsim::core {

namespace {

std::unique_ptr<io::VictimChooser> MakeChooser(VictimPolicy policy) {
  switch (policy) {
    case VictimPolicy::kRandom:
      return io::MakeRandomVictimChooser();
    case VictimPolicy::kRoundRobin:
      return io::MakeRoundRobinVictimChooser();
    case VictimPolicy::kFewestBuffered:
      return io::MakeFewestBufferedVictimChooser();
    case VictimPolicy::kNearestHead:
      return io::MakeNearestHeadVictimChooser();
    case VictimPolicy::kClairvoyant:
      return io::MakeClairvoyantVictimChooser();
  }
  return io::MakeRandomVictimChooser();
}

std::unique_ptr<DepletionModel> MakeDepletion(const MergeConfig& config) {
  switch (config.depletion) {
    case DepletionKind::kUniform:
      return MakeUniformDepletion(config.num_runs);
    case DepletionKind::kZipf:
      return MakeZipfDepletion(config.num_runs, config.zipf_theta);
    case DepletionKind::kTrace:
      return MakeTraceDepletion(config.trace);
  }
  return MakeUniformDepletion(config.num_runs);
}

/// All simulation state for one trial. The coroutine MergeLoop drives the
/// model; Engine members are declared so that the Simulation outlives every
/// object holding coroutine frames. The engine is the sink of every request
/// it issues: fetches (directly or through the retry driver) and writes.
class Engine final : public disk::RequestSink {
 public:
  explicit Engine(const MergeConfig& config)
      : config_(config),
        metrics_(config.collect_metrics ? &registry_ : nullptr),
        layout_(disk::RunLayout::Options{config.num_runs, config.num_disks,
                                         config.blocks_per_run, config.disk_params.geometry,
                                         config.placement, config.run_lengths}),
        fault_plan_(config.fault.InjectionEnabled()
                        ? std::make_unique<fault::FaultPlan>(config.fault, config.num_disks,
                                                             config.seed)
                        : nullptr),
        disks_(&sim_, disk::DiskArray::Options{config.disk_params, config.num_disks,
                                               config.seed, metrics_, fault_plan_.get()}),
        cache_(&sim_, cache::BlockCache::Options{config.EffectiveCacheBlocks(),
                                                 config.num_runs, metrics_,
                                                 layout_.TotalBlocks()}),
        runs_(config.run_lengths.empty()
                  ? io::RunStates(config.num_runs, config.blocks_per_run)
                  : io::RunStates(config.run_lengths)),
        rng_(config.seed ^ 0xD1B54A32D192ED03ULL),
        depletion_rng_(rng_.Split()),
        planner_rng_(rng_.Split()),
        depletion_(MakeDepletion(config)) {
    // Every layer gets the registry only when metrics are collected; without
    // one each hook is a skipped null check. A non-null calendar-depth
    // timeline also turns off the kernel's lone-runner fast path: detached
    // and attached runs produce byte-identical results by the AdvanceInline
    // replay contract.
    sim_.AttachMetrics(metrics_);
    if (metrics_ != nullptr) {
      metric_stalls_ = &metrics_->GetCounter("merge.demand_stalls");
      metric_stall_ms_ = &metrics_->GetGauge("merge.stall_ms");
    }
    if (fault_plan_ != nullptr) {
      // Fault machinery exists only when injection is on: a fault-free trial
      // registers no fault metrics and takes no fault branches, keeping its
      // exports byte-identical to the pre-fault simulator.
      health_ = std::make_unique<fault::HealthTracker>(config.num_disks);
      retry_ = std::make_unique<io::FetchRetryDriver>(&sim_, &disks_, health_.get(),
                                                      config.fault.retry, metrics_);
      if (metrics_ != nullptr) {
        metric_degraded_disks_ = &metrics_->GetTimeline("fault.degraded_disks");
      }
    }
    if (config.strategy == Strategy::kAllDisksOneRun) {
      planner_ = io::MakeAllDisksOneRunPlanner(config.prefetch_depth,
                                               MakeChooser(config.victim));
    } else {
      planner_ = io::MakeDemandOnlyPlanner(config.prefetch_depth);
    }
    if (config.write_traffic != WriteTraffic::kNone) {
      write_drain_ = std::make_unique<sim::Signal>(&sim_);
      if (config.write_traffic == WriteTraffic::kSeparateDisks) {
        // Write disks report under their own names: sharing "disk<i>.*"
        // and "disk.requests" would fold their traffic into the read side's.
        write_disks_ = std::make_unique<disk::DiskArray>(
            &sim_, disk::DiskArray::Options{config.disk_params, config.num_write_disks,
                                            config.seed ^ 0xBEEFCAFEULL, metrics_,
                                            /*faults=*/nullptr, "write_disk"});
        write_next_block_.assign(static_cast<size_t>(config.num_write_disks), 0);
      } else {
        // Shared disks: output lands contiguously after each disk's runs.
        write_next_block_.resize(static_cast<size_t>(config.num_disks));
        for (int d = 0; d < config.num_disks; ++d) {
          int64_t used = 0;
          if (layout_.striped()) {
            used = layout_.TotalBlocks() / config.num_disks;
          } else {
            for (int r : layout_.RunsOf(d)) {
              used += layout_.RunBlocks(r);
            }
          }
          write_next_block_[static_cast<size_t>(d)] = used;
        }
      }
    }
  }

  Result<MergeResult> Run() {
    disks_.Start();
    if (write_disks_ != nullptr) {
      write_disks_->Start();
    }
    sim_.Spawn(MergeLoop());
    if (config_.max_sim_events == 0 && config_.max_wall_ms <= 0) {
      sim_.Run();
    } else {
      EMSIM_RETURN_IF_ERROR(RunWithDeadline());
    }
    if (fault_abort_) {
      return fault_status_;
    }
    if (fault_plan_ != nullptr && !merge_finished_) {
      // Under fault injection a drained calendar without completion is a
      // reportable outcome (e.g. writes parked on a fail-stopped disk), not
      // a simulator invariant violation.
      return Status::IoError(
          StrFormat("merge could not complete under fault injection (config: %s)",
                    config_.ToString().c_str()));
    }
    EMSIM_CHECK(merge_finished_ && "merge deadlocked: calendar drained early");
    result_.sim_events = sim_.events_processed();
    return std::move(result_);
  }

 private:
  /// Drives the calendar in bounded chunks so a stuck trial is converted
  /// into kDeadlineExceeded (with the offending config echoed) instead of
  /// spinning forever. The pop sequence is identical to one Run() call.
  Status RunWithDeadline() {
    constexpr uint64_t kChunkEvents = 65536;
    // The wall clock implements the deadline watchdog only: it bounds how much
    // work runs, never the artifact bytes. Equal-seed trials that finish in
    // budget are byte-identical; a timeout surfaces as kDeadlineExceeded.
    // emsim-analyze: allow(determinism-taint)
    const auto wall_start = std::chrono::steady_clock::now();
    for (;;) {
      uint64_t budget = kChunkEvents;
      if (config_.max_sim_events > 0) {
        if (sim_.events_processed() >= config_.max_sim_events) {
          return Status::DeadlineExceeded(
              StrFormat("trial exceeded %llu simulated events (config: %s)",
                        static_cast<unsigned long long>(config_.max_sim_events),
                        config_.ToString().c_str()));
        }
        budget = std::min(budget, config_.max_sim_events - sim_.events_processed());
      }
      if (sim_.RunBounded(budget)) {
        return Status::OK();
      }
      if (config_.max_wall_ms > 0) {
        const double elapsed_ms =
            // emsim-analyze: allow(determinism-taint) — watchdog read, see wall_start.
            std::chrono::duration<double, std::milli>(std::chrono::steady_clock::now() -
                                                      wall_start)
                .count();
        if (elapsed_ms > config_.max_wall_ms) {
          return Status::DeadlineExceeded(
              StrFormat("trial exceeded the %.0f ms wall-clock budget (config: %s)",
                        config_.max_wall_ms, config_.ToString().c_str()));
        }
      }
    }
  }

  void OnBlock(const disk::DiskRequest& request, int i) override {
    if (request.kind == disk::RequestKind::kWrite) {
      return;  // Output leaving memory; only fetched blocks enter the cache.
    }
    cache_.Deposit(request.run, request.first_offset + i * request.offset_stride);
    if (config_.check_invariants) {
      cache_.CheckInvariants();
    }
  }

  void OnComplete(const disk::DiskRequest& request) override {
    if (request.kind == disk::RequestKind::kWrite) {
      write_outstanding_ -= request.nblocks;
      EMSIM_DCHECK(write_outstanding_ >= 0);
      write_drain_->Fire();
      return;
    }
    if (--fetch_spans_ == 0) {
      fetch_done_.Fire();
    }
  }

  /// A span exhausted every retry (reported by the retry driver): the run
  /// it serves is unreadable. Record the Status and wake the merge from
  /// every wait it could be parked on so it unwinds promptly instead of
  /// hanging.
  void OnError(const disk::DiskRequest& request) override {
    if (fault_abort_) {
      return;
    }
    const int disk = layout_.Locate(request.run, request.first_offset).disk;
    fault_abort_ = true;
    fault_status_ = Status::IoError(StrFormat(
        "run unreadable: disk %d span at block %lld (%d blocks) failed after %d retries", disk,
        static_cast<long long>(request.start_block), request.nblocks,
        config_.fault.retry.max_retries));
    result_.fault.permanent_failures = retry_->stats().permanent_failures;
    health_->MarkDead(disk);
    fetch_done_.Fire();
    for (int r = 0; r < config_.num_runs; ++r) {
      cache_.DepositSignal(r).Fire();
    }
    if (write_drain_ != nullptr) {
      write_drain_->Fire();
    }
  }

  io::VictimChooser::Context PlannerContext() {
    io::VictimChooser::Context ctx;
    ctx.layout = &layout_;
    ctx.cache = &cache_;
    ctx.runs = &runs_;
    ctx.disks = &disks_;
    ctx.rng = &planner_rng_;
    if (config_.depletion == DepletionKind::kTrace) {
      ctx.depletion_trace = &config_.trace;
    }
    if (health_ != nullptr) {
      ctx.health = health_.get();
      ctx.now = sim_.Now();
    }
    return ctx;
  }

  /// Applies the cache admission policy to the wish list in `ops_`, in
  /// place; reserves frames for every op left. Returns true when the entire
  /// wish list was admitted.
  bool Admit() {
    std::vector<io::FetchOp>& ops = ops_;
    int64_t total = 0;
    for (const auto& op : ops) {
      total += op.nblocks;
    }
    if (cache_.FreeBlocks() >= total) {
      for (const auto& op : ops) {
        EMSIM_CHECK(cache_.TryReserve(op.run, op.nblocks));
      }
      return true;
    }
    EMSIM_CHECK(!ops.empty() && ops.front().is_demand);
    if (config_.admission == AdmissionPolicy::kConservative) {
      // The paper's policy: fetch only the demand block; resume full
      // prefetching once depletions have freed enough frames.
      ops.resize(1);
      ops.front().nblocks = 1;
      EMSIM_CHECK(cache_.TryReserve(ops.front().run, 1));
      return false;
    }
    // Greedy: demand op first, then prefetch ops in random order, each
    // trimmed to the frames still free.
    io::FetchOp& demand = ops.front();
    demand.nblocks = std::min<int64_t>(demand.nblocks, std::max<int64_t>(cache_.FreeBlocks(), 1));
    EMSIM_CHECK(cache_.TryReserve(demand.run, demand.nblocks));
    rest_.assign(ops.begin() + 1, ops.end());
    ops.resize(1);
    planner_rng_.Permutation(static_cast<uint32_t>(rest_.size()), &perm_);
    for (uint32_t idx : perm_) {
      io::FetchOp op = rest_[idx];
      int64_t free = cache_.FreeBlocks();
      if (free <= 0) {
        break;
      }
      op.nblocks = std::min<int64_t>(op.nblocks, free);
      EMSIM_CHECK(cache_.TryReserve(op.run, op.nblocks));
      ops.push_back(op);
    }
    return false;
  }

  /// Submits the ops in `ops_` to their disks, advancing fetch offsets.
  /// Each op may span several disks under striped placement; every span
  /// counts in fetch_spans_ until it completes.
  void IssueOps() {
    for (const auto& op : ops_) {
      io::RunState& state = runs_[op.run];
      EMSIM_CHECK_EQ(op.offset, state.next_fetch_offset);
      state.next_fetch_offset += op.nblocks;

      layout_.SpansInto(op.run, op.offset, op.nblocks, &spans_);
      for (const disk::RunLayout::Span& span : spans_) {
        disk::DiskRequest request;
        request.start_block = span.local_start;
        request.nblocks = static_cast<int>(span.nblocks);
        // The span delivering the demand block carries the demand tag.
        request.kind = op.is_demand && span.first_offset == op.offset
                           ? disk::RequestKind::kDemand
                           : disk::RequestKind::kPrefetch;
        request.sink = this;
        request.run = op.run;
        request.first_offset = span.first_offset;
        request.offset_stride = span.offset_stride;
        ++fetch_spans_;
        if (retry_ != nullptr) {
          retry_->Submit(span.disk, request);
        } else {
          disks_.Submit(span.disk, request);
        }
      }
    }
  }

  /// Loads the cache with N blocks from each run (the paper's initial
  /// state), degrading to one block per run when the cache is tight.
  void IssuePreload() {
    // Two passes so that a tight cache still yields the mandatory one block
    // per run: first a block for everyone, then top up toward N while
    // frames remain.
    std::vector<io::FetchOp>& ops = ops_;
    ops.clear();
    for (int r = 0; r < config_.num_runs; ++r) {
      io::FetchOp op;
      op.run = r;
      op.offset = 0;
      op.nblocks = 1;
      op.is_demand = false;
      EMSIM_CHECK(cache_.TryReserve(r, op.nblocks));
      ops.push_back(op);
    }
    for (auto& op : ops) {
      int64_t want =
          std::min<int64_t>(config_.prefetch_depth, runs_[op.run].blocks_total);
      int64_t extra = std::min<int64_t>(want - op.nblocks, cache_.FreeBlocks());
      if (extra > 0 && cache_.TryReserve(op.run, extra)) {
        op.nblocks += extra;
      }
    }
    IssueOps();
  }

  /// The paper's demand fetch for `run`: plans the batch, applies admission
  /// and issues it.
  void IssueDemandFetch(int run) {
    EMSIM_CHECK(!runs_[run].FullyRequested());
    ++result_.io_operations;
    // A plan drawn while any disk is quarantined/dead is degraded: the
    // fan-out skipped the sick disks, so even a fully admitted batch is not
    // the paper's "full DN-block success".
    bool degraded = health_ != nullptr && health_->DegradedCount(sim_.Now()) > 0;
    if (degraded) {
      ++result_.fault.degraded_plans;
    }
    if (metric_degraded_disks_ != nullptr) {
      metric_degraded_disks_->Update(sim_.Now(),
                                     static_cast<double>(health_->DegradedCount(sim_.Now())));
    }
    planner_->Plan(PlannerContext(), run, &ops_);
    if (Admit() && !degraded) {
      ++result_.full_admissions;
    }
    IssueOps();
  }

  /// Sends the buffered output blocks as one write request (round-robin
  /// across the write target disks).
  void FlushWrites() {
    if (write_buffered_ == 0) {
      return;
    }
    int nblocks = static_cast<int>(write_buffered_);
    write_buffered_ = 0;
    size_t target = static_cast<size_t>(write_rr_++) % write_next_block_.size();
    disk::DiskRequest request;
    request.start_block = write_next_block_[target];
    write_next_block_[target] += nblocks;
    request.nblocks = nblocks;
    request.kind = disk::RequestKind::kWrite;
    request.sink = this;
    ++result_.write_requests;
    result_.write_blocks += static_cast<uint64_t>(nblocks);
    if (write_disks_ != nullptr) {
      write_disks_->Submit(static_cast<int>(target), request);
    } else {
      disks_.Submit(static_cast<int>(target), request);
    }
  }

  /// The merge still waits for the issued fetch spans to complete.
  bool AwaitingFetches() const { return !fault_abort_ && fetch_spans_ > 0; }

  /// The merge still waits for the leading block of `run` to arrive.
  bool AwaitingLeading(int run) const {
    EMSIM_DCHECK(fault_abort_ || cache_.HasLeadingBlock(run) || cache_.InFlightForRun(run) > 0);
    return !fault_abort_ && !cache_.HasLeadingBlock(run);
  }

  /// Records one demand wait that began at `start` in the result and the
  /// registry. Returns false when a fault aborted the trial meanwhile.
  bool EndStall(double start) {
    const double ms = sim_.Now() - start;
    ++result_.demand_stalls;
    result_.stall_ms.Add(ms);
    if (metric_stalls_ != nullptr) {
      metric_stalls_->Increment();
      metric_stall_ms_->Add(ms);
    }
    return !fault_abort_;
  }

  sim::Process MergeLoop() {
    // Initial state: the cache holds (up to) N blocks of every run.
    IssuePreload();
    while (AwaitingFetches()) {
      co_await fetch_done_.Wait();
    }

    int64_t remaining = layout_.TotalBlocks();
    while (remaining > 0 && !fault_abort_) {
      int run = depletion_->Next(runs_, depletion_rng_);
      EMSIM_DCHECK(!runs_[run].FullyConsumed());

      // The chosen run's leading block can still be in flight
      // (unsynchronized prefetching); merging cannot continue without it.
      if (cache_.HasLeadingBlock(run)) {
        ++result_.cache_hits;
      } else {
        const double stall_start = sim_.Now();
        while (AwaitingLeading(run)) {
          co_await cache_.DepositSignal(run).Wait();
        }
        if (!EndStall(stall_start)) {
          break;
        }
      }

      cache_.ConsumeLeading(run);
      io::RunState& state = runs_[run];
      ++state.consumed;
      --remaining;
      ++result_.blocks_merged;
      if (config_.check_invariants) {
        cache_.CheckInvariants();
      }

      if (config_.cpu_ms_per_block > 0) {
        co_await sim::Delay(config_.cpu_ms_per_block);
        result_.cpu_busy_ms += config_.cpu_ms_per_block;
      }

      // Write-behind of the merged block (extension; off in the paper).
      if (config_.write_traffic != WriteTraffic::kNone) {
        ++write_buffered_;
        ++write_outstanding_;
        if (write_buffered_ >= config_.write_batch_blocks) {
          FlushWrites();
        }
        if (write_outstanding_ > config_.write_buffer_blocks) {
          ++result_.write_stalls;
          FlushWrites();  // Never stall on blocks we have not even issued.
          while (!fault_abort_ && write_outstanding_ > config_.write_buffer_blocks) {
            co_await write_drain_->Wait();
          }
          if (fault_abort_) {
            break;
          }
        }
      }

      // The paper's demand-fetch rule: if the depleted run has no cached
      // blocks left, the merge stalls until its next block arrives, fetching
      // it first unless it is already in flight. A synchronized merge waits
      // out the whole batch, which also delivers the leading block.
      if (remaining > 0 && !state.FullyConsumed() && cache_.CachedForRun(run) == 0) {
        const double stall_start = sim_.Now();
        if (cache_.InFlightForRun(run) == 0) {
          const bool sync = config_.sync == SyncMode::kSynchronized;
          EMSIM_DCHECK(!sync || fetch_spans_ == 0);
          IssueDemandFetch(run);
          while (sync && AwaitingFetches()) {
            co_await fetch_done_.Wait();
          }
        }
        while (AwaitingLeading(run)) {
          co_await cache_.DepositSignal(run).Wait();
        }
        if (!EndStall(stall_start)) {
          break;
        }
      }
    }

    if (fault_abort_) {
      // The Status carries the outcome; the partial result is discarded.
      merge_finished_ = true;
      co_return;
    }

    // Drain the write-behind pipeline; with write modeling enabled the job
    // is only done once the output is on disk.
    if (config_.write_traffic != WriteTraffic::kNone) {
      double merge_done = sim_.Now();
      FlushWrites();
      while (!fault_abort_ && write_outstanding_ > 0) {
        co_await write_drain_->Wait();
      }
      if (fault_abort_) {
        merge_finished_ = true;
        co_return;
      }
      result_.write_drain_ms = sim_.Now() - merge_done;
    }

    // Snapshot statistics at merge completion; trailing prefetch transfers
    // do not count toward the paper's execution time.
    result_.total_ms = sim_.Now();
    disks_.FlushStats();
    cache_.FlushStats();
    result_.avg_concurrency = disks_.MeanConcurrencyWhileActive();
    result_.disk_active_fraction = disks_.ActiveFraction();
    result_.mean_cache_occupancy = cache_.MeanOccupancy();
    result_.disk_totals = disks_.TotalStats();
    result_.cache_stats = cache_.stats();
    result_.per_disk = disks_.UtilizationSnapshot();
    if (fault_plan_ != nullptr) {
      result_.fault.injection_enabled = true;
      result_.fault.media_errors = result_.disk_totals.media_errors;
      result_.fault.latency_spikes = result_.disk_totals.latency_spikes;
      result_.fault.dropped_requests = result_.disk_totals.dropped_requests;
      result_.fault.fail_stop_ms = result_.disk_totals.fail_stop_ms;
      result_.fault.timeouts = retry_->stats().timeouts;
      result_.fault.retries = retry_->stats().retries;
      result_.fault.permanent_failures = retry_->stats().permanent_failures;
      result_.fault.backoff_ms = retry_->stats().backoff_ms;
      result_.fault.quarantine_events = health_->quarantine_events();
      result_.fault.quarantine_ms = health_->quarantine_ms();
    }
    if (metrics_ != nullptr) {
      metrics_->FlushTimelines(sim_.Now());
      result_.metrics = metrics_->Samples();
    }
    merge_finished_ = true;
    co_return;
  }

  MergeConfig config_;
  sim::Simulation sim_;
  obs::MetricsRegistry registry_;
  /// &registry_ when config.collect_metrics, else null. Declared before
  /// disks_/cache_: their Options carry it.
  obs::MetricsRegistry* metrics_;
  disk::RunLayout layout_;
  /// Declared before disks_: the array's Options carry the plan's address.
  /// Null (and all fault machinery absent) when injection is disabled.
  std::unique_ptr<fault::FaultPlan> fault_plan_;
  disk::DiskArray disks_;
  cache::BlockCache cache_;
  io::RunStates runs_;
  Rng rng_;
  Rng depletion_rng_;
  Rng planner_rng_;
  std::unique_ptr<DepletionModel> depletion_;
  std::unique_ptr<io::PrefetchPlanner> planner_;
  obs::Counter* metric_stalls_ = nullptr;
  obs::Gauge* metric_stall_ms_ = nullptr;

  // Fetch-path state, reused by every fetch so a fetch allocates nothing
  // once the buffers have grown.
  std::vector<io::FetchOp> ops_;
  std::vector<io::FetchOp> rest_;
  std::vector<uint32_t> perm_;
  std::vector<disk::RunLayout::Span> spans_;
  /// Fetch spans issued and not yet completed. The merge waits for them all
  /// only after the preload and a synchronized fetch, when no other fetch is
  /// in flight, so the count is exactly that fetch's.
  int64_t fetch_spans_ = 0;
  sim::Signal fetch_done_{&sim_};  ///< Pulsed when fetch_spans_ drops to 0.

  // Fault machinery (all null/false without injection).
  std::unique_ptr<fault::HealthTracker> health_;
  std::unique_ptr<io::FetchRetryDriver> retry_;
  obs::Timeline* metric_degraded_disks_ = nullptr;
  bool fault_abort_ = false;
  Status fault_status_;

  // Write-behind state (extension).
  std::unique_ptr<disk::DiskArray> write_disks_;
  std::unique_ptr<sim::Signal> write_drain_;
  std::vector<int64_t> write_next_block_;
  int64_t write_buffered_ = 0;
  int64_t write_outstanding_ = 0;
  int write_rr_ = 0;

  MergeResult result_;
  bool merge_finished_ = false;
};

}  // namespace

Result<MergeResult> MergeSimulator::Run() {
  Status status = config_.Validate();
  if (!status.ok()) {
    return status;
  }
  Engine engine(config_);
  return engine.Run();
}

Result<MergeResult> SimulateMerge(const MergeConfig& config) {
  return MergeSimulator(config).Run();
}

}  // namespace emsim::core

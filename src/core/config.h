#ifndef EMSIM_CORE_CONFIG_H_
#define EMSIM_CORE_CONFIG_H_

#include <cstdint>
#include <string>
#include <vector>

#include "disk/disk_params.h"
#include "disk/layout.h"
#include "fault/fault_plan.h"
#include "util/status.h"

namespace emsim::core {

/// The two prefetching strategies of the paper (its figure legends).
enum class Strategy {
  /// "Demand Run Only": intra-run prefetching — fetch N contiguous blocks of
  /// the demand run. N = 1 is the Kwan-Baer no-prefetching baseline.
  kDemandRunOnly,
  /// "All Disks One Run": inter-run prefetching combined with intra-run
  /// depth N — also fetch N blocks of one run on every other disk.
  kAllDisksOneRun,
};

/// Whether the CPU waits for the whole batch or only the demand block.
enum class SyncMode {
  kSynchronized,
  kUnsynchronized,
};

/// What to do when the cache cannot hold the full prefetch wish list.
enum class AdmissionPolicy {
  /// Fetch only the demand block (the paper's choice, backed by its Markov
  /// analysis: sacrificing partial concurrency frees cache space sooner).
  kConservative,
  /// Fetch as many of the wished blocks as fit, chosen randomly (the
  /// paper's rejected "greedy" alternative, kept for the ablation).
  kGreedy,
};

/// Which run to prefetch from on each non-demand disk.
enum class VictimPolicy {
  kRandom,          ///< The paper's policy.
  kRoundRobin,
  kFewestBuffered,
  kNearestHead,
  /// Optimal prediction from the full depletion trace (Aggarwal & Vitter);
  /// only valid with DepletionKind::kTrace.
  kClairvoyant,
};

/// Whether and where the merged output is written (extension; the paper
/// assumes separate write disks and excludes the traffic from its study).
enum class WriteTraffic {
  /// Ignore writes entirely (the paper's model).
  kNone,
  /// Write-behind to a separate disk set, as the paper assumes exists;
  /// quantifies how much bandwidth that assumption consumes.
  kSeparateDisks,
  /// Write-behind to the SAME disks as the input runs — the contention the
  /// paper's assumption avoids.
  kSharedDisks,
};

/// How the merge consumes blocks.
enum class DepletionKind {
  /// Uniform random run choice (Kwan & Baer's model; the paper's).
  kUniform,
  /// Zipf-skewed run choice (extension: non-uniform key distributions).
  kZipf,
  /// Replay of an explicit run-id sequence (e.g. from a real merge).
  kTrace,
};

/// Full configuration of one merge-phase simulation.
struct MergeConfig {
  int num_runs = 25;                        ///< k
  int num_disks = 5;                        ///< D
  int64_t blocks_per_run = 1000;
  /// Optional per-run lengths (size k) overriding blocks_per_run — used
  /// when simulating real run formation (replacement selection produces
  /// unequal runs). Empty means uniform.
  std::vector<int64_t> run_lengths;
  int prefetch_depth = 1;                   ///< N
  /// Cache capacity in blocks; kAutoCache sizes it to k*N (the intra-run
  /// requirement) for kDemandRunOnly and to k*N + D*N for kAllDisksOneRun
  /// (ample enough for a success ratio near 1).
  int64_t cache_blocks = kAutoCache;

  Strategy strategy = Strategy::kDemandRunOnly;
  SyncMode sync = SyncMode::kUnsynchronized;
  AdmissionPolicy admission = AdmissionPolicy::kConservative;
  VictimPolicy victim = VictimPolicy::kRandom;

  /// CPU time to merge one block; 0 models the paper's infinitely fast CPU.
  double cpu_ms_per_block = 0.0;

  /// Output write modeling (extension; kNone is the paper's model).
  WriteTraffic write_traffic = WriteTraffic::kNone;
  /// Disks in the separate write set (kSeparateDisks only).
  int num_write_disks = 1;
  /// Merged blocks buffered before one write request is issued (seek and
  /// latency amortization on the write side).
  int write_batch_blocks = 10;
  /// Maximum merged-but-unwritten blocks (buffered + in flight) before the
  /// CPU stalls — the write-behind backpressure limit.
  int64_t write_buffer_blocks = 200;

  disk::DiskParams disk_params;
  disk::RunPlacement placement = disk::RunPlacement::kRoundRobin;

  DepletionKind depletion = DepletionKind::kUniform;
  double zipf_theta = 0.0;                  ///< For kZipf.
  std::vector<int> trace;                   ///< For kTrace: run ids in depletion order.

  uint64_t seed = 1;

  /// Fault injection and recovery policy (robustness extension). The
  /// all-defaults config disables injection entirely: the merge takes the
  /// exact fault-free code paths and its output stays byte-identical.
  fault::FaultConfig fault;

  /// Trial deadline: abort with Status kDeadlineExceeded after this many
  /// simulated events (0 = unlimited). Guards the trial harness against a
  /// model change that livelocks the calendar.
  uint64_t max_sim_events = 0;

  /// Trial deadline: abort with kDeadlineExceeded once the trial has
  /// consumed this much wall-clock time (0 = unlimited). Checked between
  /// bounded calendar chunks, so a stuck trial is caught within one chunk.
  double max_wall_ms = 0.0;

  /// Run full cache-invariant checks on every step (tests; slow).
  bool check_invariants = false;

  /// Collect the named metrics registry (sim kernel, per-disk and cache
  /// timelines) into MergeResult::metrics. Off by default: the merge's
  /// headline statistics are always collected and the hooks then cost one
  /// pointer test each.
  bool collect_metrics = false;

  static constexpr int64_t kAutoCache = -1;
  /// Largest run and disk counts Validate accepts: a trial builds per-run
  /// and per-disk state, so a count far past any merge geometry would only
  /// exhaust memory.
  static constexpr int kMaxRuns = 1000000;
  static constexpr int kMaxDisks = 10000;

  /// Resolved cache size.
  int64_t EffectiveCacheBlocks() const;

  /// Total blocks across all runs.
  int64_t TotalBlocks() const;

  /// Validates ranges and cross-field consistency (e.g. the cache must hold
  /// at least one block per run for the merge to make progress).
  Status Validate() const;

  std::string ToString() const;

  /// Shorthand used throughout benches: the paper's disk with k runs over D
  /// disks at depth N.
  static MergeConfig Paper(int num_runs, int num_disks, int n, Strategy strategy,
                           SyncMode sync);

  /// Field-for-field equality (spec round-trip tests compare with it).
  bool operator==(const MergeConfig&) const = default;
};

/// Stable string names for the configuration enums (used by the CLI tool,
/// experiment specs and logs) and their parsers.
const char* StrategyName(Strategy strategy);
const char* SyncModeName(SyncMode sync);
const char* AdmissionPolicyName(AdmissionPolicy policy);
const char* VictimPolicyName(VictimPolicy policy);
const char* DepletionKindName(DepletionKind kind);
const char* WriteTrafficName(WriteTraffic traffic);

Result<Strategy> ParseStrategy(const std::string& name);
Result<SyncMode> ParseSyncMode(const std::string& name);
Result<AdmissionPolicy> ParseAdmissionPolicy(const std::string& name);
Result<VictimPolicy> ParseVictimPolicy(const std::string& name);
Result<DepletionKind> ParseDepletionKind(const std::string& name);
Result<WriteTraffic> ParseWriteTraffic(const std::string& name);

}  // namespace emsim::core

#endif  // EMSIM_CORE_CONFIG_H_

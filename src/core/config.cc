#include "core/config.h"

#include <cstddef>

#include "util/str.h"

namespace emsim::core {

int64_t MergeConfig::EffectiveCacheBlocks() const {
  if (cache_blocks != kAutoCache) {
    return cache_blocks;
  }
  int64_t intra = static_cast<int64_t>(num_runs) * prefetch_depth;
  if (strategy == Strategy::kAllDisksOneRun) {
    // Ample sizing: inter-run prefetching banks blocks for runs that are not
    // yet needed, so holding the success ratio at ~1 takes far more than the
    // k*N intra-run working set (the whole point of Fig. 3.5/3.6). This
    // bound is calibrated to exceed the measured success=1 thresholds of
    // every paper configuration (~1000/1600/3000 blocks for 25r5d / 50r5d /
    // 50r10d at N=10) with ~2x margin.
    return 2 * intra + 20LL * num_runs +
           20LL * static_cast<int64_t>(num_disks) * prefetch_depth;
  }
  return intra;
}

int64_t MergeConfig::TotalBlocks() const {
  if (run_lengths.empty()) {
    return static_cast<int64_t>(num_runs) * blocks_per_run;
  }
  int64_t total = 0;
  for (int64_t b : run_lengths) {
    total += b;
  }
  return total;
}

Status MergeConfig::Validate() const {
  if (num_runs < 1 || num_disks < 1 || blocks_per_run < 1) {
    return Status::InvalidArgument("num_runs, num_disks and blocks_per_run must be >= 1");
  }
  if (num_runs > kMaxRuns) {
    return Status::InvalidArgument(
        StrFormat("num_runs (runs) = %d exceeds the limit of %d", num_runs, kMaxRuns));
  }
  if (num_disks > kMaxDisks) {
    return Status::InvalidArgument(
        StrFormat("num_disks (disks) = %d exceeds the limit of %d", num_disks, kMaxDisks));
  }
  if (prefetch_depth < 1) {
    return Status::InvalidArgument("prefetch_depth (N) must be >= 1");
  }
  if (!run_lengths.empty()) {
    if (static_cast<int>(run_lengths.size()) != num_runs) {
      return Status::InvalidArgument("run_lengths size must equal num_runs");
    }
    for (int64_t b : run_lengths) {
      if (b < 1) {
        return Status::InvalidArgument("every run length must be >= 1");
      }
    }
  } else if (prefetch_depth > blocks_per_run) {
    return Status::InvalidArgument("prefetch_depth (N) cannot exceed blocks_per_run");
  }
  if (EffectiveCacheBlocks() < num_runs) {
    return Status::InvalidArgument(
        StrFormat("cache of %lld blocks cannot hold one block per run (k=%d)",
                  static_cast<long long>(EffectiveCacheBlocks()), num_runs));
  }
  if (cpu_ms_per_block < 0) {
    return Status::InvalidArgument("cpu_ms_per_block must be >= 0");
  }
  if (write_traffic != WriteTraffic::kNone) {
    if (write_traffic == WriteTraffic::kSeparateDisks &&
        (num_write_disks < 1 || num_write_disks > kMaxDisks)) {
      return Status::InvalidArgument(
          StrFormat("num_write_disks must be in [1, %d]", kMaxDisks));
    }
    if (write_batch_blocks < 1) {
      return Status::InvalidArgument("write_batch_blocks must be >= 1");
    }
    if (write_buffer_blocks < write_batch_blocks) {
      return Status::InvalidArgument(
          "write_buffer_blocks must hold at least one write batch");
    }
  }
  if (depletion == DepletionKind::kZipf && zipf_theta < 0) {
    return Status::InvalidArgument("zipf_theta must be >= 0");
  }
  if (depletion == DepletionKind::kTrace) {
    int64_t expected = TotalBlocks();
    if (static_cast<int64_t>(trace.size()) != expected) {
      return Status::InvalidArgument(
          StrFormat("trace has %zu depletions, expected %lld", trace.size(),
                    static_cast<long long>(expected)));
    }
    std::vector<int64_t> counts(static_cast<size_t>(num_runs), 0);
    for (int r : trace) {
      if (r < 0 || r >= num_runs) {
        return Status::InvalidArgument("trace contains an out-of-range run id");
      }
      ++counts[static_cast<size_t>(r)];
    }
    for (int r = 0; r < num_runs; ++r) {
      int64_t want = run_lengths.empty() ? blocks_per_run : run_lengths[static_cast<size_t>(r)];
      if (counts[static_cast<size_t>(r)] != want) {
        return Status::InvalidArgument(
            StrFormat("trace depletes run %d %lld times; its length is %lld", r,
                      static_cast<long long>(counts[static_cast<size_t>(r)]),
                      static_cast<long long>(want)));
      }
    }
  }
  if (victim == VictimPolicy::kClairvoyant && depletion != DepletionKind::kTrace) {
    return Status::InvalidArgument(
        "the clairvoyant victim policy needs a depletion trace to foresee");
  }
  if (placement == disk::RunPlacement::kStriped &&
      strategy == Strategy::kAllDisksOneRun) {
    return Status::InvalidArgument(
        "inter-run prefetching needs whole runs per disk; striped placement "
        "only supports demand-run-only");
  }
  EMSIM_RETURN_IF_ERROR(fault.Validate(num_disks));
  if (max_wall_ms < 0) {
    return Status::InvalidArgument("max_wall_ms must be >= 0 (0 disables)");
  }
  EMSIM_RETURN_IF_ERROR(disk_params.Validate());
  return disk::RunLayout::Validate(disk::RunLayout::Options{
      num_runs, num_disks, blocks_per_run, disk_params.geometry, placement, run_lengths});
}

std::string MergeConfig::ToString() const {
  std::string out = StrFormat(
      "MergeConfig{k=%d, D=%d, blocks/run=%lld, N=%d, C=%lld, %s, %s, cpu=%.3f ms/blk, "
      "seed=%llu}",
      num_runs, num_disks, static_cast<long long>(blocks_per_run), prefetch_depth,
      static_cast<long long>(EffectiveCacheBlocks()),
      strategy == Strategy::kDemandRunOnly ? "demand-run-only" : "all-disks-one-run",
      sync == SyncMode::kSynchronized ? "sync" : "unsync", cpu_ms_per_block,
      static_cast<unsigned long long>(seed));
  if (fault.InjectionEnabled()) {
    out += ' ';
    out += fault.ToString();
  }
  return out;
}

const char* StrategyName(Strategy strategy) {
  switch (strategy) {
    case Strategy::kDemandRunOnly:
      return "demand-run-only";
    case Strategy::kAllDisksOneRun:
      return "all-disks-one-run";
  }
  return "?";
}

const char* SyncModeName(SyncMode sync) {
  return sync == SyncMode::kSynchronized ? "sync" : "unsync";
}

const char* AdmissionPolicyName(AdmissionPolicy policy) {
  return policy == AdmissionPolicy::kConservative ? "conservative" : "greedy";
}

const char* VictimPolicyName(VictimPolicy policy) {
  switch (policy) {
    case VictimPolicy::kRandom:
      return "random";
    case VictimPolicy::kRoundRobin:
      return "round-robin";
    case VictimPolicy::kFewestBuffered:
      return "fewest-buffered";
    case VictimPolicy::kNearestHead:
      return "nearest-head";
    case VictimPolicy::kClairvoyant:
      return "clairvoyant";
  }
  return "?";
}

const char* DepletionKindName(DepletionKind kind) {
  switch (kind) {
    case DepletionKind::kUniform:
      return "uniform";
    case DepletionKind::kZipf:
      return "zipf";
    case DepletionKind::kTrace:
      return "trace";
  }
  return "?";
}

const char* WriteTrafficName(WriteTraffic traffic) {
  switch (traffic) {
    case WriteTraffic::kNone:
      return "none";
    case WriteTraffic::kSeparateDisks:
      return "separate";
    case WriteTraffic::kSharedDisks:
      return "shared";
  }
  return "?";
}

namespace {
template <typename T>
Result<T> ParseEnum(const std::string& name, std::initializer_list<T> values,
                    const char* (*to_name)(T), const char* what) {
  for (T value : values) {
    if (name == to_name(value)) {
      return value;
    }
  }
  std::string valid;
  for (T value : values) {
    if (!valid.empty()) {
      valid += ", ";
    }
    valid += to_name(value);
  }
  return Status::InvalidArgument(
      StrFormat("unknown %s '%s' (expected one of: %s)", what, name.c_str(), valid.c_str()));
}
}  // namespace

Result<Strategy> ParseStrategy(const std::string& name) {
  return ParseEnum(name, {Strategy::kDemandRunOnly, Strategy::kAllDisksOneRun},
                   &StrategyName, "strategy");
}

Result<SyncMode> ParseSyncMode(const std::string& name) {
  return ParseEnum(name, {SyncMode::kSynchronized, SyncMode::kUnsynchronized},
                   &SyncModeName, "sync mode");
}

Result<AdmissionPolicy> ParseAdmissionPolicy(const std::string& name) {
  return ParseEnum(name, {AdmissionPolicy::kConservative, AdmissionPolicy::kGreedy},
                   &AdmissionPolicyName, "admission policy");
}

Result<VictimPolicy> ParseVictimPolicy(const std::string& name) {
  return ParseEnum(name,
                   {VictimPolicy::kRandom, VictimPolicy::kRoundRobin,
                    VictimPolicy::kFewestBuffered, VictimPolicy::kNearestHead,
                    VictimPolicy::kClairvoyant},
                   &VictimPolicyName, "victim policy");
}

Result<DepletionKind> ParseDepletionKind(const std::string& name) {
  return ParseEnum(name,
                   {DepletionKind::kUniform, DepletionKind::kZipf, DepletionKind::kTrace},
                   &DepletionKindName, "depletion kind");
}

Result<WriteTraffic> ParseWriteTraffic(const std::string& name) {
  return ParseEnum(
      name, {WriteTraffic::kNone, WriteTraffic::kSeparateDisks, WriteTraffic::kSharedDisks},
      &WriteTrafficName, "write traffic");
}

MergeConfig MergeConfig::Paper(int num_runs, int num_disks, int n, Strategy strategy,
                               SyncMode sync) {
  MergeConfig config;
  config.num_runs = num_runs;
  config.num_disks = num_disks;
  config.prefetch_depth = n;
  config.strategy = strategy;
  config.sync = sync;
  return config;
}

}  // namespace emsim::core

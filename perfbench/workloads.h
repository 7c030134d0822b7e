#ifndef EMSIM_PERFBENCH_WORKLOADS_H_
#define EMSIM_PERFBENCH_WORKLOADS_H_

// The benchmark's fixed workloads. Each is an experiment-spec text generated
// from the run's seed; the harness hands emsim only that text.

#include <cstdint>
#include <string>
#include <vector>

namespace perfbench {

struct Workload {
  const char* name;
  /// Trials per unit in the timed grid, and shards the sweep pass splits it into.
  int trials;
  int shards;
  /// FNV-1a digest of the single-pass JSON export of this workload's grid at
  /// kGoldenSeed with kGoldenTrials trials per unit. Pins the simulated
  /// statistics: a perf-only change must leave it unchanged.
  uint64_t golden_digest;
  /// Spec text for `trials` trials per unit, unit seeds derived from `seed`.
  std::string (*spec)(uint64_t seed, int trials);
};

inline constexpr uint64_t kGoldenSeed = 1;
inline constexpr int kGoldenTrials = 2;

const std::vector<Workload>& Workloads();

/// Null when no workload has that name.
const Workload* FindWorkload(const std::string& name);

}  // namespace perfbench

#endif  // EMSIM_PERFBENCH_WORKLOADS_H_

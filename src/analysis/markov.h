#ifndef EMSIM_ANALYSIS_MARKOV_H_
#define EMSIM_ANALYSIS_MARKOV_H_

#include <map>

namespace emsim::analysis {

/// Steady-state Markov model of inter-run prefetching for the setting the
/// paper's companion report (Pai, Schaffer & Varman, TR-9108) analyzes:
/// D disks with ONE run per disk, unit fetches (N = 1), and a cache of C
/// block frames. The merge depletes a uniformly random run each step; when
/// the depleted run has no cached block an I/O operation occurs and the
/// admission policy decides how many disks participate:
///
///  * Conservative (the paper's choice): prefetch one block from EVERY disk
///    if all D fit in the free frames, else fetch only the demand block.
///  * Greedy: fetch the demand block plus prefetches on as many other disks
///    as free frames allow (chosen uniformly).
///
/// The chain's state is the multiset of per-run cached-block counts; the
/// model computes the stationary distribution by power iteration and
/// reports the average I/O parallelism (disks used per I/O operation) —
/// the quantity the paper says favors the conservative policy.
class MarkovPrefetchModel {
 public:
  enum class Policy {
    kConservative,
    kGreedy,
  };

  /// `num_disks` >= 1 runs/disks, cache of `cache_blocks` >= 1 frames.
  /// State spaces grow as compositions of C into D parts; keep D <= 8 and
  /// C <= 64 for sub-second solves.
  MarkovPrefetchModel(int num_disks, int cache_blocks);

  /// Average number of disks participating per I/O operation under the
  /// stationary distribution.
  double AverageParallelism(Policy policy) const;

  /// Fraction of I/O operations that fetch from all D disks (the model's
  /// success ratio).
  double SuccessRatio(Policy policy) const;

  /// Expected per-I/O-step cached-block total at steady state.
  double MeanOccupancy(Policy policy) const;

  int num_disks() const { return d_; }
  int cache_blocks() const { return c_; }

 private:
  struct Solution {
    double parallelism = 0;
    double success = 0;
    double occupancy = 0;
  };

  Solution Solve(Policy policy) const;
  /// Solve's result for `policy`, computed once.
  const Solution& Solved(Policy policy) const;

  int d_;
  int c_;
  mutable std::map<int, Solution> cache_;  // Keyed by static_cast<int>(policy).
};

}  // namespace emsim::analysis

#endif  // EMSIM_ANALYSIS_MARKOV_H_

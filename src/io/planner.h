#ifndef EMSIM_IO_PLANNER_H_
#define EMSIM_IO_PLANNER_H_

#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "io/victim_chooser.h"

namespace emsim::io {

/// One planned read: `nblocks` contiguous blocks of `run` starting at
/// `offset` (which is always the run's next unrequested block).
struct FetchOp {
  int run = 0;
  int64_t offset = 0;
  int64_t nblocks = 1;
  bool is_demand = false;  ///< True for the op that unblocks the merge.
};

/// A prefetching strategy: given the run whose leading block the merge needs
/// (the demand-fetch run), produce the *wish list* of reads to issue. The
/// driver applies the cache admission policy (all-or-nothing vs greedy) to
/// the wish list — planners express intent only.
///
/// Two concrete planners reproduce the paper's strategies:
///  * DemandOnly   — "Demand Run Only": N blocks of the demand run
///                   (intra-run prefetching; N = 1 degenerates to the
///                   Kwan-Baer no-prefetching baseline).
///  * AllDisksOneRun — "All Disks One Run": N blocks of the demand run plus
///                   N blocks of one victim run on every other disk
///                   (inter-run prefetching combined with intra-run depth N).
class PrefetchPlanner {
 public:
  virtual ~PrefetchPlanner() = default;

  /// Replaces the contents of `*ops` (a caller-owned, reused buffer) with
  /// the wish list for a demand fetch on `demand_run`. Ops are ordered with
  /// the demand op first. Never produces an empty list while the demand run
  /// has blocks on disk.
  virtual void Plan(const VictimChooser::Context& ctx, int demand_run,
                    std::vector<FetchOp>* ops) = 0;

  virtual std::string name() const = 0;
};

/// Intra-run ("Demand Run Only") planner with prefetch depth `n`.
std::unique_ptr<PrefetchPlanner> MakeDemandOnlyPlanner(int n);

/// Inter-run ("All Disks One Run") planner with intra-run depth `n` and the
/// given victim chooser (the paper uses the random chooser).
std::unique_ptr<PrefetchPlanner> MakeAllDisksOneRunPlanner(int n,
                                                           std::unique_ptr<VictimChooser> chooser);

}  // namespace emsim::io

#endif  // EMSIM_IO_PLANNER_H_

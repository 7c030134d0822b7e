#ifndef EMSIM_PERFBENCH_ALLOC_LEDGER_H_
#define EMSIM_PERFBENCH_ALLOC_LEDGER_H_

// Heap-allocation ledger measured from outside the library: the harness
// replaces the global operator new (alloc_ledger.cc) with a counter keyed by
// the layer tag that is current when the allocation happens. The harness
// sets the tag around each call it makes into a layer, so every allocation
// is charged to the layer call that caused it, on whichever thread it ran.

#include <cstdint>

namespace perfbench {

enum class Layer : int {
  kOther = 0,    ///< Harness bookkeeping between layer calls.
  kSetup,        ///< Spec generation/parsing, grid, predictor, pool start.
  kTrial,        ///< One untraced core::SimulateMerge call.
  kTracedTrial,  ///< SimulateMerge with collect_metrics (traced run only).
  kRunShard,     ///< sweep::RunShard (trials on the worker pool).
  kEncode,       ///< Shard codec encode + seal.
  kMerge,        ///< Unseal + MergeShardArtifacts.
  kAggregate,    ///< core::AggregateTrials.
  kExport,       ///< core::ExperimentSetToJson.
  kProbeSim,     ///< sim::Simulation scheduling probe.
  kProbeDisk,    ///< disk::Mechanism::Access probe.
  kProbeCache,   ///< cache::BlockCache reserve/deposit/consume probe.
  kCheck,        ///< Output checks (reference runs, byte comparisons).
  kCount,
};

/// Makes `layer` the current tag for its lifetime, restoring the previous
/// tag on exit. The tag is process-wide, not per thread, so pool workers
/// running a shard are charged to the call that started them.
class ScopedLayer {
 public:
  explicit ScopedLayer(Layer layer);
  ~ScopedLayer();

  ScopedLayer(const ScopedLayer&) = delete;
  ScopedLayer& operator=(const ScopedLayer&) = delete;

 private:
  Layer previous_;
};

/// Allocations charged to `layer` so far, summed over all threads.
uint64_t Allocs(Layer layer);

}  // namespace perfbench

#endif  // EMSIM_PERFBENCH_ALLOC_LEDGER_H_

#include "io/planner.h"

#include <algorithm>
#include <cstdint>
#include <utility>

#include "disk/layout.h"
#include "io/run_state.h"
#include "util/check.h"
#include "util/str.h"

namespace emsim::io {

namespace {

/// Clamps an op's depth to what the run still holds on disk.
FetchOp MakeOp(const RunStates& runs, int run, int64_t n, bool is_demand) {
  const RunState& s = runs[run];
  FetchOp op;
  op.run = run;
  op.offset = s.next_fetch_offset;
  op.nblocks = std::min<int64_t>(n, s.RemainingOnDisk());
  op.is_demand = is_demand;
  EMSIM_CHECK(op.nblocks >= 1);
  return op;
}

/// Degraded intra-run depth for the mandatory demand op: when the demand
/// run's home disk is currently unusable (quarantined by repeated failures),
/// speculating deeper on it only queues more work behind the fault — fall
/// back to fetching exactly the block the merge is stalled on. Striped runs
/// have no single home disk, so they keep full depth.
int64_t DemandDepth(const VictimChooser::Context& ctx, int demand_run, int64_t n) {
  if (ctx.health == nullptr || ctx.layout == nullptr || ctx.layout->striped()) {
    return n;
  }
  return ctx.health->Usable(ctx.layout->DiskOf(demand_run), ctx.now) ? n : 1;
}

class DemandOnlyPlanner final : public PrefetchPlanner {
 public:
  explicit DemandOnlyPlanner(int n) : n_(n) { EMSIM_CHECK(n >= 1); }

  void Plan(const VictimChooser::Context& ctx, int demand_run,
            std::vector<FetchOp>* ops) override {
    ops->clear();
    ops->push_back(MakeOp(*ctx.runs, demand_run, DemandDepth(ctx, demand_run, n_),
                          /*is_demand=*/true));
  }

  std::string name() const override { return StrFormat("demand-only(N=%d)", n_); }

 private:
  int n_;
};

class AllDisksOneRunPlanner final : public PrefetchPlanner {
 public:
  AllDisksOneRunPlanner(int n, std::unique_ptr<VictimChooser> chooser)
      : n_(n), chooser_(std::move(chooser)) {
    EMSIM_CHECK(n >= 1);
    EMSIM_CHECK(chooser_ != nullptr);
  }

  void Plan(const VictimChooser::Context& ctx, int demand_run,
            std::vector<FetchOp>* ops) override {
    ops->clear();
    ops->push_back(MakeOp(*ctx.runs, demand_run, DemandDepth(ctx, demand_run, n_),
                          /*is_demand=*/true));
    const disk::RunLayout& layout = *ctx.layout;
    int demand_disk = layout.DiskOf(demand_run);
    for (int d = 0; d < layout.num_disks(); ++d) {
      if (d == demand_disk) {
        continue;
      }
      if (ctx.health != nullptr && !ctx.health->Usable(d, ctx.now)) {
        continue;  // Degraded fan-out: no speculative work for a sick disk.
      }
      candidates_.clear();
      for (int r : layout.RunsOf(d)) {
        if (r != demand_run && !(*ctx.runs)[r].FullyRequested()) {
          candidates_.push_back(r);
        }
      }
      if (candidates_.empty()) {
        continue;  // This disk has nothing left to prefetch.
      }
      int victim = chooser_->Choose(ctx, candidates_);
      ops->push_back(MakeOp(*ctx.runs, victim, n_, /*is_demand=*/false));
    }
  }

  std::string name() const override {
    return StrFormat("all-disks-one-run(N=%d, victim=%s)", n_, chooser_->name());
  }

 private:
  int n_;
  std::unique_ptr<VictimChooser> chooser_;
  std::vector<int> candidates_;  ///< Reused per-disk victim candidates.
};

}  // namespace

std::unique_ptr<PrefetchPlanner> MakeDemandOnlyPlanner(int n) {
  return std::make_unique<DemandOnlyPlanner>(n);
}

std::unique_ptr<PrefetchPlanner> MakeAllDisksOneRunPlanner(
    int n, std::unique_ptr<VictimChooser> chooser) {
  return std::make_unique<AllDisksOneRunPlanner>(n, std::move(chooser));
}

}  // namespace emsim::io

#ifndef EMSIM_CORE_DEPLETION_H_
#define EMSIM_CORE_DEPLETION_H_

#include <memory>
#include <vector>

#include "io/run_state.h"
#include "util/rng.h"

namespace emsim::core {

/// Chooses which run loses its leading block at each merge step. The paper
/// (following Kwan & Baer) models depletion as uniformly random over the
/// runs that still hold unmerged blocks; implementations must only return
/// such runs.
class DepletionModel {
 public:
  virtual ~DepletionModel() = default;

  /// Returns the run to deplete next. Called exactly once per merged block;
  /// `runs` reflects consumption *before* this depletion.
  virtual int Next(const io::RunStates& runs, Rng& rng) = 0;

  virtual const char* name() const = 0;
};

/// Uniform random choice among active runs (the paper's model).
std::unique_ptr<DepletionModel> MakeUniformDepletion(int num_runs);

/// Zipf-skewed choice: active runs keep their rank order by id; rank 0 is
/// hottest. theta = 0 degenerates to uniform.
std::unique_ptr<DepletionModel> MakeZipfDepletion(int num_runs, double theta);

/// Replays a fixed depletion sequence (e.g. the order in which a k-way merge
/// of real sorted runs uses up their blocks, from extsort::ExtractDepletionTrace).
std::unique_ptr<DepletionModel> MakeTraceDepletion(std::vector<int> trace);

}  // namespace emsim::core

#endif  // EMSIM_CORE_DEPLETION_H_

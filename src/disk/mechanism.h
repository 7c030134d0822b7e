#ifndef EMSIM_DISK_MECHANISM_H_
#define EMSIM_DISK_MECHANISM_H_

#include <cstdint>

#include "disk/disk_params.h"
#include "util/rng.h"

namespace emsim::disk {

/// Cost breakdown of one positioning + transfer operation.
struct AccessCost {
  double seek_ms = 0.0;
  double rotation_ms = 0.0;
  double transfer_ms = 0.0;   ///< For the whole n-block transfer.
  int64_t seek_cylinders = 0;  ///< Absolute arm travel distance.
  bool sequential = false;     ///< True if the sequential optimization fired.

  double PositioningMs() const { return seek_ms + rotation_ms; }
  double TotalMs() const { return seek_ms + rotation_ms + transfer_ms; }
};

/// Stateful head-position model of a single disk: tracks the arm cylinder
/// and the next physically sequential block, and prices an access to `n`
/// contiguous blocks as seek(distance) + rotational latency + n * T, the
/// paper's cost model. Blocks per cylinder and the per-block transfer time
/// are computed once at construction, not per access. Pure timing logic with
/// no simulator dependency, so the analysis and the external-sort accounting
/// reuse it directly.
class Mechanism {
 public:
  explicit Mechanism(const DiskParams& params);

  /// Prices an access to `nblocks` contiguous blocks starting at disk-local
  /// block `start_block`, updates the head position, and returns the cost.
  /// `rng` supplies the rotational latency draw under kUniform; `now_ms` is
  /// the absolute time the request starts service and is required (>= 0)
  /// under the kAngular model, ignored otherwise.
  AccessCost Access(int64_t start_block, int nblocks, Rng& rng, double now_ms = -1.0);

  /// Angular start position of a block within its track, as a fraction of a
  /// revolution in [0, 1). Exposed for tests of the kAngular model.
  double BlockAngle(int64_t block) const;

  /// Arm travel (in cylinders) that an access to `start_block` would incur
  /// now, without performing it. Used by SSTF scheduling.
  int64_t SeekDistanceTo(int64_t start_block) const;

  int64_t current_cylinder() const { return current_cylinder_; }

  const DiskParams& params() const { return params_; }

  /// params().TransferMsPerBlock(), computed once.
  double transfer_ms_per_block() const { return transfer_ms_per_block_; }

 private:
  int64_t CylinderOf(int64_t block) const { return block / blocks_per_cylinder_; }

  DiskParams params_;
  int64_t blocks_per_cylinder_ = 0;
  double transfer_ms_per_block_ = 0.0;
  int64_t current_cylinder_ = 0;
  int64_t next_sequential_block_ = -1;
};

}  // namespace emsim::disk

#endif  // EMSIM_DISK_MECHANISM_H_

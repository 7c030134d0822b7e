#include "disk/mechanism.h"

#include <cmath>
#include <cstdlib>

#include "disk/geometry.h"
#include "util/check.h"

namespace emsim::disk {

Mechanism::Mechanism(const DiskParams& params) : params_(params) {
  EMSIM_CHECK(params.Validate().ok());
  blocks_per_cylinder_ = params.geometry.BlocksPerCylinder();
  transfer_ms_per_block_ = params.TransferMsPerBlock();
}

int64_t Mechanism::SeekDistanceTo(int64_t start_block) const {
  return std::llabs(CylinderOf(start_block) - current_cylinder_);
}

double Mechanism::BlockAngle(int64_t block) const {
  // Within-cylinder block index mapped to its starting sector's share of a
  // revolution. Blocks that straddle a track boundary are approximated by
  // their modular sector offset (head switches are free in this model).
  const Geometry& g = params_.geometry;
  int64_t within = block % blocks_per_cylinder_;
  int64_t start_sector = (within * g.SectorsPerBlock()) % g.sectors_per_track;
  return static_cast<double>(start_sector) / g.sectors_per_track;
}

AccessCost Mechanism::Access(int64_t start_block, int nblocks, Rng& rng, double now_ms) {
  EMSIM_CHECK(start_block >= 0);
  EMSIM_CHECK(nblocks >= 1);
  AccessCost cost;
  cost.transfer_ms = transfer_ms_per_block_ * nblocks;

  const bool sequential =
      params_.sequential_optimization && start_block == next_sequential_block_;
  if (sequential) {
    cost.sequential = true;
  } else {
    int64_t target = CylinderOf(start_block);
    cost.seek_cylinders = std::llabs(target - current_cylinder_);
    cost.seek_ms = params_.SeekMs(cost.seek_cylinders);
    switch (params_.rotation) {
      case RotationalLatencyModel::kFixedMean:
        cost.rotation_ms = params_.MeanRotationalLatencyMs();
        break;
      case RotationalLatencyModel::kUniform:
        cost.rotation_ms = rng.UniformDouble(0.0, params_.revolution_ms);
        break;
      case RotationalLatencyModel::kAngular: {
        EMSIM_CHECK(now_ms >= 0 && "kAngular needs the service start time");
        // The platter's angular position when positioning ends, as a
        // fraction of a revolution; wait until the target sector's start
        // comes under the head.
        double rev = params_.revolution_ms;
        double at = now_ms + cost.seek_ms;
        double head_angle = std::fmod(at, rev) / rev;
        double wait = BlockAngle(start_block) - head_angle;
        if (wait < 0) {
          wait += 1.0;
        }
        cost.rotation_ms = wait * rev;
        break;
      }
    }
  }

  int64_t last_block = start_block + nblocks - 1;
  current_cylinder_ = CylinderOf(last_block);
  next_sequential_block_ = last_block + 1;
  return cost;
}

}  // namespace emsim::disk

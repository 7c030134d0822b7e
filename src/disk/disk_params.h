#ifndef EMSIM_DISK_DISK_PARAMS_H_
#define EMSIM_DISK_DISK_PARAMS_H_

#include <cstdint>
#include <string>

#include "disk/geometry.h"
#include "util/status.h"

namespace emsim::disk {

/// How the rotational latency of a request is drawn.
enum class RotationalLatencyModel {
  /// Every request pays exactly the mean latency R (half a revolution) —
  /// matches the closed-form analysis with zero variance.
  kFixedMean,
  /// Uniform on [0, 2R] — what the paper's simulator does; the mean is R but
  /// the spread drives E[max] effects in synchronized inter-run prefetching.
  kUniform,
  /// Physical model (extension): the platter position is derived from the
  /// absolute time (it spins continuously), so the wait is the angle from
  /// the head's current position to the target sector. Back-to-back
  /// sequential reads wait zero; re-reading a block waits almost a full
  /// revolution. Requires callers to pass the current time to
  /// Mechanism::Access.
  kAngular,
};

/// Order in which queued requests are served.
enum class SchedulingPolicy {
  kFcfs,  ///< First-come-first-served (the paper's model).
  kSstf,  ///< Shortest-seek-time-first (ablation extension).
};

/// Mechanical and policy parameters of one disk. Defaults reproduce the
/// paper's drive: S = 0.01 ms/cylinder seek, 16.67 ms revolution
/// (R = 8.33 ms), T = 16.67 * 8/52 = 2.5641 ms per 4,096-B block.
struct DiskParams {
  Geometry geometry;

  /// Linear seek cost per cylinder of travel (the paper's S). The paper
  /// notes a linear model overestimates long seeks but keeps it for
  /// simplicity; we do the same and add an optional fixed settle overhead.
  double seek_ms_per_cylinder = 0.01;

  /// Fixed per-seek overhead added whenever the arm moves (extension;
  /// 0 in the paper's model).
  double seek_settle_ms = 0.0;

  /// Full platter revolution time; 3,600 RPM in the paper.
  double revolution_ms = 50.0 / 3.0;

  RotationalLatencyModel rotation = RotationalLatencyModel::kUniform;
  SchedulingPolicy scheduling = SchedulingPolicy::kFcfs;

  /// If true, a request that starts at the block immediately following the
  /// previously transferred block pays neither seek nor rotational latency.
  /// The paper charges seek + R per request unconditionally, so this is off
  /// by default; it exists as an ablation.
  bool sequential_optimization = false;

  /// Transfer time for one block: the block's share of a revolution.
  double TransferMsPerBlock() const {
    return revolution_ms * geometry.SectorsPerBlock() / geometry.sectors_per_track;
  }

  /// Mean rotational latency R (half a revolution).
  double MeanRotationalLatencyMs() const { return revolution_ms / 2.0; }

  /// Seek time for a move of `cylinders` cylinders (0 cost for 0 distance).
  double SeekMs(int64_t cylinders) const;

  Status Validate() const;

  std::string ToString() const;

  /// The paper's parameter set (also the default constructor's values).
  static DiskParams Paper();

  bool operator==(const DiskParams&) const = default;
};

}  // namespace emsim::disk

#endif  // EMSIM_DISK_DISK_PARAMS_H_

#ifndef EMSIM_DISK_LAYOUT_H_
#define EMSIM_DISK_LAYOUT_H_

#include <cstdint>
#include <span>
#include <string>
#include <vector>

#include "disk/geometry.h"
#include "util/status.h"

namespace emsim::disk {

/// How runs are assigned to disks.
enum class RunPlacement {
  /// Run r lives on disk r mod D (the paper's "runs equally distributed over
  /// D disks"); runs on a disk are placed contiguously in assignment order.
  kRoundRobin,
  /// Runs 0..k/D-1 on disk 0, the next k/D on disk 1, etc.
  kBlocked,
  /// Declustered (Salem & Garcia-Molina striping): block o of every run
  /// lives on disk o mod D, so a single run's sequential read engages all
  /// disks. Requires uniform run lengths divisible by D. Only the
  /// demand-run-only strategy is meaningful on a striped layout (there is
  /// no "other disk" holding a whole run to prefetch from).
  kStriped,
};

/// Maps (run, block-within-run) to (disk, disk-local block) for `k` sorted
/// runs striped over `D` disks, each run `blocks_per_run` blocks long and
/// stored contiguously. This is the data layout the paper's merge reads.
class RunLayout {
 public:
  struct Options {
    int num_runs = 25;
    int num_disks = 5;
    int64_t blocks_per_run = 1000;
    Geometry geometry;  // Supplies blocks-per-cylinder for cylinder math.
    RunPlacement placement = RunPlacement::kRoundRobin;
    /// Optional per-run lengths (size num_runs) overriding the uniform
    /// blocks_per_run — real run formation (e.g. replacement selection)
    /// produces unequal runs. Empty means uniform.
    std::vector<int64_t> run_blocks;
  };

  explicit RunLayout(Options options);

  /// Fails if a disk would overflow its cylinder count. Checks `options`
  /// without building the layout; they must pass the constructor's checks.
  static Status Validate(const Options& options);

  int num_runs() const { return options_.num_runs; }
  int num_disks() const { return options_.num_disks; }

  /// Uniform run length; with per-run lengths this is the mean (used only
  /// for reporting).
  int64_t blocks_per_run() const { return options_.blocks_per_run; }

  /// Length of a specific run in blocks.
  int64_t RunBlocks(int run) const;

  /// Disk storing run `run`.
  int DiskOf(int run) const;

  /// Number of runs stored on `disk`.
  int RunsOnDisk(int disk) const;

  /// The runs stored on `disk`, in placement order (cached at construction).
  std::span<const int> RunsOf(int disk) const;

  /// Disk-local block index of block `offset` of run `run`. For striped
  /// placement the owning disk varies per offset — use Locate/SpansInto.
  int64_t LocalBlock(int run, int64_t offset) const;

  /// Disk-local cylinder of block `offset` of run `run`.
  int64_t CylinderOf(int run, int64_t offset) const;

  /// Physical location of one block.
  struct Location {
    int disk = 0;
    int64_t local_block = 0;
  };
  Location Locate(int run, int64_t offset) const;

  /// One physically contiguous piece of a logical read: `nblocks` blocks on
  /// `disk` starting at `local_start`, covering run offsets
  /// first_offset, first_offset + offset_stride, ... (stride 1 when the run
  /// is contiguous on the disk, D when striped).
  struct Span {
    int disk = 0;
    int64_t local_start = 0;
    int64_t nblocks = 0;
    int64_t first_offset = 0;
    int64_t offset_stride = 1;
  };

  /// Splits a logical read of `nblocks` run blocks starting at `offset`
  /// into per-disk contiguous spans (a single span on contiguous layouts),
  /// replacing the contents of `*out` (a caller-owned, reused buffer).
  void SpansInto(int run, int64_t offset, int64_t nblocks, std::vector<Span>* out) const;

  bool striped() const { return options_.placement == RunPlacement::kStriped; }

  /// Cylinders each run spans (the paper's m = blocks_per_run / 104).
  double RunLengthCylinders() const;

  /// Total blocks across all runs.
  int64_t TotalBlocks() const;

  std::string ToString() const;

 private:
  Options options_;
  /// Each disk's runs, disk after disk: disk d's are runs_by_disk_[
  /// disk_begin_[d], disk_begin_[d + 1]). With each run's disk-local start
  /// block, computed once (all empty for striped placement, where a run has
  /// no home disk).
  std::vector<int> runs_by_disk_;
  std::vector<int> disk_begin_;
  std::vector<int64_t> start_block_;
};

}  // namespace emsim::disk

#endif  // EMSIM_DISK_LAYOUT_H_

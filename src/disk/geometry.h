#ifndef EMSIM_DISK_GEOMETRY_H_
#define EMSIM_DISK_GEOMETRY_H_

#include <cstdint>
#include <string>

#include "util/status.h"

namespace emsim::disk {

/// Physical layout of one disk unit. Defaults reproduce the drive used in
/// the paper (reconstructed in DESIGN.md): 16 heads x 52 sectors/track x
/// 512 B sectors = 425,984 B per cylinder = 104 blocks of 4,096 B. The paper
/// models the 4,096-B transfer unit by grouping 8 physical sectors; timing
/// derives from the physical track (8/52 of a revolution per block).
struct Geometry {
  int heads = 16;
  int sectors_per_track = 52;
  int cylinders = 625;
  int bytes_per_sector = 512;
  int block_bytes = 4096;

  /// Physical sectors forming one transfer block.
  int SectorsPerBlock() const { return block_bytes / bytes_per_sector; }

  /// Blocks stored per cylinder (the paper's 104).
  int BlocksPerCylinder() const {
    return heads * sectors_per_track * bytes_per_sector / block_bytes;
  }

  /// Total block capacity of the disk.
  int64_t TotalBlocks() const {
    return static_cast<int64_t>(cylinders) * BlocksPerCylinder();
  }

  /// Cylinder holding the given disk-local block index.
  int64_t CylinderOf(int64_t block) const { return block / BlocksPerCylinder(); }

  /// Validates internal consistency (positive dimensions, block size an
  /// exact multiple of the sector size, at least one block per cylinder).
  Status Validate() const;

  std::string ToString() const;

  bool operator==(const Geometry&) const = default;
};

}  // namespace emsim::disk

#endif  // EMSIM_DISK_GEOMETRY_H_

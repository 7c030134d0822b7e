#include "disk/layout.h"

#include <cstddef>
#include <limits>

#include "util/check.h"
#include "util/str.h"

namespace emsim::disk {

RunLayout::RunLayout(const Options& options) : options_(options) {
  EMSIM_CHECK(options.num_runs >= 1);
  EMSIM_CHECK(options.num_disks >= 1);
  EMSIM_CHECK(options.blocks_per_run >= 1);
  if (!options.run_blocks.empty()) {
    EMSIM_CHECK_EQ(static_cast<int>(options.run_blocks.size()), options.num_runs);
    for (int64_t b : options.run_blocks) {
      EMSIM_CHECK(b >= 1);
    }
  }
  if (striped()) {
    return;
  }
  runs_of_.resize(static_cast<size_t>(options.num_disks));
  start_block_.resize(static_cast<size_t>(options.num_runs));
  // Runs are placed on their disk in increasing id order, so a run starts
  // where the runs before it on the same disk end. Saturate instead of
  // overflowing; oversized layouts fail Validate().
  std::vector<int64_t> disk_end(static_cast<size_t>(options.num_disks), 0);
  for (int r = 0; r < options.num_runs; ++r) {
    const size_t d = static_cast<size_t>(DiskOf(r));
    runs_of_[d].push_back(r);
    start_block_[static_cast<size_t>(r)] = disk_end[d];
    if (__builtin_add_overflow(disk_end[d], RunBlocks(r), &disk_end[d])) {
      disk_end[d] = std::numeric_limits<int64_t>::max();
    }
  }
}

int64_t RunLayout::RunBlocks(int run) const {
  EMSIM_DCHECK(run >= 0 && run < options_.num_runs);
  if (options_.run_blocks.empty()) {
    return options_.blocks_per_run;
  }
  return options_.run_blocks[static_cast<size_t>(run)];
}

int64_t RunLayout::TotalBlocks() const {
  // Saturate instead of overflowing: run counts/lengths come straight from
  // parsed specs, and INT64_MAX-sized inputs must fail Validate()'s capacity
  // checks, not hit signed-overflow UB while summing (caught by UBSan with
  // -fsanitize=undefined on a fuzz-derived spec).
  constexpr int64_t kMax = std::numeric_limits<int64_t>::max();
  if (options_.run_blocks.empty()) {
    int64_t total = 0;
    if (__builtin_mul_overflow(static_cast<int64_t>(options_.num_runs),
                               options_.blocks_per_run, &total)) {
      return kMax;
    }
    return total;
  }
  int64_t total = 0;
  for (int64_t b : options_.run_blocks) {
    if (__builtin_add_overflow(total, b, &total)) {
      return kMax;
    }
  }
  return total;
}

Status RunLayout::Validate() const {
  EMSIM_RETURN_IF_ERROR(options_.geometry.Validate());
  if (options_.placement == RunPlacement::kStriped) {
    if (!options_.run_blocks.empty()) {
      return Status::InvalidArgument("striped placement requires uniform run lengths");
    }
    if (options_.blocks_per_run % options_.num_disks != 0) {
      return Status::InvalidArgument(
          "striped placement requires blocks_per_run divisible by the disk count");
    }
    int64_t per_disk = TotalBlocks() / options_.num_disks;
    if (per_disk > options_.geometry.TotalBlocks()) {
      return Status::InvalidArgument("striped layout overflows the disks");
    }
    return Status::OK();
  }
  for (int d = 0; d < options_.num_disks; ++d) {
    int64_t blocks = 0;
    for (int r : RunsOf(d)) {
      if (__builtin_add_overflow(blocks, RunBlocks(r), &blocks)) {
        blocks = std::numeric_limits<int64_t>::max();  // saturate; rejected below
        break;
      }
    }
    if (blocks > options_.geometry.TotalBlocks()) {
      return Status::InvalidArgument(
          StrFormat("disk %d needs %lld blocks but holds only %lld", d,
                    static_cast<long long>(blocks),
                    static_cast<long long>(options_.geometry.TotalBlocks())));
    }
  }
  return Status::OK();
}

int RunLayout::DiskOf(int run) const {
  EMSIM_DCHECK(run >= 0 && run < options_.num_runs);
  EMSIM_CHECK(!striped() && "DiskOf is undefined for striped runs; use Locate/SpansInto");
  switch (options_.placement) {
    case RunPlacement::kRoundRobin:
      return run % options_.num_disks;
    case RunPlacement::kBlocked: {
      // Ceil division so the first disks take the extra runs when k % D != 0.
      int per_disk = (options_.num_runs + options_.num_disks - 1) / options_.num_disks;
      return run / per_disk;
    }
    case RunPlacement::kStriped:
      break;
  }
  return 0;
}

int RunLayout::RunsOnDisk(int disk) const {
  return static_cast<int>(RunsOf(disk).size());
}

const std::vector<int>& RunLayout::RunsOf(int disk) const {
  EMSIM_DCHECK(disk >= 0 && disk < options_.num_disks);
  EMSIM_CHECK(!striped() && "RunsOf is undefined for striped runs");
  return runs_of_[static_cast<size_t>(disk)];
}

int64_t RunLayout::LocalBlock(int run, int64_t offset) const {
  EMSIM_DCHECK(offset >= 0 && offset < RunBlocks(run));
  EMSIM_CHECK(!striped() && "LocalBlock is per-disk for striped runs; use Locate");
  return start_block_[static_cast<size_t>(run)] + offset;
}

RunLayout::Location RunLayout::Locate(int run, int64_t offset) const {
  EMSIM_DCHECK(offset >= 0 && offset < RunBlocks(run));
  if (!striped()) {
    return {DiskOf(run), LocalBlock(run, offset)};
  }
  int64_t stripe = options_.blocks_per_run / options_.num_disks;
  Location loc;
  loc.disk = static_cast<int>(offset % options_.num_disks);
  loc.local_block = static_cast<int64_t>(run) * stripe + offset / options_.num_disks;
  return loc;
}

void RunLayout::SpansInto(int run, int64_t offset, int64_t nblocks,
                          std::vector<Span>* out) const {
  EMSIM_CHECK(nblocks >= 1);
  std::vector<Span>& spans = *out;
  spans.clear();
  if (!striped()) {
    Span span;
    span.disk = DiskOf(run);
    span.local_start = LocalBlock(run, offset);
    span.nblocks = nblocks;
    span.first_offset = offset;
    span.offset_stride = 1;
    spans.push_back(span);
    return;
  }
  int d = options_.num_disks;
  for (int residue = 0; residue < d; ++residue) {
    // First offset in [offset, offset + nblocks) congruent to residue.
    int64_t delta = (residue - offset % d + d) % d;
    int64_t first = offset + delta;
    if (first >= offset + nblocks) {
      continue;
    }
    Span span;
    span.disk = residue;
    span.first_offset = first;
    span.offset_stride = d;
    span.nblocks = (offset + nblocks - first + d - 1) / d;
    span.local_start = Locate(run, first).local_block;
    spans.push_back(span);
  }
}

int64_t RunLayout::CylinderOf(int run, int64_t offset) const {
  return options_.geometry.CylinderOf(Locate(run, offset).local_block);
}

double RunLayout::RunLengthCylinders() const {
  return static_cast<double>(options_.blocks_per_run) / options_.geometry.BlocksPerCylinder();
}

std::string RunLayout::ToString() const {
  const char* placement = "round-robin";
  if (options_.placement == RunPlacement::kBlocked) {
    placement = "blocked";
  } else if (options_.placement == RunPlacement::kStriped) {
    placement = "striped";
  }
  return StrFormat("RunLayout{k=%d, D=%d, blocks/run=%lld, m=%.4f cyl, placement=%s}",
                   options_.num_runs, options_.num_disks,
                   static_cast<long long>(options_.blocks_per_run), RunLengthCylinders(),
                   placement);
}

}  // namespace emsim::disk

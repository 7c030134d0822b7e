#include "disk/layout.h"

#include <algorithm>
#include <cstddef>
#include <limits>
#include <utility>

#include "util/check.h"
#include "util/str.h"

namespace emsim::disk {

namespace {

constexpr int64_t kMaxBlocks = std::numeric_limits<int64_t>::max();

// Block counts saturate instead of overflowing: run counts and lengths come
// straight from parsed specs, and INT64_MAX-sized inputs must fail
// Validate()'s capacity checks, not hit signed-overflow UB while summing
// (caught by UBSan with -fsanitize=undefined on a fuzz-derived spec).
int64_t AddBlocks(int64_t a, int64_t b) {
  int64_t sum = 0;
  return __builtin_add_overflow(a, b, &sum) ? kMaxBlocks : sum;
}

void CheckOptions(const RunLayout::Options& options) {
  EMSIM_CHECK(options.num_runs >= 1);
  EMSIM_CHECK(options.num_disks >= 1);
  EMSIM_CHECK(options.blocks_per_run >= 1);
  if (!options.run_blocks.empty()) {
    EMSIM_CHECK_EQ(static_cast<int>(options.run_blocks.size()), options.num_runs);
    for (int64_t b : options.run_blocks) {
      EMSIM_CHECK(b >= 1);
    }
  }
}

int64_t RunBlocksOf(const RunLayout::Options& options, int64_t run) {
  if (options.run_blocks.empty()) {
    return options.blocks_per_run;
  }
  return options.run_blocks[static_cast<size_t>(run)];
}

int64_t TotalBlocksOf(const RunLayout::Options& options) {
  if (options.run_blocks.empty()) {
    int64_t total = 0;
    if (__builtin_mul_overflow(static_cast<int64_t>(options.num_runs), options.blocks_per_run,
                               &total)) {
      return kMaxBlocks;
    }
    return total;
  }
  int64_t total = 0;
  for (int64_t b : options.run_blocks) {
    total = AddBlocks(total, b);
  }
  return total;
}

/// The runs a whole-run placement stores on `disk`, in increasing id
/// order: first, first + stride, ... below end. Matches RunLayout::DiskOf.
struct DiskRuns {
  int64_t first = 0;
  int64_t end = 0;
  int64_t stride = 1;
};

DiskRuns RunsPlacedOn(const RunLayout::Options& options, int disk) {
  const int64_t k = options.num_runs;
  if (options.placement == RunPlacement::kBlocked) {
    const int64_t per_disk = (k + options.num_disks - 1) / options.num_disks;
    return {std::min(k, disk * per_disk), std::min(k, (disk + 1) * per_disk), 1};
  }
  return {disk, k, options.num_disks};
}

}  // namespace

RunLayout::RunLayout(Options options) : options_(std::move(options)) {
  CheckOptions(options_);
  if (striped()) {
    return;
  }
  const size_t k = static_cast<size_t>(options_.num_runs);
  runs_by_disk_.reserve(k);
  disk_begin_.reserve(static_cast<size_t>(options_.num_disks) + 1);
  start_block_.resize(k);
  // Runs are placed on their disk in increasing id order, so a run starts
  // where the runs before it on the same disk end.
  for (int d = 0; d < options_.num_disks; ++d) {
    disk_begin_.push_back(static_cast<int>(runs_by_disk_.size()));
    const DiskRuns runs = RunsPlacedOn(options_, d);
    int64_t end = 0;
    for (int64_t r = runs.first; r < runs.end; r += runs.stride) {
      runs_by_disk_.push_back(static_cast<int>(r));
      start_block_[static_cast<size_t>(r)] = end;
      end = AddBlocks(end, RunBlocksOf(options_, r));
    }
  }
  disk_begin_.push_back(options_.num_runs);
}

int64_t RunLayout::RunBlocks(int run) const {
  EMSIM_DCHECK(run >= 0 && run < options_.num_runs);
  return RunBlocksOf(options_, run);
}

int64_t RunLayout::TotalBlocks() const { return TotalBlocksOf(options_); }

Status RunLayout::Validate(const Options& options) {
  CheckOptions(options);
  EMSIM_RETURN_IF_ERROR(options.geometry.Validate());
  if (options.placement == RunPlacement::kStriped) {
    if (!options.run_blocks.empty()) {
      return Status::InvalidArgument("striped placement requires uniform run lengths");
    }
    if (options.blocks_per_run % options.num_disks != 0) {
      return Status::InvalidArgument(
          "striped placement requires blocks_per_run divisible by the disk count");
    }
    int64_t per_disk = TotalBlocksOf(options) / options.num_disks;
    if (per_disk > options.geometry.TotalBlocks()) {
      return Status::InvalidArgument("striped layout overflows the disks");
    }
    return Status::OK();
  }
  for (int d = 0; d < options.num_disks; ++d) {
    const DiskRuns runs = RunsPlacedOn(options, d);
    int64_t blocks = 0;
    for (int64_t r = runs.first; r < runs.end; r += runs.stride) {
      blocks = AddBlocks(blocks, RunBlocksOf(options, r));
    }
    if (blocks > options.geometry.TotalBlocks()) {
      return Status::InvalidArgument(
          StrFormat("disk %d needs %lld blocks but holds only %lld", d,
                    static_cast<long long>(blocks),
                    static_cast<long long>(options.geometry.TotalBlocks())));
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

std::span<const int> RunLayout::RunsOf(int disk) const {
  EMSIM_DCHECK(disk >= 0 && disk < options_.num_disks);
  EMSIM_CHECK(!striped() && "RunsOf is undefined for striped runs");
  const size_t begin = static_cast<size_t>(disk_begin_[static_cast<size_t>(disk)]);
  const size_t end = static_cast<size_t>(disk_begin_[static_cast<size_t>(disk) + 1]);
  return std::span<const int>(runs_by_disk_).subspan(begin, end - begin);
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

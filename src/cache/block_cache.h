#ifndef EMSIM_CACHE_BLOCK_CACHE_H_
#define EMSIM_CACHE_BLOCK_CACHE_H_

#include <cstddef>
#include <cstdint>
#include <limits>
#include <optional>
#include <vector>

#include "obs/metrics.h"
#include "sim/signal.h"
#include "sim/simulation.h"
#include "stats/time_weighted.h"
#include "util/check.h"

namespace emsim::cache {

/// Cumulative cache statistics.
struct CacheStats {
  uint64_t deposits = 0;
  uint64_t consumptions = 0;
  uint64_t reservations_granted = 0;   ///< Successful TryReserve calls.
  uint64_t reservations_denied = 0;    ///< Failed TryReserve calls.
  uint64_t blocks_reserved = 0;        ///< Total blocks across granted reservations.
  int64_t peak_occupancy = 0;          ///< Max of cached + reserved.
};

/// The RAM disk cache of the paper's system model: a budget of C block
/// frames shared by all runs, with explicit *reservations* for in-flight
/// reads so that the cached + in-flight total never exceeds capacity — the
/// property the conservative inter-run admission policy relies on.
///
/// The cache is pure mechanism: *what* to prefetch and *whether* to insist
/// on all-or-nothing admission are decided by the prefetch planner and the
/// merge driver (io/ and core/). Blocks are identified as (run, offset);
/// no data bytes are stored, per the paper's block-depletion model.
///
/// A run's cached offsets are almost always consecutive: consumption is
/// strictly in offset order per run (a merge depletes a run's blocks
/// sequentially), and deposits arrive in order under FCFS. So each run
/// keeps its leading consecutive offsets as one extent [begin, end), and an
/// in-order deposit or a consumption only moves an end of it. SSTF
/// scheduling and striped reads can reorder deposits; a block that arrives
/// beyond a gap takes a frame, linked into the run's ascending list of
/// such frames, and waits there until the gap fills and the extent
/// reaches it.
///
/// The frames are reserved once, at construction: min(C, total blocks) of
/// them, the most the cache can ever hold, with one shared free list. A
/// trial's cache never touches the heap after setup.
class BlockCache {
 public:
  struct Options {
    int64_t capacity_blocks = 25;
    int num_runs = 25;
    /// Optional metrics registry; wires the "cache.occupancy" timeline and
    /// the deposit/denied-admission counters.
    obs::MetricsRegistry* metrics = nullptr;
    /// Blocks of all runs together, unbounded by default. The cache never
    /// holds more than this or capacity_blocks, so it keeps the smaller
    /// number of frames.
    int64_t total_blocks = std::numeric_limits<int64_t>::max();
  };

  BlockCache(sim::Simulation* sim, const Options& options);

  int64_t capacity() const { return capacity_; }
  int num_runs() const { return static_cast<int>(runs_.size()); }

  /// Blocks resident in the cache.
  int64_t CachedBlocks() const { return cached_total_; }

  /// Frames reserved for reads still in flight.
  int64_t ReservedBlocks() const { return reserved_total_; }

  /// Frames neither cached nor reserved.
  int64_t FreeBlocks() const { return capacity_ - cached_total_ - reserved_total_; }

  /// True if `run`'s *leading* block (the next one the merge will consume)
  /// is resident. Inline: the merge polls this on every block consumed and
  /// every fetch planned.
  bool HasLeadingBlock(int run) const {
    const RunSlot& slot = RunOf(run);
    return slot.begin != slot.end && slot.begin == slot.next_consume;
  }

  /// Cached blocks held for `run`.
  int64_t CachedForRun(int run) const { return RunOf(run).cached; }

  /// Reserved (in-flight) blocks for `run`.
  int64_t InFlightForRun(int run) const { return RunOf(run).reserved; }

  /// Offset the merge will consume next from `run`.
  int64_t NextConsumeOffset(int run) const { return RunOf(run).next_consume; }

  /// Attempts to reserve `n` frames for an in-flight read into `run`.
  /// All-or-nothing; returns false (and reserves nothing) if fewer than `n`
  /// frames are free.
  bool TryReserve(int run, int64_t n);

  /// Releases `n` reserved frames of `run` without depositing (a planned
  /// read that was abandoned or shrunk).
  void CancelReservation(int run, int64_t n);

  /// A reserved frame of `run` receives block `offset` from disk. Fires the
  /// run's deposit signal so waiting processes can recheck. Inline along
  /// with ConsumeLeading: the pair runs once per block transferred, which is
  /// the per-block unit of work the whole simulation scales by.
  void Deposit(int run, int64_t offset) {
    RunSlot& slot = RunOf(run);
    EMSIM_CHECK(slot.reserved >= 1 && "Deposit without reservation");
    slot.reserved -= 1;
    reserved_total_ -= 1;
    EMSIM_CHECK(offset >= slot.next_consume && "Deposit of an already-consumed offset");
    slot.cached += 1;
    if (slot.begin == slot.end) {
      slot.begin = offset;  // An empty run: the block starts the extent.
      slot.end = offset + 1;
    } else if (offset == slot.end) {
      slot.end += 1;
      AbsorbFrames(slot);
    } else {
      PlaceOutOfOrder(slot, offset);
    }
    cached_total_ += 1;
    ++stats_.deposits;
    if (metric_deposits_ != nullptr) {
      metric_deposits_->Increment();
    }
    NoteOccupancy();
    slot.signal->Fire();
  }

  /// Consumes (depletes) the leading cached block of `run`, freeing its
  /// frame. Returns the consumed offset. Requires HasLeadingBlock(run).
  int64_t ConsumeLeading(int run) {
    RunSlot& slot = RunOf(run);
    EMSIM_CHECK(HasLeadingBlock(run));
    const int64_t offset = slot.begin++;
    slot.cached -= 1;
    if (slot.begin == slot.end && slot.beyond != kNoFrame) {
      // The extent is used up; the first block beyond the gap starts the
      // next one.
      slot.begin = frames_[slot.beyond].offset;
      slot.end = slot.begin;
      AbsorbFrames(slot);
    }
    slot.next_consume = offset + 1;
    cached_total_ -= 1;
    ++stats_.consumptions;
    NoteOccupancy();
    return offset;
  }

  /// Pulse signal fired on every deposit into `run`; processes waiting for
  /// a block of `run` wait on this and recheck HasLeadingBlock.
  sim::Signal& DepositSignal(int run) { return *RunOf(run).signal; }

  const CacheStats& stats() const { return stats_; }

  /// Time-averaged occupancy (cached blocks).
  double MeanOccupancy() const { return occupancy_.Average(); }

  /// Closes the occupancy statistic window.
  void FlushStats();

  /// Aborts if internal accounting is inconsistent (used by tests and
  /// DCHECK-style sweeps).
  void CheckInvariants() const;

 private:
  static constexpr uint32_t kNoFrame = std::numeric_limits<uint32_t>::max();

  /// A block cached beyond a gap in its run's offsets. `next` links the
  /// run's list of such frames, in ascending offset order, or the free list.
  struct Frame {
    int64_t offset = 0;
    uint32_t next = kNoFrame;
  };

  struct RunSlot {
    /// Leading extent: the smallest cached offset and the consecutive ones
    /// after it. Empty (begin == end) only when the run caches nothing.
    int64_t begin = 0;
    int64_t end = 0;
    uint32_t beyond = kNoFrame;  ///< First frame past the gap after `end`.
    int64_t cached = 0;          ///< Blocks in the extent and its frames.
    int64_t reserved = 0;        ///< In-flight frames.
    int64_t next_consume = 0;    ///< Next offset the merge will deplete.
    /// Engaged at construction. Held in place, as a Signal cannot move, so
    /// all k signals share the run slots' one allocation.
    std::optional<sim::Signal> signal;
  };

  /// Moves the frames that continue `slot`'s extent into it, freeing them.
  void AbsorbFrames(RunSlot& slot) {
    while (slot.beyond != kNoFrame && frames_[slot.beyond].offset == slot.end) {
      const uint32_t f = slot.beyond;
      slot.beyond = frames_[f].next;
      frames_[f].next = free_;
      free_ = f;
      slot.end += 1;
    }
  }

  /// A deposit that neither starts nor extends `slot`'s extent: either it
  /// lands beyond a gap, or below the extent.
  void PlaceOutOfOrder(RunSlot& slot, int64_t offset);

  /// A free frame holding `offset`, unlinked.
  uint32_t TakeFrame(int64_t offset);

  // Unchecked in release builds: run ids come from the planner, which is
  // constructed against the same num_runs.
  RunSlot& RunOf(int run) {
    EMSIM_DCHECK(run >= 0 && static_cast<size_t>(run) < runs_.size());
    return runs_[static_cast<size_t>(run)];
  }
  const RunSlot& RunOf(int run) const {
    EMSIM_DCHECK(run >= 0 && static_cast<size_t>(run) < runs_.size());
    return runs_[static_cast<size_t>(run)];
  }

  void NoteOccupancy() {
    occupancy_.Update(sim_->Now(), static_cast<double>(cached_total_));
    if (metric_occupancy_ != nullptr) {
      metric_occupancy_->Update(sim_->Now(), static_cast<double>(cached_total_));
    }
  }

  sim::Simulation* sim_;
  int64_t capacity_;
  int64_t cached_total_ = 0;
  int64_t reserved_total_ = 0;
  std::vector<RunSlot> runs_;
  /// Reserved to the frame budget at construction; grows into it, so a
  /// frame is only touched once a block needs it.
  std::vector<Frame> frames_;
  uint32_t free_ = kNoFrame;  ///< Head of the list of released frames.
  CacheStats stats_;
  stats::TimeWeighted occupancy_;

  // Optional registry mirrors (null unless Options.metrics was set).
  obs::Timeline* metric_occupancy_ = nullptr;
  obs::Counter* metric_deposits_ = nullptr;
  obs::Counter* metric_denied_ = nullptr;
};

}  // namespace emsim::cache

#endif  // EMSIM_CACHE_BLOCK_CACHE_H_

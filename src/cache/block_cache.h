#ifndef EMSIM_CACHE_BLOCK_CACHE_H_
#define EMSIM_CACHE_BLOCK_CACHE_H_

#include <cstddef>
#include <cstdint>
#include <memory>
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
/// Consumption is strictly in offset order per run (a merge depletes a
/// run's blocks sequentially). Deposits normally arrive in order too, but
/// SSTF scheduling can reorder requests, so out-of-order deposits are
/// accepted and buffered until the leading block arrives.
class BlockCache {
 public:
  struct Options {
    int64_t capacity_blocks = 25;
    int num_runs = 25;
    /// Optional metrics registry; wires the "cache.occupancy" timeline and
    /// the deposit/denied-admission counters.
    obs::MetricsRegistry* metrics = nullptr;
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
    return !slot.blocks.empty() && slot.blocks.front() == slot.next_consume;
  }

  /// Cached blocks held for `run`.
  int64_t CachedForRun(int run) const { return static_cast<int64_t>(RunOf(run).blocks.size()); }

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
    slot.blocks.Insert(offset);
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
    int64_t offset = slot.blocks.PopFront();
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
  /// A run's cached offsets, ascending, in a ring buffer whose capacity is
  /// a power of two. It grows by doubling and never shrinks, so a run that
  /// has reached its peak occupancy deposits and consumes without touching
  /// the heap.
  class OffsetRing {
   public:
    bool empty() const { return size_ == 0; }
    size_t size() const { return size_; }
    int64_t front() const { return buf_[head_]; }
    int64_t operator[](size_t i) const { return buf_[(head_ + i) & mask_]; }

    /// Inserts `offset`, which must not be present, preserving ascending
    /// order. Deposits are in order under FCFS, so the common case is an
    /// append; an SSTF-reordered one shifts the larger offsets back a slot.
    void Insert(int64_t offset) {
      if (size_ == buf_.size()) {
        Grow();
      }
      size_t i = size_;
      for (; i > 0 && (*this)[i - 1] > offset; --i) {
        buf_[(head_ + i) & mask_] = (*this)[i - 1];
      }
      EMSIM_CHECK(i == 0 || (*this)[i - 1] != offset);
      buf_[(head_ + i) & mask_] = offset;
      ++size_;
    }

    int64_t PopFront() {
      int64_t offset = buf_[head_];
      head_ = (head_ + 1) & mask_;
      --size_;
      return offset;
    }

   private:
    void Grow() {
      std::vector<int64_t> grown(buf_.empty() ? 8 : 2 * buf_.size());
      for (size_t i = 0; i < size_; ++i) {
        grown[i] = (*this)[i];
      }
      buf_.swap(grown);
      head_ = 0;
      mask_ = buf_.size() - 1;
    }

    std::vector<int64_t> buf_;
    size_t head_ = 0;
    size_t size_ = 0;
    size_t mask_ = 0;
  };

  struct RunSlot {
    OffsetRing blocks;         ///< Cached offsets, ascending.
    int64_t reserved = 0;      ///< In-flight frames.
    int64_t next_consume = 0;  ///< Next offset the merge will deplete.
    std::unique_ptr<sim::Signal> signal;
  };

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
  CacheStats stats_;
  stats::TimeWeighted occupancy_;

  // Optional registry mirrors (null unless Options.metrics was set).
  obs::Timeline* metric_occupancy_ = nullptr;
  obs::Counter* metric_deposits_ = nullptr;
  obs::Counter* metric_denied_ = nullptr;
};

}  // namespace emsim::cache

#endif  // EMSIM_CACHE_BLOCK_CACHE_H_

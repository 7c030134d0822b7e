#include "cache/block_cache.h"

#include <algorithm>
#include <cstddef>

#include "util/check.h"

namespace emsim::cache {

BlockCache::BlockCache(sim::Simulation* sim, const Options& options)
    : sim_(sim), capacity_(options.capacity_blocks) {
  EMSIM_CHECK(sim != nullptr);
  EMSIM_CHECK(options.capacity_blocks >= 1);
  EMSIM_CHECK(options.num_runs >= 1);
  EMSIM_CHECK(options.total_blocks >= 1);
  // Signals cannot move, so the slots are built in place rather than grown.
  runs_ = std::vector<RunSlot>(static_cast<size_t>(options.num_runs));
  for (auto& slot : runs_) {
    slot.signal.emplace(sim);
  }
  const int64_t frames = std::min(options.capacity_blocks, options.total_blocks);
  EMSIM_CHECK(frames < static_cast<int64_t>(kNoFrame) && "more frames than a 32-bit link can name");
  frames_.reserve(static_cast<size_t>(frames));
  if (options.metrics != nullptr) {
    metric_occupancy_ = &options.metrics->GetTimeline("cache.occupancy");
    metric_deposits_ = &options.metrics->GetCounter("cache.deposits");
    metric_denied_ = &options.metrics->GetCounter("cache.admission_denied");
  }
  occupancy_.Update(sim->Now(), 0.0);
  if (metric_occupancy_ != nullptr) {
    metric_occupancy_->Update(sim->Now(), 0.0);
  }
}

bool BlockCache::TryReserve(int run, int64_t n) {
  EMSIM_CHECK(n >= 0);
  if (n == 0) {
    return true;
  }
  if (FreeBlocks() < n) {
    ++stats_.reservations_denied;
    if (metric_denied_ != nullptr) {
      metric_denied_->Increment();
    }
    return false;
  }
  RunOf(run).reserved += n;
  reserved_total_ += n;
  ++stats_.reservations_granted;
  stats_.blocks_reserved += static_cast<uint64_t>(n);
  stats_.peak_occupancy = std::max(stats_.peak_occupancy, cached_total_ + reserved_total_);
  return true;
}

void BlockCache::CancelReservation(int run, int64_t n) {
  EMSIM_CHECK(n >= 0);
  RunSlot& slot = RunOf(run);
  EMSIM_CHECK(slot.reserved >= n);
  slot.reserved -= n;
  reserved_total_ -= n;
}

void BlockCache::FlushStats() { occupancy_.Flush(sim_->Now()); }

void BlockCache::PlaceOutOfOrder(RunSlot& slot, int64_t offset) {
  EMSIM_CHECK((offset < slot.begin || offset > slot.end) && "Deposit of a cached offset");
  if (offset > slot.end) {
    // Beyond the gap: link a frame in, scanning from the smallest offset.
    uint32_t* link = &slot.beyond;
    while (*link != kNoFrame && frames_[*link].offset < offset) {
      link = &frames_[*link].next;
    }
    EMSIM_CHECK((*link == kNoFrame || frames_[*link].offset != offset) &&
                "Deposit of a cached offset");
    const uint32_t f = TakeFrame(offset);
    frames_[f].next = *link;
    *link = f;
    return;
  }
  if (offset + 1 < slot.begin) {
    // A gap opens below the extent: its blocks move onto frames, largest
    // first so the list stays ascending, and the new block starts a fresh
    // extent.
    for (int64_t o = slot.end - 1; o >= slot.begin; --o) {
      const uint32_t f = TakeFrame(o);
      frames_[f].next = slot.beyond;
      slot.beyond = f;
    }
    slot.end = offset + 1;
  }
  slot.begin = offset;
}

uint32_t BlockCache::TakeFrame(int64_t offset) {
  uint32_t f = free_;
  if (f != kNoFrame) {
    free_ = frames_[f].next;
  } else {
    // A deposit holds a reservation, and cached plus reserved blocks never
    // exceed the capacity or the blocks there are, so the budget has room;
    // within the reserved capacity the vector does not reallocate.
    EMSIM_CHECK(frames_.size() < frames_.capacity());
    f = static_cast<uint32_t>(frames_.size());
    frames_.emplace_back();
  }
  frames_[f] = Frame{offset, kNoFrame};
  return f;
}

void BlockCache::CheckInvariants() const {
  // Every frame made so far is on exactly one list: a run's, or the free
  // list. Walks are bounded by the frame count, so a cycle fails a check
  // instead of spinning.
  const size_t num_frames = frames_.size();
  size_t linked = 0;
  int64_t cached = 0;
  int64_t reserved = 0;
  for (const auto& slot : runs_) {
    EMSIM_CHECK(slot.reserved >= 0);
    EMSIM_CHECK(slot.begin <= slot.end);
    int64_t length = slot.end - slot.begin;
    if (length == 0) {
      EMSIM_CHECK(slot.beyond == kNoFrame);
    } else {
      EMSIM_CHECK(slot.begin >= slot.next_consume);
    }
    // A frame continuing the extent would have been absorbed into it.
    int64_t last = slot.end;
    for (uint32_t f = slot.beyond; f != kNoFrame; f = frames_[f].next) {
      ++linked;
      EMSIM_CHECK(f < num_frames && linked <= num_frames);
      EMSIM_CHECK(frames_[f].offset > last);
      last = frames_[f].offset;
      ++length;
    }
    EMSIM_CHECK_EQ(length, slot.cached);
    cached += slot.cached;
    reserved += slot.reserved;
  }
  for (uint32_t f = free_; f != kNoFrame; f = frames_[f].next) {
    ++linked;
    EMSIM_CHECK(f < num_frames && linked <= num_frames);
  }
  EMSIM_CHECK_EQ(linked, num_frames);
  EMSIM_CHECK_EQ(cached, cached_total_);
  EMSIM_CHECK_EQ(reserved, reserved_total_);
  EMSIM_CHECK(cached_total_ + reserved_total_ <= capacity_);
}

}  // namespace emsim::cache

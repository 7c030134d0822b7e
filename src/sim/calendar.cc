#include "sim/calendar.h"

#include <algorithm>

namespace emsim::sim {

void CalendarQueue::FindMinSparse() {
  // Sparse calendar: every pending entry is more than a year ahead of the
  // cursor. Fall back to a direct search over bucket fronts on the real
  // (time, seq) keys and jump the cursor to the winner (Brown's "direct
  // search" case).
  const size_t nbuckets = num_buckets_;
  size_t best = SIZE_MAX;
  for (size_t b = 0; b < nbuckets; ++b) {
    if (buckets_[b].empty()) {
      continue;
    }
    if (best == SIZE_MAX || EarlierThan(buckets_[b].front(), buckets_[best].front())) {
      best = b;
    }
  }
  EMSIM_CHECK(best != SIZE_MAX);
  cur_virtual_ = VirtualBucket(buckets_[best].front().time);
  peek_bucket_ = best;
  peek_valid_ = true;
}

void CalendarQueue::DrainInOrder(std::vector<CalEntry>* out) {
  for (size_t b = 0; b < num_buckets_; ++b) {
    out->insert(out->end(), buckets_[b].begin(), buckets_[b].end());
    buckets_[b].clear();
  }
  std::sort(out->begin(), out->end(), EarlierThan);
  size_ = 0;
  cur_virtual_ = 0;
  peek_valid_ = false;
}

void CalendarQueue::Resize(size_t new_bucket_count) {
  // Collect into a recycled scratch buffer; clear() keeps every bucket's
  // capacity, and a shrink only lowers num_buckets_, so the buckets it drops
  // keep their storage for the next grow: once the structure has warmed up
  // to its peak size, a resize allocates nothing.
  // The full sort this used to do was the single most expensive part of
  // filling a calendar from cold — resizes need the pending set ordered only
  // far enough to estimate the width, which selection gives in O(n).
  std::vector<CalEntry>& pending = resize_scratch_;
  pending.clear();
  pending.reserve(size_);
  for (size_t b = 0; b < num_buckets_; ++b) {
    pending.insert(pending.end(), buckets_[b].begin(), buckets_[b].end());
    buckets_[b].clear();
  }

  // Adapt the width to 3x the average gap of the earliest ~25 entries (after
  // Brown): wide enough that a bucket holds a few events, narrow enough that
  // one year spans the active front. Only the sample needs ordering, so
  // select-then-sort-25 replaces sorting all of `pending`. Degenerate
  // samples (all-equal timestamps) keep the previous width — everything
  // collapses into one bucket, which the due-test handles correctly.
  const size_t sample = std::min<size_t>(pending.size(), kWidthSample);
  if (sample >= 2) {
    std::nth_element(pending.begin(), pending.begin() + static_cast<ptrdiff_t>(sample - 1),
                     pending.end(), EarlierThan);
    std::sort(pending.begin(), pending.begin() + static_cast<ptrdiff_t>(sample), EarlierThan);
    const double span = pending[sample - 1].time - pending[0].time;
    const double avg_gap = span / static_cast<double>(sample - 1);
    if (avg_gap > 1e-12) {
      SetWidth(3.0 * avg_gap);
    }
  }

  if (buckets_.size() < new_bucket_count) {
    buckets_.resize(new_bucket_count);
  }
  num_buckets_ = new_bucket_count;
  if (pending.empty()) {
    cur_virtual_ = 0;
  } else {
    // pending[0] is the global minimum (trivially for size 1, by the
    // selection above otherwise), so the cursor restarts exactly at the
    // earliest pending entry's bucket.
    cur_virtual_ = VirtualBucket(pending.front().time);
  }
  for (const CalEntry& entry : pending) {
    InsertSorted(buckets_[BucketIndex(VirtualBucket(entry.time))], entry);
  }
  peek_valid_ = false;
}

}  // namespace emsim::sim

#ifndef EMSIM_SIM_CALENDAR_H_
#define EMSIM_SIM_CALENDAR_H_

#include <cstddef>
#include <cstdint>
#include <vector>

#include "util/check.h"

namespace emsim::sim {

/// Simulated time in milliseconds (the paper's disk parameters are natural in
/// ms; nothing in the kernel depends on the unit).
using SimTime = double;

/// One calendar entry, 16 bytes so a 4-ary heap sift or a bucket insert moves
/// two words per hop instead of three. `payload` is a tagged slot index (see
/// Simulation): the low two bits select coroutine-handle / pooled-callback /
/// burst-group dispatch, the rest index the matching slot pool. Keeping the
/// payload an index (not a pointer) is also what lets the kernel drop its
/// pointer-cast determinism-lint suppression: nothing address-derived is ever
/// stored in an ordered structure.
struct CalEntry {
  SimTime time;
  uint32_t seq;      // FIFO tie-break for equal times.
  uint32_t payload;  // (slot << 2) | tag.
};
static_assert(sizeof(CalEntry) == 16, "calendar entries must stay 16 bytes");

/// Strict total order (seq is unique among pending entries), so the kernel's
/// heap and the calendar queue pop in exactly the same sequence: time-ordered,
/// FIFO within a tick.
/// Written with forced evaluation (`|`/`&`, not `||`/`&&`) so compilers emit
/// setcc/cmov instead of branches: inside heap sifts and bucket scans the
/// outcome is data-dependent and unpredictable, and mispredictions were the
/// dominant cost of the sift loops when this was measured.
inline bool EarlierThan(const CalEntry& a, const CalEntry& b) {
  return (a.time < b.time) | ((a.time == b.time) & (a.seq < b.seq));
}

/// Calendar queue after Brown (1988): a power-of-two array of time-bucketed,
/// sorted lists plus a cursor that sweeps one "year" (nbuckets * width) per
/// lap. With width adapted so each bucket holds O(1) events, Push and PopMin
/// are amortized O(1) versus the heap's O(log n) sift — the win grows with
/// calendar population. Simulation moves its pending entries here once the
/// calendar gets deep (see Simulation::kQueueSwitchDepth).
///
/// Determinism: an entry's bucket is derived from VirtualBucket(time), and
/// the due-test applies the *same* expression to the bucket front, so the FP
/// rounding of time/width can never disagree between insert and scan. Within
/// a bucket entries are kept sorted by EarlierThan, and the fallback search
/// (sparse calendars) compares real (time, seq) keys — the pop sequence is
/// identical to the kernel heap's for every input.
class CalendarQueue {
 public:
  CalendarQueue() { buckets_.resize(kMinBuckets); }

  bool empty() const { return size_ == 0; }
  size_t size() const { return size_; }

  // Push/PopMin/PeekMin are defined inline below the class: they are the
  // kernel's per-event hot path and must inline into Simulation's schedule
  // and dispatch functions (a cross-TU call per event measurably slows the
  // hold benchmark).
  void Push(CalEntry entry);

  /// The earliest pending entry; requires !empty(). May scan (result cached
  /// until the next Push/PopMin).
  const CalEntry& PeekMin();

  /// Removes and returns the earliest pending entry; requires !empty().
  CalEntry PopMin();

  /// Appends every pending entry to `out` in pop order and empties the queue
  /// (used by the kernel's seq renormalization).
  void DrainInOrder(std::vector<CalEntry>* out);

  /// Introspection for tests: current bucket-array size and bucket width.
  size_t NumBuckets() const { return buckets_.size(); }
  SimTime BucketWidth() const { return width_; }

 private:
  static constexpr size_t kMinBuckets = 4;
  // Largest virtual bucket index: below 2^53 so the double -> uint64 cast is
  // exact, and far above any simulated-time / width ratio a model reaches.
  // Times past the clamp all share one bucket, which is slow but correct
  // (the bucket stays sorted).
  static constexpr double kMaxVirtual = 9.0e15;
  // Entries examined when estimating the bucket width at a resize.
  static constexpr size_t kWidthSample = 25;

  /// Multiplying by the cached reciprocal is one rounding step away from
  /// dividing by width_, which is fine: the mapping only has to be monotone
  /// in `t` and self-consistent between insert and due-test (both call this
  /// function), not equal to exact division. A divide on every push and scan
  /// probe was the single most expensive instruction in the push path.
  uint64_t VirtualBucket(SimTime t) const {
    double q = t * inv_width_;
    if (q >= kMaxVirtual) {
      q = kMaxVirtual;
    }
    return static_cast<uint64_t>(q);
  }

  void SetWidth(SimTime width) {
    width_ = width;
    inv_width_ = 1.0 / width;
  }

  size_t BucketIndex(uint64_t virtual_bucket) const {
    return static_cast<size_t>(virtual_bucket & (buckets_.size() - 1));
  }

  /// Sorted insert (scan from the back: event traffic is mostly ascending in
  /// time, so the common case is an append).
  void InsertSorted(std::vector<CalEntry>& bucket, CalEntry entry);

  /// Locates the earliest entry, advancing the cursor; fills peek_bucket_.
  void FindMin();

  /// Direct search over bucket fronts when a whole year holds nothing due
  /// (sparse calendar) — the cold tail of FindMin, kept out of line.
  void FindMinSparse();

  /// Rebuilds with `new_bucket_count` buckets and a freshly estimated width.
  void Resize(size_t new_bucket_count);

  std::vector<std::vector<CalEntry>> buckets_;  // Power-of-two count.
  size_t size_ = 0;
  SimTime width_ = 1.0;
  SimTime inv_width_ = 1.0;  // Cached 1/width_ (see VirtualBucket).
  uint64_t cur_virtual_ = 0;  // Virtual bucket the cursor has reached.
  size_t peek_bucket_ = 0;
  bool peek_valid_ = false;
  std::vector<CalEntry> resize_scratch_;  // Recycled redistribution buffer.
};

inline void CalendarQueue::InsertSorted(std::vector<CalEntry>& bucket, CalEntry entry) {
  // First use of a bucket: reserve a few slots at once. Growing 1-2-4 per
  // bucket was the dominant allocation source when a calendar fills from
  // cold (hundreds of buckets, each paying 2-3 mallocs for its first few
  // entries); one 64-byte reservation covers the typical O(1) occupancy.
  // On overflow, quadruple instead of libstdc++'s doubling: the resize
  // hysteresis keeps steady-state load in [1/2, 4], so a bucket that
  // outgrows 4 is a transient hot spot — 4->16 absorbs it in one malloc
  // where 4->8->16 pays two and kept a measurable allocs/op residual in
  // the n=4096 hold model (~0.045/op from capacity creep).
  if (bucket.size() == bucket.capacity()) {
    bucket.reserve(bucket.capacity() == 0 ? 4 : 4 * bucket.capacity());
  }
  size_t i = bucket.size();
  bucket.push_back(entry);
  while (i > 0 && EarlierThan(entry, bucket[i - 1])) {
    bucket[i] = bucket[i - 1];
    --i;
  }
  bucket[i] = entry;
}

inline void CalendarQueue::Push(CalEntry entry) {
  uint64_t vb = VirtualBucket(entry.time);
  // An insert behind the cursor (same tick as the entry just popped, or a
  // deliberate rewind) pulls the cursor back so the scan cannot skip it.
  if (vb < cur_virtual_) {
    cur_virtual_ = vb;
  }
  InsertSorted(buckets_[BucketIndex(vb)], entry);
  ++size_;
  peek_valid_ = false;
  // Quadruple on growth at a load of 4: a filling calendar pays far fewer
  // redistribution passes than doubling at load 2, and the smaller bucket
  // array keeps the headers cache-resident (a few entries per sorted bucket
  // cost nearly nothing to scan, while a miss on the bucket header costs a
  // memory round-trip on every push). Post-growth load is ~1, centered in
  // the [1/2, 4] hysteresis band against the shrink rule in PopMin.
  if (size_ > 4 * buckets_.size()) {
    Resize(4 * buckets_.size());
  }
}

inline void CalendarQueue::FindMin() {
  if (peek_valid_) {
    return;
  }
  EMSIM_CHECK(size_ > 0);
  const size_t nbuckets = buckets_.size();
  // Sweep at most one year from the cursor. The first bucket whose front is
  // due (its virtual bucket equals the cursor position being examined) holds
  // the global minimum: no pending entry has a virtual bucket below the
  // cursor (Push rewinds it), earlier positions held nothing due, and the
  // bucket itself is sorted.
  for (size_t i = 0; i < nbuckets; ++i) {
    const uint64_t position = cur_virtual_ + i;
    const std::vector<CalEntry>& bucket = buckets_[BucketIndex(position)];
    if (!bucket.empty() && VirtualBucket(bucket.front().time) <= position) {
      cur_virtual_ = position;
      peek_bucket_ = BucketIndex(position);
      peek_valid_ = true;
      return;
    }
  }
  FindMinSparse();
}

inline const CalEntry& CalendarQueue::PeekMin() {
  FindMin();
  return buckets_[peek_bucket_].front();
}

inline CalEntry CalendarQueue::PopMin() {
  FindMin();
  std::vector<CalEntry>& bucket = buckets_[peek_bucket_];
  CalEntry entry = bucket.front();
  bucket.erase(bucket.begin());
  --size_;
  peek_valid_ = false;
  // Shrink at half load, halving: the load lands back at ~1, centered in
  // the [1/2, 4] hysteresis band against the grow rule in Push, so an
  // oscillating population cannot thrash grow/shrink.
  if (buckets_.size() > kMinBuckets && size_ < buckets_.size() / 2) {
    Resize(buckets_.size() / 2);
  }
  return entry;
}

}  // namespace emsim::sim

#endif  // EMSIM_SIM_CALENDAR_H_

#include "sim/simulation.h"

#include <algorithm>
#include <limits>

#include "sim/process.h"

namespace emsim::sim {

namespace {
constexpr size_t kHeapArity = 4;
}  // namespace

Simulation::~Simulation() {
  // Destroy frames of processes still blocked on synchronization objects.
  // Their final awaiter never ran, so they are not in the calendar and no
  // other owner exists. Frame-local destructors must not touch the kernel.
  // Frames parked in the handle pool or awaiting a tick series are live
  // processes too, so this sweep covers every pending coroutine as well.
  std::vector<LiveProcess> leftover;
  leftover.swap(live_);
  for (const LiveProcess& p : leftover) {
    p.handle.destroy();
  }
  // Callbacks still queued (e.g. after RunUntil stopped early) are destroyed
  // without being invoked.
  for (CallbackCell& cell : callback_pool_) {
    if (cell.invoke_and_destroy != nullptr && cell.destroy_only != nullptr) {
      cell.destroy_only(cell.storage);
    }
  }
}

void Simulation::Spawn(Process&& process) {
  auto handle = process.Release();
  EMSIM_CHECK(handle);
  Process::promise_type& promise = handle.promise();
  promise.sim = this;
  OnProcessCreated(handle, &promise.live_slot);
  ScheduleHandle(now_, handle);
}

uint32_t Simulation::AcquireCallbackSlot() {
  if (free_callback_slots_.empty()) {
    callback_pool_.emplace_back();
    return static_cast<uint32_t>(callback_pool_.size() - 1);
  }
  uint32_t slot = free_callback_slots_.back();
  free_callback_slots_.pop_back();
  return slot;
}

void Simulation::TickRing::Grow() {
  std::vector<TickHead> grown(2 * (mask_ + 1));
  for (size_t i = 0; i < size_; ++i) {
    grown[i] = (*this)[i];
  }
  spill_.swap(grown);
  buf_ = spill_.data();
  mask_ = spill_.size() - 1;
  head_ = 0;
}

bool Simulation::StartTicks(TickSeries* series, SimTime lead,
                            std::coroutine_handle<> handle) {
  EMSIM_CHECK(lead >= 0 && series->step_ >= 0 && series->count_ >= 1);
  series->handle_ = handle.address();
  series->next_ = lead > 0 ? -1 : 0;
  return !RunTicksFrom(series, now_ + (lead > 0 ? lead : series->step_));
}

bool Simulation::RunTicksFrom(TickSeries* series, SimTime at) {
  // Each AdvanceInline is the tick's pop: its time, its seq (drawn after the
  // previous callback, as a queued tick's would be) and its event count.
  while (AdvanceInline(at)) {
    if (series->next_ >= 0) {
      series->on_tick_(series, series->next_);
    }
    if (++series->next_ == series->count_) {
      return true;
    }
    at = now_ + series->step_;
  }
  ticks_.Insert(TickHead{at, NextSeq(), series});
  return false;
}

void Simulation::DispatchTick() {
  const TickHead tick = ticks_.front();
  ticks_.PopFront();
  now_ = tick.time;
  ++events_processed_;
  if (metric_calendar_depth_ != nullptr) {
    metric_calendar_depth_->Update(now_, static_cast<double>(CalendarDepth()));
    metric_ticks_->Increment();
  }
  TickSeries* series = tick.series;
  if (series->next_ >= 0) {
    series->on_tick_(series, series->next_);
  }
  if (++series->next_ == series->count_ || RunTicksFrom(series, now_ + series->step_)) {
    std::coroutine_handle<>::from_address(series->handle_).resume();
  }
}

void Simulation::RenormalizeSeqs() {
  // Sort the pending entries into pop order, renumber them and the pending
  // ticks 0..n-1 in their joint (time, seq) order. New pushes then continue
  // from n, so every future entry orders after every pending one — exactly
  // the pre-wrap contract. A sorted array is a valid min-heap, and the ring
  // keeps its order.
  std::sort(calendar_.begin(), calendar_.end(), EarlierThan);
  uint32_t next = 0;
  size_t t = 0;
  for (CalEntry& entry : calendar_) {
    while (t < ticks_.size() && KeyBefore(ticks_[t], entry)) {
      ticks_[t++].seq = next++;
    }
    entry.seq = next++;
  }
  while (t < ticks_.size()) {
    ticks_[t++].seq = next++;
  }
  next_seq_ = next;
}

void Simulation::HeapPush(CalEntry entry) {
  size_t i = calendar_.size();
  calendar_.push_back(entry);
  while (i > 0) {
    size_t parent = (i - 1) / kHeapArity;
    if (!EarlierThan(entry, calendar_[parent])) {
      break;
    }
    calendar_[i] = calendar_[parent];
    i = parent;
  }
  calendar_[i] = entry;
}

void Simulation::HeapPopRoot() {
  CalEntry last = calendar_.back();
  calendar_.pop_back();
  size_t n = calendar_.size();
  if (n == 0) {
    return;
  }
  // Bottom-up ("hole") deletion: sift the hole left by the root all the way
  // to a leaf, at each level moving up the earliest of the four children
  // (selected branchlessly — the three cmovs are cheaper than one
  // mispredicting `compare against last` branch per level), then bubble the
  // former last leaf up from there. The last leaf nearly always belongs near
  // the bottom, so the bubble-up loop exits after 0–2 iterations; the naive
  // top-down sift this replaced paid an extra unpredictable comparison at
  // every level and measured ~2x slower on the drain-the-calendar
  // microbenchmark.
  size_t i = 0;
  for (;;) {
    size_t first_child = i * kHeapArity + 1;
    if (first_child + (kHeapArity - 1) < n) {
      size_t b01 = EarlierThan(calendar_[first_child + 1], calendar_[first_child])
                       ? first_child + 1
                       : first_child;
      size_t b23 = EarlierThan(calendar_[first_child + 3], calendar_[first_child + 2])
                       ? first_child + 3
                       : first_child + 2;
      size_t best = EarlierThan(calendar_[b23], calendar_[b01]) ? b23 : b01;
      calendar_[i] = calendar_[best];
      i = best;
    } else if (first_child < n) {
      size_t best = first_child;
      for (size_t c = first_child + 1; c < n; ++c) {
        if (EarlierThan(calendar_[c], calendar_[best])) {
          best = c;
        }
      }
      calendar_[i] = calendar_[best];
      i = best;
    } else {
      break;
    }
  }
  while (i > 0) {
    size_t parent = (i - 1) / kHeapArity;
    if (!EarlierThan(last, calendar_[parent])) {
      break;
    }
    calendar_[i] = calendar_[parent];
    i = parent;
  }
  calendar_[i] = last;
}

bool Simulation::Step() {
  if (!ticks_.empty() && (calendar_.empty() || KeyBefore(ticks_.front(), calendar_.front()))) {
    DispatchTick();
    return true;
  }
  if (calendar_.empty()) {
    return false;
  }
  const CalEntry entry = calendar_.front();
  HeapPopRoot();
  now_ = entry.time;
  const uint32_t tag = entry.payload & kTagMask;
  const uint32_t slot = entry.payload >> kTagBits;
  ++events_processed_;
  if (metric_calendar_depth_ != nullptr) {
    metric_calendar_depth_->Update(now_, static_cast<double>(CalendarDepth()));
    (tag == kTagCallback ? metric_callbacks_ : metric_resumes_)->Increment();
  }
  if (tag == kTagCallback) {
    // Relocate the cell to a local and recycle the slot before invoking: the
    // body may schedule new callbacks (reusing this very slot, or growing the
    // pool vector), neither of which may disturb the callable mid-call.
    CallbackCell cell = callback_pool_[slot];
    callback_pool_[slot].invoke_and_destroy = nullptr;
    callback_pool_[slot].destroy_only = nullptr;
    free_callback_slots_.push_back(slot);
    if (cell.invoke_and_destroy != nullptr) {
      cell.invoke_and_destroy(cell.storage);
    }
  } else {
    void* address = handle_pool_[slot];
    handle_pool_[slot] = nullptr;
    free_handle_slots_.push_back(slot);
    std::coroutine_handle<>::from_address(address).resume();
  }
  return true;
}

void Simulation::AttachMetrics(obs::MetricsRegistry* metrics) {
  if (metrics == nullptr) {
    metric_resumes_ = nullptr;
    metric_callbacks_ = nullptr;
    metric_spawns_ = nullptr;
    metric_ticks_ = nullptr;
    metric_calendar_depth_ = nullptr;
    return;
  }
  metric_resumes_ = &metrics->GetCounter("sim.resumes");
  metric_callbacks_ = &metrics->GetCounter("sim.callbacks");
  metric_spawns_ = &metrics->GetCounter("sim.spawns");
  metric_ticks_ = &metrics->GetCounter("sim.ticks");
  metric_calendar_depth_ = &metrics->GetTimeline("sim.calendar_depth");
}

void Simulation::Run() {
  in_run_loop_ = true;
  run_deadline_ = std::numeric_limits<SimTime>::infinity();
  while (Step()) {
  }
  in_run_loop_ = false;
}

bool Simulation::RunBounded(uint64_t max_events) {
  in_run_loop_ = true;
  run_deadline_ = std::numeric_limits<SimTime>::infinity();
  // Saturating cap: max_events of UINT64_MAX degenerates to Run().
  event_cap_ = events_processed_ <= UINT64_MAX - max_events ? events_processed_ + max_events
                                                            : UINT64_MAX;
  while (events_processed_ < event_cap_ && Step()) {
  }
  const bool drained = CalendarEmpty();
  event_cap_ = UINT64_MAX;
  in_run_loop_ = false;
  return drained;
}

void Simulation::RunUntil(SimTime deadline) {
  in_run_loop_ = true;
  run_deadline_ = deadline;
  while (!CalendarEmpty() && CalMinTime() <= deadline) {
    Step();
  }
  in_run_loop_ = false;
  if (now_ < deadline) {
    now_ = deadline;
  }
}

}  // namespace emsim::sim

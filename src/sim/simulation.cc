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
  // Frames parked in the handle pool or in burst cells are live processes
  // too, so this sweep covers every pending coroutine entry as well.
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

uint32_t Simulation::AcquireBurstSlot() {
  if (free_burst_slots_.empty()) {
    burst_pool_.emplace_back();
    return static_cast<uint32_t>(burst_pool_.size() - 1);
  }
  uint32_t slot = free_burst_slots_.back();
  free_burst_slots_.pop_back();
  return slot;
}

void Simulation::RenormalizeSeqs() {
  // Gather the pending entries in pop order, renumber 0..n-1 (preserving
  // their relative order), and reinstall. New pushes then continue from n,
  // so every future entry orders after every pending one — exactly the
  // pre-wrap contract. A sorted array is a valid min-heap, so the heap
  // reinstalls with a plain move.
  std::vector<CalEntry> pending;
  if (on_queue_) {
    cq_.DrainInOrder(&pending);
  } else {
    pending.swap(calendar_);
    std::sort(pending.begin(), pending.end(), EarlierThan);
  }
  for (size_t i = 0; i < pending.size(); ++i) {
    pending[i].seq = static_cast<uint32_t>(i);
  }
  next_seq_ = static_cast<uint32_t>(pending.size());
  if (on_queue_) {
    for (const CalEntry& entry : pending) {
      cq_.Push(entry);
    }
  } else {
    calendar_ = std::move(pending);
  }
}

void Simulation::HeapPush(CalEntry entry) {
  size_t i = calendar_.size();
  if (i >= kQueueSwitchDepth) {
    for (const CalEntry& pending : calendar_) {
      cq_.Push(pending);
    }
    calendar_.clear();
    on_queue_ = true;
    cq_.Push(entry);
    return;
  }
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

void Simulation::DispatchBurst(uint32_t slot) {
  // Move the group to a local: a resumed member may schedule a fresh burst
  // (growing or reusing the pool), and neither may disturb the one being
  // dispatched. The slot itself stays out of the free list until the loop
  // finishes, then gets its (cleared) capacity back for reuse.
  std::vector<void*> group = std::move(burst_pool_[slot]);
  const size_t n = group.size();
  for (size_t i = 0; i < n; ++i) {
    // While members remain, the lone-runner fast path must stay off: the
    // calendar may be empty, but simulated time is not allowed to advance
    // past the members still owed a resume at now_.
    in_burst_dispatch_ = i + 1 < n;
    ++events_processed_;
    if (metric_resumes_ != nullptr) {
      metric_resumes_->Increment();
    }
    std::coroutine_handle<>::from_address(group[i]).resume();
  }
  in_burst_dispatch_ = false;
  group.clear();
  burst_pool_[slot] = std::move(group);
  free_burst_slots_.push_back(slot);
}

bool Simulation::Step() {
  CalEntry entry;
  if (!on_queue_) {
    if (calendar_.empty()) {
      return false;
    }
    entry = calendar_.front();
    HeapPopRoot();
  } else {
    if (cq_.empty()) {
      return false;
    }
    entry = cq_.PopMin();
  }
  now_ = entry.time;
  const uint32_t tag = entry.payload & kTagMask;
  const uint32_t slot = entry.payload >> kTagBits;
  if (tag == kTagBurst) {
    // Burst groups count one processed event per member (inside the
    // dispatch loop), keeping events_processed() byte-identical with the
    // unbatched path.
    DispatchBurst(slot);
    return true;
  }
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
    metric_calendar_depth_ = nullptr;
    return;
  }
  metric_resumes_ = &metrics->GetCounter("sim.resumes");
  metric_callbacks_ = &metrics->GetCounter("sim.callbacks");
  metric_spawns_ = &metrics->GetCounter("sim.spawns");
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

#ifndef EMSIM_SIM_SIMULATION_H_
#define EMSIM_SIM_SIMULATION_H_

#include <coroutine>
#include <cstdint>
#include <cstring>
#include <new>
#include <type_traits>
#include <utility>
#include <vector>

#include "obs/metrics.h"
#include "sim/calendar.h"
#include "util/check.h"

namespace emsim::sim {

class Process;

/// Process-oriented discrete-event simulation kernel — the library's
/// replacement for Rice CSIM, which the paper used. Model code is written as
/// C++20 coroutines (`Process` functions) that `co_await` delays and
/// synchronization primitives; the kernel owns the event calendar and resumes
/// coroutines in nondecreasing time order with FIFO tie-breaking, which makes
/// every simulation fully deterministic for a given RNG seed.
///
/// Single-threaded by design: determinism and reproducibility outrank
/// parallel speed for a simulation that completes in milliseconds. (Whole
/// trials parallelize across Simulations; see core::RunSweep.)
///
/// Hot-path layout: the calendar orders 16-byte trivially copyable entries
/// (see CalEntry) whose payload is a tagged index into one of three recycled
/// slot pools — coroutine handles (the dominant case), pooled callbacks, or
/// same-timestamp burst groups. Those entries start in an indexed 4-ary
/// min-heap (sift moves two words per hop, children of a node share a cache
/// line); the first push that finds kQueueSwitchDepth entries pending moves
/// them into a Brown-1988 calendar queue (amortized O(1) bucket ops; see
/// calendar.h), where they stay for the rest of the Simulation. Both
/// structures pop in the identical (time, seq) order, so the switch never
/// changes results, only speed.
class Simulation {
 public:
  /// Pending-entry count at which the calendar leaves the heap for the
  /// calendar queue, one way. Set from end-to-end perfbench runs
  /// (docs/PERFORMANCE.md): fetch-heavy and cache-bound-writes trials
  /// average 4.4 and 3.3 pending entries at a pop and never exceed 6, and
  /// forcing the queue on every trial cost fetch-heavy ~6 % and sweep-smoke
  /// ~9 % blocks/s; deep-prefetch pops at 8-11 pending and gained ~14 %
  /// blocks/s from this switch.
  static constexpr size_t kQueueSwitchDepth = 8;

  Simulation() = default;
  Simulation(const Simulation&) = delete;
  Simulation& operator=(const Simulation&) = delete;

  /// Current simulated time.
  SimTime Now() const { return now_; }

  /// Starts a process: the coroutine body begins executing at the current
  /// simulated time (processes start suspended). Ownership of the coroutine
  /// frame transfers to the kernel; the frame frees itself on completion.
  void Spawn(Process&& process);

  /// Schedules `handle` to be resumed at absolute time `at` (>= Now()). The
  /// handle parks in a recycled slot pool and the calendar entry carries only
  /// the slot index, so nothing address-derived ever enters the ordered
  /// structure.
  void ScheduleHandle(SimTime at, std::coroutine_handle<> handle) {
    EMSIM_CHECK(at >= now_);
    uint32_t slot = AcquireHandleSlot();
    handle_pool_[slot] = handle.address();
    CalPush(CalEntry{at, NextSeq(), (slot << kTagBits) | kTagHandle});
  }

  /// Schedules a batch of handles at one timestamp for the cost of a single
  /// calendar touch: the group parks in a pooled burst cell and one entry
  /// represents all of them. Dispatch resumes members in array order and
  /// counts one processed event per member, so results are byte-identical to
  /// scheduling them individually — the common case is D disk completions
  /// landing on the same tick at high prefetch depth. Falls back to
  /// individual scheduling for n <= 1 and while the calendar-depth timeline
  /// is attached (the timeline must record every push/pop).
  void ScheduleHandleBurst(SimTime at, const std::coroutine_handle<>* handles, size_t n) {
    if (n == 0) {
      return;
    }
    if (n == 1 || metric_calendar_depth_ != nullptr) {
      for (size_t i = 0; i < n; ++i) {
        ScheduleHandle(at, handles[i]);
      }
      return;
    }
    EMSIM_CHECK(at >= now_);
    uint32_t slot = AcquireBurstSlot();
    std::vector<void*>& group = burst_pool_[slot];
    for (size_t i = 0; i < n; ++i) {
      group.push_back(handles[i].address());
    }
    // One seq for the whole group: members would have received consecutive
    // seqs, and no entry pushed later can order between them, so collapsing
    // the range to its first value preserves the exact pop sequence.
    CalPush(CalEntry{at, NextSeq(), (slot << kTagBits) | kTagBurst});
  }

  /// Schedules a plain callback at absolute time `at`. The callable is
  /// constructed directly into a recycled pool cell (no std::function, no
  /// per-call allocation for small trivially copyable callables); the
  /// calendar entry itself stays slim and carries only the cell's slot id.
  template <typename F>
  void ScheduleCallback(SimTime at, F&& callback) {
    EMSIM_CHECK(at >= now_);
    uint32_t slot = AcquireCallbackSlot();
    callback_pool_[slot].Emplace(std::forward<F>(callback));
    CalPush(CalEntry{at, NextSeq(), (slot << kTagBits) | kTagCallback});
  }

  /// Lone-runner fast path used by awaiters (see Delay::await_suspend): when
  /// the calendar is empty inside Run/RunUntil, an event scheduled now would
  /// be the next one dispatched, so the kernel can advance time in place and
  /// let the caller keep running. Replays the pop's exact observable effects
  /// (now_, one seq number, events_processed_) so results stay byte-identical
  /// with the scheduled path. Declined outside the run loop (direct Step()
  /// callers see one event per call), past a RunUntil deadline, while burst
  /// members are still being dispatched (they run at the current time, so
  /// time must not move), or while metrics are attached (the calendar-depth
  /// timeline must record the push/pop it would otherwise miss).
  bool AdvanceInline(SimTime at) {
    if (!in_run_loop_ || in_burst_dispatch_ || !CalendarEmpty() || at > run_deadline_ ||
        metric_calendar_depth_ != nullptr || events_processed_ >= event_cap_) {
      return false;
    }
    EMSIM_CHECK(at >= now_);
    now_ = at;
    (void)NextSeq();
    ++events_processed_;
    return true;
  }

  /// Executes the single next event. Returns false if the calendar is empty.
  /// A burst entry dispatches (and counts) every member before returning.
  bool Step();

  /// Runs until the calendar is empty. If live processes remain blocked on
  /// synchronization objects afterwards, the model deadlocked; callers can
  /// inspect live_processes().
  void Run();

  /// Runs until the calendar is empty or simulated time would exceed
  /// `deadline`; events after the deadline stay queued.
  void RunUntil(SimTime deadline);

  /// Runs until the calendar is empty or `max_events` further events have
  /// executed, whichever comes first. Returns true when the calendar drained.
  /// Chunked callers (trial deadlines, wall-clock watchdogs) interleave
  /// bounded runs with their own checks; the pop sequence is byte-identical
  /// to one uninterrupted Run() because the cap also disables the
  /// AdvanceInline fast path once reached (a lone runner could otherwise
  /// spin past any bound inside a single Step()). A burst entry straddling
  /// the cap overshoots it by its remaining members — bursts are atomic.
  bool RunBounded(uint64_t max_events);

  /// Number of calendar events executed so far.
  uint64_t events_processed() const { return events_processed_; }

  /// Entries waiting in the calendar right now (a burst group counts as one).
  size_t CalendarDepth() const { return on_queue_ ? cq_.size() : calendar_.size(); }

  /// True once the calendar has moved from the heap to the calendar queue.
  bool on_calendar_queue() const { return on_queue_; }

  /// Callback slots currently owned by the pool (allocated high-water mark;
  /// introspection for tests and benches — slots are recycled, so this stays
  /// at the peak number of simultaneously scheduled callbacks).
  size_t CallbackPoolSize() const { return callback_pool_.size(); }

  /// Handle slots currently owned by the pool (same recycling contract).
  size_t HandlePoolSize() const { return handle_pool_.size(); }

  /// Wires kernel instrumentation into `metrics` ("sim.*" namespace):
  /// coroutine resumes vs plain callbacks dispatched, processes spawned,
  /// and the calendar-depth timeline. Pass nullptr to detach. When nothing
  /// is attached (the default) the kernel hot path pays one pointer test.
  void AttachMetrics(obs::MetricsRegistry* metrics);

  /// Number of spawned processes that have not finished.
  int live_processes() const { return static_cast<int>(live_.size()); }

  /// Internal: process lifetime accounting (called by Spawn / the Process
  /// promise). Live frames are tracked so that a Simulation destroyed while
  /// processes are still blocked (e.g. server loops) reclaims their frames.
  /// The promise's `live_slot` field stores the frame's index in the live
  /// table; swap-with-back removal keeps both directions O(1).
  void OnProcessCreated(std::coroutine_handle<> handle, uint32_t* slot) {
    *slot = static_cast<uint32_t>(live_.size());
    live_.push_back(LiveProcess{handle, slot});
    if (metric_spawns_ != nullptr) {
      metric_spawns_->Increment();
    }
  }
  void OnProcessFinished(uint32_t slot) {
    EMSIM_DCHECK(slot < live_.size());
    live_[slot] = live_.back();
    *live_[slot].slot = slot;
    live_.pop_back();
  }

  /// Test hook: plants the next FIFO sequence number so seq-wrap
  /// renormalization can be exercised without 2^32 real events.
  void SetNextSeqForTest(uint32_t next_seq) { next_seq_ = next_seq; }

  ~Simulation();

 private:
  // Payload tags (low kTagBits of CalEntry::payload).
  static constexpr uint32_t kTagBits = 2;
  static constexpr uint32_t kTagMask = (1u << kTagBits) - 1;
  static constexpr uint32_t kTagHandle = 0;
  static constexpr uint32_t kTagCallback = 1;
  static constexpr uint32_t kTagBurst = 2;

  struct LiveProcess {
    std::coroutine_handle<> handle;
    uint32_t* slot;  // Points at the owning promise's live_slot field.
  };

  /// A pooled one-shot callable. Small trivially copyable callables (every
  /// lambda capturing references, pointers or scalars) live inline in
  /// `storage`; anything else is boxed on the heap with the box pointer in
  /// `storage`. Inline callables are relocated by byte copy — legal exactly
  /// because they are trivially copyable — which lets Step() move the cell
  /// to a local before invoking, so a callback that schedules callbacks
  /// (growing/reusing the pool) can never invalidate the one running.
  struct CallbackCell {
    using TrampolineFn = void (*)(unsigned char* storage);
    TrampolineFn invoke_and_destroy = nullptr;  // Null when the cell is free.
    TrampolineFn destroy_only = nullptr;        // Null when destruction is a no-op.
    alignas(16) unsigned char storage[48];

    template <typename F>
    void Emplace(F&& callable) {
      using D = std::decay_t<F>;
      if constexpr (sizeof(D) <= sizeof(storage) && alignof(D) <= 16 &&
                    std::is_trivially_copyable_v<D>) {
        ::new (static_cast<void*>(storage)) D(std::forward<F>(callable));
        invoke_and_destroy = [](unsigned char* s) {
          D* fn = std::launder(reinterpret_cast<D*>(s));
          (*fn)();
          fn->~D();
        };
        if constexpr (!std::is_trivially_destructible_v<D>) {
          destroy_only = [](unsigned char* s) {
            std::launder(reinterpret_cast<D*>(s))->~D();
          };
        }
      } else {
        D* boxed = new D(std::forward<F>(callable));
        std::memcpy(storage, &boxed, sizeof(boxed));
        invoke_and_destroy = [](unsigned char* s) {
          D* fn;
          std::memcpy(&fn, s, sizeof(fn));
          (*fn)();
          delete fn;
        };
        destroy_only = [](unsigned char* s) {
          D* fn;
          std::memcpy(&fn, s, sizeof(fn));
          delete fn;
        };
      }
    }
  };

  /// Hands out the next FIFO sequence number. seq is 32-bit so a calendar
  /// entry stays 16 bytes; on the (rare) wrap the pending entries — already a
  /// tiny set relative to 2^32 — are renumbered 0..n-1 in pop order, which
  /// preserves their relative order and every future ordering.
  uint32_t NextSeq() {
    if (next_seq_ == UINT32_MAX) [[unlikely]] {
      RenormalizeSeqs();
    }
    return next_seq_++;
  }
  void RenormalizeSeqs();

  bool CalendarEmpty() const { return on_queue_ ? cq_.empty() : calendar_.empty(); }
  void CalPush(CalEntry entry) {
    if (on_queue_) {
      cq_.Push(entry);
    } else {
      HeapPush(entry);
    }
  }
  /// Earliest pending time; requires a non-empty calendar.
  SimTime CalMinTime() { return on_queue_ ? cq_.PeekMin().time : calendar_.front().time; }

  /// Pushes onto the heap, or, when kQueueSwitchDepth entries are already
  /// pending, moves them all into the calendar queue for good and pushes
  /// there. Out of line, so each inlined CalPush stays one flag test.
  void HeapPush(CalEntry entry);
  void HeapPopRoot();
  uint32_t AcquireCallbackSlot();
  uint32_t AcquireHandleSlot() {
    if (free_handle_slots_.empty()) {
      handle_pool_.push_back(nullptr);
      return static_cast<uint32_t>(handle_pool_.size() - 1);
    }
    uint32_t slot = free_handle_slots_.back();
    free_handle_slots_.pop_back();
    return slot;
  }
  uint32_t AcquireBurstSlot();
  void DispatchBurst(uint32_t slot);

  SimTime now_ = 0.0;
  uint32_t next_seq_ = 0;
  uint64_t events_processed_ = 0;
  uint64_t event_cap_ = UINT64_MAX;  // Valid only while in_run_loop_ is true.
  bool in_run_loop_ = false;
  bool in_burst_dispatch_ = false;
  SimTime run_deadline_ = 0.0;  // Valid only while in_run_loop_ is true.
  std::vector<LiveProcess> live_;
  bool on_queue_ = false;           // Set once, by HeapPush.
  std::vector<CalEntry> calendar_;  // 4-ary min-heap while !on_queue_.
  CalendarQueue cq_;                // Every pending entry once on_queue_.

  // Slot pools. Ids recycle through free lists so steady-state traffic
  // reuses the same cells; the pools grow to the peak number of
  // simultaneously pending entries of each kind and never shrink.
  std::vector<void*> handle_pool_;  // Parked coroutine frame addresses.
  std::vector<uint32_t> free_handle_slots_;
  std::vector<CallbackCell> callback_pool_;
  std::vector<uint32_t> free_callback_slots_;
  std::vector<std::vector<void*>> burst_pool_;  // Parked same-tick groups.
  std::vector<uint32_t> free_burst_slots_;

  // Instrumentation (all null unless AttachMetrics was called).
  obs::Counter* metric_resumes_ = nullptr;
  obs::Counter* metric_callbacks_ = nullptr;
  obs::Counter* metric_spawns_ = nullptr;
  obs::Timeline* metric_calendar_depth_ = nullptr;
};

}  // namespace emsim::sim

#endif  // EMSIM_SIM_SIMULATION_H_

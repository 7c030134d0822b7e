#ifndef EMSIM_SIM_SIMULATION_H_
#define EMSIM_SIM_SIMULATION_H_

#include <algorithm>
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

/// Kernel side of a tick series: "`count` steps of `step`", each step ending
/// in a callback, after which the awaiting process resumes (see sim::Ticks,
/// the awaitable built on it). The series lives in the awaiter, and so in the
/// suspended coroutine's frame; the kernel keeps only its next tick's
/// (time, seq) key and a pointer back to it.
class TickSeries {
 protected:
  using TickFn = void (*)(TickSeries* series, int i);
  TickSeries(SimTime step, int count, TickFn on_tick)
      : on_tick_(on_tick), step_(step), count_(count) {}

 private:
  friend class Simulation;
  TickFn on_tick_;
  void* handle_ = nullptr;  // Frame address of the awaiting coroutine.
  SimTime step_;
  int count_;
  int next_ = 0;  // Index of the pending tick; -1 while the lead is pending.
};

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
/// Hot-path layout: the calendar is a 4-ary min-heap (a sift moves two words
/// per hop, children of a node share a cache line) of 16-byte trivially
/// copyable entries (see CalEntry) whose payload is a tagged index into one of
/// two recycled slot pools — coroutine handles or pooled callbacks. Fault-free
/// merge trials pop with at most ~10 entries pending. A fault trial's retry
/// watchdogs keep up to a few hundred pending; end to end the heap runs those
/// trials as fast as a bucketed calendar queue did (docs/PERFORMANCE.md).
///
/// Beside the calendar, the heads of pending tick series (StartTicks) wait in
/// a small ring sorted by (time, seq). A disk request is one series of
/// per-block ticks, so the calendar sees one entry per request, not one per
/// block. Step() pops whichever of the calendar head and the ring head is
/// earlier; a tick is one processed event, and its key is the one a
/// `co_await Delay(step)` loop would have drawn, so ticks change speed, never
/// results.
class Simulation {
 public:
  /// Reserves the per-process tables and the heap for a paper geometry's
  /// dozen or so processes (D disk servers, the merge), all pending at once
  /// while they spawn, so a trial's setup allocates them once instead of
  /// growing them by doubling.
  Simulation() {
    calendar_.reserve(kReservedProcesses);
    live_.reserve(kReservedProcesses);
    handle_pool_.reserve(kReservedProcesses);
    free_handle_slots_.reserve(kReservedProcesses);
  }
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
    HeapPush(CalEntry{at, NextSeq(), (slot << kTagBits) | kTagHandle});
  }

  /// Starts `series` for the coroutine `handle`: a lead tick at Now() + lead
  /// when lead > 0, else tick 0 at Now() + step. Each tick counts one
  /// processed event; a block tick runs the series' callback, then draws
  /// the next tick's seq — after the callback, exactly where a
  /// `co_await Delay(step)` following it would draw — at the tick's time +
  /// step. The last tick resumes `handle` right after its callback, within
  /// the same event. While nothing else is pending, ticks run in place, as
  /// AdvanceInline does for a Delay; returns false when the whole series
  /// ran that way and `handle` must not suspend.
  bool StartTicks(TickSeries* series, SimTime lead, std::coroutine_handle<> handle);

  /// Schedules a plain callback at absolute time `at`. The callable is
  /// constructed directly into a recycled pool cell (no std::function, no
  /// per-call allocation for small trivially copyable callables); the
  /// calendar entry itself stays slim and carries only the cell's slot id.
  template <typename F>
  void ScheduleCallback(SimTime at, F&& callback) {
    EMSIM_CHECK(at >= now_);
    uint32_t slot = AcquireCallbackSlot();
    callback_pool_[slot].Emplace(std::forward<F>(callback));
    HeapPush(CalEntry{at, NextSeq(), (slot << kTagBits) | kTagCallback});
  }

  /// Lone-runner fast path used by awaiters (see Delay::await_suspend) and
  /// tick series (StartTicks, DispatchTick): when the calendar is empty
  /// inside Run/RunUntil, an event scheduled now would be the next one
  /// dispatched, so the kernel can advance time in place and let the caller
  /// keep running. Replays the pop's exact observable effects
  /// (now_, one seq number, events_processed_) so results stay byte-identical
  /// with the scheduled path. Declined outside the run loop (direct Step()
  /// callers see one event per call), while a tick is pending (it would be
  /// an event between), past a RunUntil deadline, or while metrics are
  /// attached (the calendar-depth timeline must record the push/pop it would
  /// otherwise miss).
  bool AdvanceInline(SimTime at) {
    if (!in_run_loop_ || !CalendarEmpty() || at > run_deadline_ ||
        metric_calendar_depth_ != nullptr || events_processed_ >= event_cap_) {
      return false;
    }
    EMSIM_CHECK(at >= now_);
    now_ = at;
    (void)NextSeq();
    ++events_processed_;
    return true;
  }

  /// Executes the single next event (a calendar entry or a tick). Returns
  /// false if nothing is pending.
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
  /// spin past any bound inside a single Step()).
  bool RunBounded(uint64_t max_events);

  /// Number of events (calendar entries and ticks) executed so far.
  uint64_t events_processed() const { return events_processed_; }

  /// Events pending right now: calendar entries plus tick-series heads.
  size_t CalendarDepth() const { return calendar_.size() + ticks_.size(); }

  /// Callback slots currently owned by the pool (allocated high-water mark;
  /// introspection for tests and benches — slots are recycled, so this stays
  /// at the peak number of simultaneously scheduled callbacks).
  size_t CallbackPoolSize() const { return callback_pool_.size(); }

  /// Handle slots currently owned by the pool (same recycling contract).
  size_t HandlePoolSize() const { return handle_pool_.size(); }

  /// Wires kernel instrumentation into `metrics` ("sim.*" namespace):
  /// calendar entries dispatched as coroutine resumes vs plain callbacks,
  /// ticks dispatched, processes spawned, and the pending-event timeline.
  /// Pass nullptr to detach. When nothing is attached (the default) the
  /// kernel hot path pays one pointer test.
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
  static constexpr size_t kReservedProcesses = 16;

  // Payload tags (low kTagBits of CalEntry::payload).
  static constexpr uint32_t kTagBits = 1;
  static constexpr uint32_t kTagMask = (1u << kTagBits) - 1;
  static constexpr uint32_t kTagHandle = 0;
  static constexpr uint32_t kTagCallback = 1;

  /// The pending tick of one series, keyed like a CalEntry.
  struct TickHead {
    SimTime time;
    uint32_t seq;
    TickSeries* series;
  };

  /// (time, seq) order across calendar entries and tick heads.
  template <typename A, typename B>
  static bool KeyBefore(const A& a, const B& b) {
    return (a.time < b.time) | ((a.time == b.time) & (a.seq < b.seq));
  }

  /// Pending tick heads in (time, seq) order, in a ring buffer held inline
  /// up to kInline heads (one per busy disk) and on the heap beyond. Every
  /// disk of a paper geometry shares one transfer time, so a re-inserted
  /// head nearly always belongs at the back; lead ticks and fail-slow disks
  /// take the back-to-front insertion scan.
  class TickRing {
   public:
    TickRing() = default;
    TickRing(const TickRing&) = delete;
    TickRing& operator=(const TickRing&) = delete;

    bool empty() const { return size_ == 0; }
    size_t size() const { return size_; }
    /// The i-th pending head in pop order.
    TickHead& operator[](size_t i) { return buf_[(head_ + i) & mask_]; }
    const TickHead& front() const { return buf_[head_]; }
    void PopFront() {
      head_ = (head_ + 1) & mask_;
      --size_;
    }
    void Insert(const TickHead& tick) {
      if (size_ > mask_) {
        Grow();
      }
      size_t i = size_;
      while (i > 0 && KeyBefore(tick, (*this)[i - 1])) {
        (*this)[i] = (*this)[i - 1];
        --i;
      }
      (*this)[i] = tick;
      ++size_;
    }

   private:
    static constexpr size_t kInline = 16;  // Power of two.
    void Grow();

    TickHead inline_[kInline];
    std::vector<TickHead> spill_;  // Storage once more than kInline are pending.
    TickHead* buf_ = inline_;
    size_t mask_ = kInline - 1;
    size_t head_ = 0;
    size_t size_ = 0;
  };

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

  /// No calendar entry and no tick pending.
  bool CalendarEmpty() const { return calendar_.empty() && ticks_.empty(); }
  /// Earliest pending time, entry or tick; requires !CalendarEmpty().
  SimTime CalMinTime() const {
    if (ticks_.empty()) {
      return calendar_.front().time;
    }
    return calendar_.empty() ? ticks_.front().time
                             : std::min(ticks_.front().time, calendar_.front().time);
  }
  /// Pops the ring head: one event, the series' callback, then its next tick
  /// or the awaiting coroutine's resume.
  void DispatchTick();
  /// Runs the series' tick `series->next_`, due at `at`, and those after it
  /// in place while AdvanceInline allows; queues the first one it does not
  /// run. Returns true once the series has run its last tick.
  bool RunTicksFrom(TickSeries* series, SimTime at);

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

  SimTime now_ = 0.0;
  uint32_t next_seq_ = 0;
  uint64_t events_processed_ = 0;
  uint64_t event_cap_ = UINT64_MAX;  // Valid only while in_run_loop_ is true.
  bool in_run_loop_ = false;
  SimTime run_deadline_ = 0.0;  // Valid only while in_run_loop_ is true.
  std::vector<LiveProcess> live_;
  std::vector<CalEntry> calendar_;  // 4-ary min-heap.
  TickRing ticks_;                  // Pending tick-series heads.

  // Slot pools. Ids recycle through free lists so steady-state traffic
  // reuses the same cells; the pools grow to the peak number of
  // simultaneously pending entries of each kind and never shrink.
  std::vector<void*> handle_pool_;  // Parked coroutine frame addresses.
  std::vector<uint32_t> free_handle_slots_;
  std::vector<CallbackCell> callback_pool_;
  std::vector<uint32_t> free_callback_slots_;

  // Instrumentation (all null unless AttachMetrics was called).
  obs::Counter* metric_resumes_ = nullptr;
  obs::Counter* metric_callbacks_ = nullptr;
  obs::Counter* metric_spawns_ = nullptr;
  obs::Counter* metric_ticks_ = nullptr;
  obs::Timeline* metric_calendar_depth_ = nullptr;
};

}  // namespace emsim::sim

#endif  // EMSIM_SIM_SIMULATION_H_

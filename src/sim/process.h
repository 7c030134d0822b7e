#ifndef EMSIM_SIM_PROCESS_H_
#define EMSIM_SIM_PROCESS_H_

#include <coroutine>
#include <cstddef>
#include <cstdint>
#include <utility>

#include "sim/calendar.h"
#include "sim/frame_pool.h"
#include "sim/simulation.h"
#include "util/check.h"

namespace emsim::sim {

/// A detached simulation process — the coroutine analogue of a CSIM process.
///
/// Usage:
///
///     Process Worker(Simulation& sim, Signal& work) {
///       co_await Delay(5.0);           // hold for 5 ms of simulated time
///       co_await work.Wait();          // block on a synchronization object
///     }
///     sim.Spawn(Worker(sim, work));
///
/// Processes are fire-and-forget: completion is communicated through
/// Signals, as in CSIM models. The coroutine frame is owned by the
/// kernel once spawned and frees itself at completion.
class Process {
 public:
  struct promise_type {
    Simulation* sim = nullptr;
    /// Index into the owning Simulation's live-process table; kept current
    /// by the kernel so finishing is O(1) instead of a linear scan.
    uint32_t live_slot = 0;

    /// Coroutine frames come from the thread-local FramePool slab allocator:
    /// steady-state spawn/finish cycles never touch the heap.
    static void* operator new(std::size_t bytes) { return FramePool::Allocate(bytes); }
    static void operator delete(void* ptr, std::size_t bytes) noexcept {
      FramePool::Deallocate(ptr, bytes);
    }

    Process get_return_object() {
      return Process(std::coroutine_handle<promise_type>::from_promise(*this));
    }
    std::suspend_always initial_suspend() noexcept { return {}; }

    struct FinalAwaiter {
      bool await_ready() noexcept { return false; }
      void await_suspend(std::coroutine_handle<promise_type> h) noexcept {
        promise_type& p = h.promise();
        if (p.sim != nullptr) {
          p.sim->OnProcessFinished(p.live_slot);
        }
        h.destroy();
      }
      void await_resume() noexcept {}
    };
    FinalAwaiter final_suspend() noexcept { return {}; }

    void return_void() {}
    void unhandled_exception() {
      // Simulation models are exception-free; escaping exceptions are bugs.
      EMSIM_CHECK(false && "exception escaped a sim::Process");
    }
  };

  Process(Process&& other) noexcept : handle_(std::exchange(other.handle_, nullptr)) {}
  Process& operator=(Process&& other) noexcept {
    if (this != &other) {
      DestroyIfOwned();
      handle_ = std::exchange(other.handle_, nullptr);
    }
    return *this;
  }
  Process(const Process&) = delete;
  Process& operator=(const Process&) = delete;

  ~Process() { DestroyIfOwned(); }

  /// Internal: used by Simulation::Spawn to take ownership.
  std::coroutine_handle<promise_type> Release() { return std::exchange(handle_, nullptr); }

 private:
  explicit Process(std::coroutine_handle<promise_type> handle) : handle_(handle) {}

  void DestroyIfOwned() {
    if (handle_) {
      handle_.destroy();
      handle_ = nullptr;
    }
  }

  std::coroutine_handle<promise_type> handle_;
};

/// Awaitable that suspends the current process for `dt` milliseconds of
/// simulated time (CSIM's `hold`). `dt` must be >= 0; a zero delay yields to
/// other events already scheduled at the current time.
class Delay {
 public:
  explicit Delay(SimTime dt) : dt_(dt) { EMSIM_CHECK(dt >= 0); }

  bool await_ready() const noexcept { return false; }
  bool await_suspend(std::coroutine_handle<Process::promise_type> h) {
    Simulation* sim = h.promise().sim;
    EMSIM_CHECK(sim != nullptr);
    SimTime at = sim->Now() + dt_;
    // Lone-runner fast path: if the calendar is empty inside Run/RunUntil,
    // this process is the only runnable entity, so the event the slow path
    // would push is by construction the very next one popped. AdvanceInline
    // performs exactly the pop's observable effects (time, seq, event count)
    // and we keep running without a suspend/resume round trip.
    if (sim->AdvanceInline(at)) {
      return false;
    }
    sim->ScheduleHandle(at, h);
    return true;
  }
  void await_resume() const noexcept {}

 private:
  SimTime dt_;
};

/// Awaitable that holds for `lead` (skipped when 0), then for `count` steps
/// of `step`, calling `on_tick(i)` as step i ends; the process resumes right
/// after `on_tick(count - 1)`. Event for event it is
///
///     if (lead > 0) co_await Delay(lead);
///     for (int i = 0; i < count; ++i) {
///       co_await Delay(step);
///       on_tick(i);
///     }
///
/// — same times, same (time, seq) keys, same event count — but the steps are
/// kernel ticks dispatched beside the event calendar (Simulation::StartTicks),
/// and the process suspends and resumes at most once for the whole series.
/// `on_tick` runs inside the kernel's dispatch, so it must not block; it may
/// schedule, spawn and fire signals. Requires lead >= 0, step >= 0 and
/// count >= 1. GCC 12 destroys a lambda temporary inside a co_await operand
/// once too often, so a callback whose captures have destructors must be
/// awaited as a named Ticks, not as `co_await Ticks(..., [x] {...})`.
template <typename F>
class Ticks : public TickSeries {
 public:
  Ticks(SimTime lead, SimTime step, int count, F on_tick)
      : TickSeries(step, count, &Invoke), lead_(lead), on_tick_(std::move(on_tick)) {}

  bool await_ready() const noexcept { return false; }
  bool await_suspend(std::coroutine_handle<Process::promise_type> h) {
    Simulation* sim = h.promise().sim;
    EMSIM_CHECK(sim != nullptr);
    return sim->StartTicks(this, lead_, h);
  }
  void await_resume() const noexcept {}

 private:
  static void Invoke(TickSeries* series, int i) { static_cast<Ticks*>(series)->on_tick_(i); }

  SimTime lead_;
  F on_tick_;
};

}  // namespace emsim::sim

#endif  // EMSIM_SIM_PROCESS_H_

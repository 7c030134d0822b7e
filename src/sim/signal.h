#ifndef EMSIM_SIM_SIGNAL_H_
#define EMSIM_SIM_SIGNAL_H_

#include <coroutine>
#include <cstddef>

#include "sim/process.h"
#include "sim/simulation.h"
#include "util/check.h"
#include "util/inline_vec.h"

namespace emsim::sim {

/// A pulse-style broadcast signal (condition variable without a lock): each
/// Fire() wakes the processes currently waiting; late arrivals wait for the
/// next pulse. Waiters must re-check their predicate in a loop:
///
///     while (!pred()) co_await signal.Wait();
class Signal {
 public:
  explicit Signal(Simulation* sim) : sim_(sim) { EMSIM_CHECK(sim != nullptr); }

  Signal(const Signal&) = delete;
  Signal& operator=(const Signal&) = delete;

  /// Wakes every currently-waiting process (scheduled at the current time).
  /// Inline empty fast path: producers fire once per deposited block, and
  /// most pulses find nobody waiting.
  void Fire() {
    if (waiters_.empty()) {
      return;
    }
    FireSlow();
  }

  /// Number of processes currently blocked on this signal.
  size_t NumWaiters() const { return waiters_.size(); }

  class Awaiter {
   public:
    explicit Awaiter(Signal* signal) : signal_(signal) {}
    bool await_ready() const noexcept { return false; }
    void await_suspend(std::coroutine_handle<Process::promise_type> h) {
      signal_->waiters_.push_back(h);
    }
    void await_resume() const noexcept {}

   private:
    Signal* signal_;
  };

  Awaiter Wait() { return Awaiter(this); }

 private:
  friend class Awaiter;
  void FireSlow();

  Simulation* sim_;
  InlineVec<std::coroutine_handle<>, 4> waiters_;
};

}  // namespace emsim::sim

#endif  // EMSIM_SIM_SIGNAL_H_

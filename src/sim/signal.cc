#include "sim/signal.h"

#include <utility>

namespace emsim::sim {

void Signal::FireSlow() {
  // Detach first: a resumed waiter may immediately re-wait on this signal,
  // and those re-waits belong to the *next* pulse.
  InlineVec<std::coroutine_handle<>, 4> woken(std::move(waiters_));
  for (std::coroutine_handle<> waiter : woken) {
    sim_->ScheduleHandle(sim_->Now(), waiter);
  }
}

}  // namespace emsim::sim

#ifndef EMSIM_SIM_CALENDAR_H_
#define EMSIM_SIM_CALENDAR_H_

#include <cstdint>

namespace emsim::sim {

/// Simulated time in milliseconds (the paper's disk parameters are natural in
/// ms; nothing in the kernel depends on the unit).
using SimTime = double;

/// One calendar entry, 16 bytes so a 4-ary heap sift moves two words per hop
/// instead of three. `payload` is a tagged slot index (see
/// Simulation): the low bit selects coroutine-handle or pooled-callback
/// dispatch, the rest index the matching slot pool. Keeping the
/// payload an index (not a pointer) is also what lets the kernel drop its
/// pointer-cast determinism-lint suppression: nothing address-derived is ever
/// stored in an ordered structure.
struct CalEntry {
  SimTime time;
  uint32_t seq;      // FIFO tie-break for equal times.
  uint32_t payload;  // (slot << 1) | tag.
};
static_assert(sizeof(CalEntry) == 16, "calendar entries must stay 16 bytes");

/// Strict total order (seq is unique among pending entries): time-ordered,
/// FIFO within a tick.
/// Written with forced evaluation (`|`/`&`, not `||`/`&&`) so compilers emit
/// setcc/cmov instead of branches: inside heap sifts the outcome is
/// data-dependent and unpredictable, and mispredictions were the dominant
/// cost of the sift loops when this was measured.
inline bool EarlierThan(const CalEntry& a, const CalEntry& b) {
  return (a.time < b.time) | ((a.time == b.time) & (a.seq < b.seq));
}

}  // namespace emsim::sim

#endif  // EMSIM_SIM_CALENDAR_H_

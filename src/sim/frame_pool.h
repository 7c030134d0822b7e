#ifndef EMSIM_SIM_FRAME_POOL_H_
#define EMSIM_SIM_FRAME_POOL_H_

#include <cstddef>
#include <cstdint>

namespace emsim::sim {

/// Thread-local slab allocator for coroutine frames (`Process::promise_type`
/// routes its `operator new/delete` here). A merge trial churns through
/// thousands of short-lived process frames of a handful of distinct sizes;
/// the pool turns each spawn into a free-list pop instead of a malloc.
///
/// Frames are bucketed into 64-byte size classes up to 1 KiB (every process
/// frame in the tree today is well under that); larger requests fall through
/// to the global heap. Freed frames go back on their class's free list, so
/// the working set is reserved once and reused for the rest of the thread's
/// lifetime — steady-state spawn/finish cycles do not touch the heap.
///
/// The pool is thread-local, which makes it both lock-free and safe under a
/// threaded RunTrials or RunSweep: a Simulation and every frame it owns live
/// and die on one thread, so allocation and deallocation always hit the same
/// pool.
class FramePool {
 public:
  /// Allocation counters for the calling thread's pool. `bytes_reserved` is
  /// the RSS proxy the reuse tests pin: it grows only when a new slab is
  /// carved, never on steady-state spawn/finish cycles.
  struct Stats {
    uint64_t pool_allocs = 0;      ///< Allocations served from a free list.
    uint64_t fallback_allocs = 0;  ///< Oversized requests sent to the heap.
    uint64_t slabs_allocated = 0;  ///< Slabs carved from the heap so far.
    uint64_t bytes_reserved = 0;   ///< Total bytes held in slabs.
    uint64_t live_frames = 0;      ///< Frames currently outstanding.
  };

  /// Returns a frame-aligned block of at least `bytes`. Never returns null
  /// (the fallback path throws std::bad_alloc like plain operator new).
  static void* Allocate(std::size_t bytes);

  /// Returns a block obtained from Allocate with the same size.
  static void Deallocate(void* ptr, std::size_t bytes) noexcept;

  /// Counters for the calling thread (benches and the reuse tests read
  /// these; the registry itself is not exported into results).
  static Stats ThreadStats();

  /// Zeroes the calling thread's counters; the pooled memory stays.
  static void ResetThreadStats();
};

}  // namespace emsim::sim

#endif  // EMSIM_SIM_FRAME_POOL_H_

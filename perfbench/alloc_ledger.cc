#include "alloc_ledger.h"

#include <atomic>
#include <cstddef>
#include <cstdlib>
#include <new>

namespace perfbench {
namespace {

constexpr int kLayers = static_cast<int>(Layer::kCount);
constexpr int kThreadRows = 64;

// One row of counters per thread. Only the owning thread writes its row
// (a relaxed load and store, no read-modify-write), so pool threads running
// trials side by side never contend on a counter's cache line.
struct alignas(64) Row {
  std::atomic<uint64_t> counts[kLayers];
};

Row g_rows[kThreadRows];
std::atomic<uint64_t> g_overflow[kLayers];  // Threads past kThreadRows share these.
std::atomic<int> g_next_row{0};
std::atomic<int> g_layer{0};
thread_local int t_row = -1;

void CountAllocation() {
  int row = t_row;
  if (row < 0) {
    row = g_next_row.fetch_add(1, std::memory_order_relaxed);
    t_row = row;
  }
  int layer = g_layer.load(std::memory_order_relaxed);
  if (row < kThreadRows) {
    std::atomic<uint64_t>& c = g_rows[row].counts[layer];
    c.store(c.load(std::memory_order_relaxed) + 1, std::memory_order_relaxed);
  } else {
    g_overflow[layer].fetch_add(1, std::memory_order_relaxed);
  }
}

}  // namespace

ScopedLayer::ScopedLayer(Layer layer)
    : previous_(static_cast<Layer>(
          g_layer.exchange(static_cast<int>(layer), std::memory_order_relaxed))) {}

ScopedLayer::~ScopedLayer() {
  g_layer.store(static_cast<int>(previous_), std::memory_order_relaxed);
}

uint64_t Allocs(Layer layer) {
  int index = static_cast<int>(layer);
  uint64_t total = g_overflow[index].load(std::memory_order_relaxed);
  for (const Row& row : g_rows) {
    total += row.counts[index].load(std::memory_order_relaxed);
  }
  return total;
}

}  // namespace perfbench

// Counting replacements for the global allocation functions, the same set
// bench/bench_kernel_micro.cc replaces, so allocs per block here and that
// bench's allocs_per_op count the same events. malloc keeps its libc
// definition.
#pragma GCC diagnostic ignored "-Wmismatched-new-delete"
void* operator new(std::size_t size) {
  perfbench::CountAllocation();
  if (void* p = std::malloc(size)) {
    return p;
  }
  throw std::bad_alloc();
}

void* operator new(std::size_t size, const std::nothrow_t&) noexcept {
  perfbench::CountAllocation();
  return std::malloc(size);
}

void operator delete(void* p) noexcept { std::free(p); }
void operator delete(void* p, std::size_t) noexcept { std::free(p); }
void operator delete(void* p, const std::nothrow_t&) noexcept { std::free(p); }

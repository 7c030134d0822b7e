#include "host_speed.h"

#include <algorithm>
#include <array>
#include <cstdint>
#include <functional>
#include <thread>
#include <vector>

#include "span_trace.h"

namespace perfbench {
namespace {

constexpr int kSerialProbeOps = 400'000;
// Longer, so one briefly descheduled thread does not dominate the reading.
constexpr int kParallelProbeOps = 800'000;
constexpr uint64_t kProbeSeed = 0x9E3779B97F4A7C15ull;
constexpr int kCalendarDepth = 32;

// Hold model over a binary min-heap: pop the earliest timestamp, push a
// replacement a pseudo-random delay later, and bump a data-dependent
// counter. Branchy, cache-resident work of the same kind a trial does.
uint64_t ProbeKernel(uint64_t seed, int ops) {
  std::array<double, kCalendarDepth> heap{};
  std::array<uint32_t, 256> counts{};
  uint64_t x = seed | 1;
  auto next = [&x] {
    x ^= x << 13;
    x ^= x >> 7;
    x ^= x << 17;
    return x;
  };
  for (int i = 0; i < kCalendarDepth; ++i) {
    heap[static_cast<size_t>(i)] = static_cast<double>(next() >> 40);
  }
  auto later = std::greater<double>();
  std::make_heap(heap.begin(), heap.end(), later);
  uint64_t checksum = 0;
  for (int i = 0; i < ops; ++i) {
    std::pop_heap(heap.begin(), heap.end(), later);
    const double now = heap.back();
    const uint64_t r = next();
    heap.back() = now + 0.5 + static_cast<double>(r >> 44) / 524288.0;
    std::push_heap(heap.begin(), heap.end(), later);
    uint32_t& c = counts[r & 255];
    c = (r & 256) != 0 ? c + 1 : c ^ static_cast<uint32_t>(r >> 32);
    checksum += c;
  }
  return checksum + static_cast<uint64_t>(heap.front());
}

// Keeps the probe's result observable so the loop is not optimized away.
volatile uint64_t g_sink = 0;

}  // namespace

double SerialProbeNsPerOp() {
  const int64_t start = NowNs();
  g_sink = g_sink + ProbeKernel(kProbeSeed, kSerialProbeOps);
  return static_cast<double>(NowNs() - start) / kSerialProbeOps;
}

double ParallelProbeNsPerOp(int threads) {
  std::vector<uint64_t> sums(static_cast<size_t>(threads), 0);
  std::vector<std::thread> workers;
  workers.reserve(static_cast<size_t>(threads));
  const int64_t start = NowNs();
  for (int t = 0; t < threads; ++t) {
    workers.emplace_back([&sums, t] {
      sums[static_cast<size_t>(t)] =
          ProbeKernel(kProbeSeed + static_cast<uint64_t>(t), kParallelProbeOps);
    });
  }
  for (std::thread& w : workers) {
    w.join();
  }
  const int64_t wall = NowNs() - start;
  for (uint64_t s : sums) {
    g_sink = g_sink + s;
  }
  return static_cast<double>(wall) / kParallelProbeOps;
}

}  // namespace perfbench

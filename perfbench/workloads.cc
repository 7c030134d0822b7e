#include "workloads.h"

#include <string>

namespace perfbench {
namespace {

// SplitMix64 finalizer: spreads the run seed over the unit seeds so that
// neighbouring --seed values share no trial seeds.
uint64_t Mix(uint64_t x) {
  x += 0x9E3779B97F4A7C15ull;
  x = (x ^ (x >> 30)) * 0xBF58476D1CE4E5B9ull;
  x = (x ^ (x >> 27)) * 0x94D049BB133111EBull;
  return x ^ (x >> 31);
}

// Unit seeds stay below 2^40 so they print as spec integers, and the
// trials of one unit (seed, seed+1, ...) never reach another unit's range.
std::string UnitSeed(uint64_t seed, int unit) {
  return std::to_string(1 + (Mix(seed * 64 + static_cast<uint64_t>(unit)) >> 24));
}

std::string Trials(int trials) { return "trials = " + std::to_string(trials) + "\n"; }

// fetch-heavy — k=25, D=5, All Disks One Run, unsynchronized, N=1: the
// BM_FullMergeTrial/1 geometry. Nearly every merged block runs dry and
// triggers a D-way fan-out fetch, so the prefetch planner, cache admission
// and disk-request plumbing (and their ~11.5 allocs/block) dominate the
// trial. An allocation-free fetch path should show here first.
std::string FetchHeavySpec(uint64_t seed, int trials) {
  return Trials(trials) +
         "[fetch-heavy]\n"
         "runs = 25\ndisks = 5\nblocks = 1000\nn = 1\n"
         "strategy = all-disks-one-run\nsync = unsync\n"
         "seed = " + UnitSeed(seed, 0) + "\n";
}

// deep-prefetch — k=50, D=10, All Disks One Run, unsynchronized, N=30,
// auto cache: the right end of Fig. 3.2 at the largest paper geometry.
// One fetch per ~N*D blocks, so the fetch path is nearly idle; per-block
// transfer delivery, the deepest event calendar of the paper workloads and
// same-tick completion bursts dominate. A fetch-path change should barely
// move it; a calendar or coroutine change should.
std::string DeepPrefetchSpec(uint64_t seed, int trials) {
  return Trials(trials) +
         "[deep-prefetch]\n"
         "runs = 50\ndisks = 10\nblocks = 1000\nn = 30\n"
         "strategy = all-disks-one-run\nsync = unsync\n"
         "seed = " + UnitSeed(seed, 0) + "\n";
}

// cache-bound-writes — k=50, D=5, N=10, unsynchronized, conservative
// admission, a 600-block cache and write-behind to the input disks. The
// cache cannot hold most prefetch wish lists (success ratio ~0.07 against
// ~1 with an ample cache), so admission degrades fetches to demand-only,
// and output write batches queue beside reads on the same disks. Same cache
// and disk layers as the two above, used differently: a gain for reads that
// costs writes or admission shows here.
std::string CacheBoundWritesSpec(uint64_t seed, int trials) {
  return Trials(trials) +
         "[cache-bound-writes]\n"
         "runs = 50\ndisks = 5\nblocks = 1000\nn = 10\ncache = 600\n"
         "strategy = all-disks-one-run\nsync = unsync\nadmission = conservative\n"
         "write_traffic = shared\n"
         "seed = " + UnitSeed(seed, 0) + "\n";
}

// sweep-smoke — the six regimes of tools/sweep/specs/paper_smoke.ini (seven
// units: the sync sweep has two depths), including the fault-injected point,
// at runs=10 and blocks=120 with many trials. Trials are tiny, so spec
// parsing, shard encode/seal, unseal/merge and JSON export take a large
// share of the wall time. The only workload on the fault/retry path.
std::string SweepSmokeSpec(uint64_t seed, int trials) {
  std::string s = Trials(trials) + "disks = 5\nblocks = 120\nruns = 10\n";
  s += "\n[smoke-baseline]\ndisks = 1\nstrategy = demand-run-only\nn = 1\n";
  s += "seed = " + UnitSeed(seed, 0) + "\n";
  s += "\n[smoke-intra-run]\nstrategy = demand-run-only\nn = 5\nsync = unsync\n";
  s += "seed = " + UnitSeed(seed, 1) + "\n";
  s += "\n[smoke-inter-run]\nstrategy = all-disks-one-run\nn = 5\nsync = unsync\n";
  s += "seed = " + UnitSeed(seed, 2) + "\n";
  s += "\n[smoke-sync-sweep]\nstrategy = all-disks-one-run\nn = 2, 5\nsync = sync\n";
  s += "seed = " + UnitSeed(seed, 3) + "\n";
  s += "\n[smoke-tight-cache]\nstrategy = all-disks-one-run\nn = 5\ncache = 120\n";
  s += "seed = " + UnitSeed(seed, 4) + "\n";
  s += "\n[smoke-faulty]\nfault_media_error_rate = 0.01\nfault_spike_rate = 0.02\n"
       "fault_spike_ms = 10\nstrategy = all-disks-one-run\nn = 5\n";
  s += "seed = " + UnitSeed(seed, 5) + "\n";
  return s;
}

}  // namespace

const std::vector<Workload>& Workloads() {
  static const std::vector<Workload> kWorkloads = {
      {"fetch-heavy", 100, 5, 0xb1cde10e8251eb6aull, &FetchHeavySpec},
      {"deep-prefetch", 100, 5, 0x0a3953e8a7552cfdull, &DeepPrefetchSpec},
      {"cache-bound-writes", 100, 5, 0x310b42806629fa98ull, &CacheBoundWritesSpec},
      {"sweep-smoke", 80, 7, 0xb43d4f2f3dd3e01dull, &SweepSmokeSpec},
  };
  return kWorkloads;
}

const Workload* FindWorkload(const std::string& name) {
  for (const Workload& w : Workloads()) {
    if (name == w.name) {
      return &w;
    }
  }
  return nullptr;
}

}  // namespace perfbench

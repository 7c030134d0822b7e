// End-to-end benchmark harness for emsim. Runs one named workload through
// the library's public API in a single process and prints, as the last line
// of stdout, one JSON object:
//
//   {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}
//
// Untraced runs (--trace 0) report the end-to-end metrics; traced runs
// (--trace 1) report the per-layer metrics. Layers are measured from
// outside, by timing and allocation-tagging each call the harness makes
// into them. A human-readable summary goes to stderr.
//
//   emsim_perfbench --workload <name> --seed <n> --seconds <s> --trace <0|1>
//                   [--trace-out <chrome-trace.json>]

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <functional>
#include <optional>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include "alloc_ledger.h"
#include "analysis/model_params.h"
#include "analysis/predictor.h"
#include "cache/block_cache.h"
#include "core/config.h"
#include "core/experiment.h"
#include "core/merge_simulator.h"
#include "core/result.h"
#include "core/result_json.h"
#include "disk/layout.h"
#include "disk/mechanism.h"
#include "host_speed.h"
#include "sim/simulation.h"
#include "span_trace.h"
#include "sweep/merge.h"
#include "sweep/shard.h"
#include "util/rng.h"
#include "util/thread_pool.h"
#include "workload/experiment_spec.h"
#include "workloads.h"

namespace perfbench {
namespace {

using emsim::core::ExperimentResult;
using emsim::core::MergeConfig;
using emsim::core::MergeResult;
using emsim::core::SweepGrid;
using emsim::core::SweepUnit;

// Set-up repeats: at least kMinSetups, more while they add up to less than
// kSetupSeconds, so sub-millisecond set-ups still give a steady median.
constexpr size_t kMinSetups = 9;
constexpr size_t kMaxSetups = 101;
constexpr double kSetupSeconds = 0.3;
// Host-time floor of a run: every task of the grid runs at least this many
// times serially, and the grid is swept at least this many times.
constexpr int kMinRepeats = 3;

// The end-to-end host times are reported at a fixed reference host speed.
// The host-speed probe (host_speed.h) runs next to every timed phase; each
// phase's time is scaled by reference / probe, the probe time being the
// mean of the probes that bracket the phase. On a shared host whose speed
// swings by up to ~1.8x from one second to the next this keeps a run's
// figures comparable with another's; the probe's code never changes, so a
// change to emsim still moves them in full. The references are typical
// probe readings on a 4-vCPU Xeon VM. The probe tracks frequency and core
// sharing; contention it does not feel (e.g. for a shared last-level cache)
// still shows, so the bounds stay wide.
constexpr double kReferenceSerialProbeNs = 22.0;
constexpr double kReferenceParallelProbeNs = 26.0;
constexpr int64_t kProbeIntervalNs = 100'000'000;  // Serial trial time between probes.

double HostScale(double reference, double probe_before, double probe_after) {
  return reference / (0.5 * (probe_before + probe_after));
}

struct Args {
  std::string workload;
  uint64_t seed = 1;
  double seconds = 10.0;
  bool trace = false;
  std::string trace_out;
};

bool ParseArgs(int argc, char** argv, Args* args) {
  for (int i = 1; i + 1 < argc; i += 2) {
    std::string key = argv[i];
    std::string value = argv[i + 1];
    if (key == "--workload") {
      args->workload = value;
    } else if (key == "--seed") {
      args->seed = std::strtoull(value.c_str(), nullptr, 10);
    } else if (key == "--seconds") {
      args->seconds = std::strtod(value.c_str(), nullptr);
    } else if (key == "--trace") {
      args->trace = value == "1";
    } else if (key == "--trace-out") {
      args->trace_out = value;
    } else {
      return false;
    }
  }
  return argc % 2 == 1 && !args->workload.empty() && args->seconds > 0;
}

/// Output checks. Every check is one attempted operation; a failed check is
/// a failed operation, so failed / attempted is the run's error rate.
class Checks {
 public:
  void Expect(bool ok, const std::string& what) {
    ++attempted_;
    if (!ok) {
      ++failed_;
      if (failed_ <= 10) {
        std::fprintf(stderr, "check failed: %s\n", what.c_str());
      }
    }
  }
  int64_t attempted() const { return attempted_; }
  int64_t failed() const { return failed_; }

 private:
  int64_t attempted_ = 0;
  int64_t failed_ = 0;
};

double Median(std::vector<double> v) {
  if (v.empty()) {
    return 0.0;
  }
  std::sort(v.begin(), v.end());
  size_t mid = v.size() / 2;
  return v.size() % 2 == 1 ? v[mid] : 0.5 * (v[mid - 1] + v[mid]);
}

/// Linear-interpolated quantile, q in [0, 1].
double Quantile(std::vector<double> v, double q) {
  if (v.empty()) {
    return 0.0;
  }
  std::sort(v.begin(), v.end());
  double pos = q * static_cast<double>(v.size() - 1);
  size_t lo = static_cast<size_t>(pos);
  size_t hi = std::min(lo + 1, v.size() - 1);
  return v[lo] + (pos - static_cast<double>(lo)) * (v[hi] - v[lo]);
}

/// Peak resident memory of this process image. Read from /proc rather than
/// getrusage, whose high-water mark survives execve and so would include
/// the launching process.
double PeakRssMb() {
  std::FILE* f = std::fopen("/proc/self/status", "r");
  if (f == nullptr) {
    return 0.0;
  }
  char line[256];
  double kib = 0.0;
  while (std::fgets(line, sizeof line, f) != nullptr) {
    if (std::sscanf(line, "VmHWM: %lf kB", &kib) == 1) {
      break;
    }
  }
  std::fclose(f);
  return kib / 1024.0;
}

/// Everything the workload needs before its first timed trial.
struct Setup {
  std::vector<SweepUnit> units;
  SweepGrid grid;
  std::vector<double> predicted_ms;  // analysis::Predict total per unit.
  double seconds = 0.0;
  double parse_ms = 0.0;
};

std::vector<SweepUnit> ParseUnits(const std::string& text, const std::string& source) {
  auto specs = emsim::workload::ParseExperimentSpec(text, source);
  if (!specs.ok()) {
    std::fprintf(stderr, "spec parse failed: %s\n", specs.status().ToString().c_str());
    return {};
  }
  return emsim::sweep::UnitsFromSpecs(*specs);
}

/// The paper's closed form for a unit's configuration: the scenario
/// ClassifyScenario picks, which is the asymptotic transfer bound where the
/// paper gives only a bound.
double PredictTotalMs(const MergeConfig& cfg) {
  emsim::disk::RunLayout layout(emsim::disk::RunLayout::Options{
      cfg.num_runs, cfg.num_disks, cfg.blocks_per_run, cfg.disk_params.geometry,
      cfg.placement, cfg.run_lengths});
  auto params = emsim::analysis::ModelParams::From(cfg.disk_params, layout);
  auto scenario = emsim::analysis::ClassifyScenario(
      cfg.strategy == emsim::core::Strategy::kAllDisksOneRun,
      cfg.sync == emsim::core::SyncMode::kSynchronized, cfg.num_disks, cfg.prefetch_depth);
  return emsim::analysis::Predict(params, scenario, cfg.prefetch_depth).total_ms;
}

std::optional<Setup> RunSetup(const Workload& w, uint64_t seed, int threads, Tracer& tracer,
                              Checks& checks) {
  Setup s;
  ScopedSpan span(tracer, "setup", Layer::kSetup);
  std::string text;
  {
    ScopedSpan gen(tracer, "workload.spec_generate", Layer::kSetup);
    text = w.spec(seed, w.trials);
  }
  {
    ScopedSpan parse(tracer, "workload.spec_parse", Layer::kSetup);
    s.units = ParseUnits(text, w.name);
    s.parse_ms = static_cast<double>(parse.Stop()) / 1e6;
  }
  checks.Expect(!s.units.empty(), "workload spec parses");
  if (s.units.empty()) {
    return std::nullopt;
  }
  {
    ScopedSpan grid(tracer, "core.grid", Layer::kSetup);
    s.grid = SweepGrid(s.units);
  }
  {
    ScopedSpan predict(tracer, "analysis.predict", Layer::kSetup);
    for (const SweepUnit& unit : s.units) {
      s.predicted_ms.push_back(PredictTotalMs(unit.config));
    }
  }
  {
    ScopedSpan pool(tracer, "util.pool_start", Layer::kSetup);
    emsim::ThreadPool::Instance().Run(threads, threads, [](int) {});
  }
  {
    // One warm-up trial per unit, so every regime's code paths are warm.
    ScopedSpan warm(tracer, "core.warmup_trials", Layer::kSetup);
    for (int u = 0; u < s.grid.num_units(); ++u) {
      MergeConfig cfg = s.grid.TaskConfig(s.grid.UnitBegin(u), {});
      auto r = emsim::core::SimulateMerge(cfg);
      checks.Expect(r.ok() && r->blocks_merged == cfg.TotalBlocks(), "warm-up trial merges");
    }
  }
  s.seconds = static_cast<double>(span.Stop()) / 1e9;
  return s;
}

/// Per-unit aggregates of grid-ordered task results, as a single process
/// would build them.
std::vector<ExperimentResult> Aggregate(const Setup& s, const std::vector<MergeResult>& results) {
  std::vector<ExperimentResult> out;
  for (int u = 0; u < s.grid.num_units(); ++u) {
    auto begin = results.begin() + s.grid.UnitBegin(u);
    auto end = begin + s.units[static_cast<size_t>(u)].trials;
    out.push_back(emsim::core::AggregateTrials(std::vector<MergeResult>(begin, end)));
  }
  return out;
}

std::string ExportJson(const Setup& s, const std::vector<ExperimentResult>& results) {
  std::vector<emsim::core::NamedExperiment> named;
  for (size_t u = 0; u < s.units.size(); ++u) {
    named.push_back({s.units[u].name, s.units[u].config, &results[u]});
  }
  return emsim::core::ExperimentSetToJson(named);
}

/// Exact bytes of every task result: the shard codec round-trips each
/// MergeResult field bit-for-bit.
std::string ResultBytes(const Setup& s, const std::vector<MergeResult>& results) {
  emsim::sweep::ShardArtifact artifact;
  artifact.shard_count = 1;
  artifact.total_tasks = s.grid.total_tasks();
  artifact.range = {0, s.grid.total_tasks()};
  artifact.spec_digest = emsim::sweep::SpecDigest(s.units);
  for (size_t t = 0; t < results.size(); ++t) {
    artifact.tasks.push_back({static_cast<int>(t), true, results[t], {}});
  }
  return emsim::sweep::EncodeShardArtifact(artifact);
}

/// One serial pass over the grid: every task through SimulateMerge on this
/// thread, in task order, each timed and allocation-counted on its own.
struct SerialPass {
  std::vector<MergeResult> results;
  std::vector<int64_t> task_ns;  // Host ns per task; -1 for a failed trial.
  std::vector<double> task_scale;  // Host-speed scale per task (see HostScale).
  std::vector<double> probe_ns;    // Serial probe readings taken during the pass.
  int64_t blocks = 0;
  int64_t ns = 0;
  double scaled_ns = 0.0;  // Sum of task_ns * task_scale.
  uint64_t allocs = 0;
};

SerialPass RunSerialPass(const Setup& s, bool traced, Tracer& tracer, Checks& checks) {
  SerialPass pass;
  const Layer layer = traced ? Layer::kTracedTrial : Layer::kTrial;
  const int total = s.grid.total_tasks();
  pass.results.reserve(static_cast<size_t>(total));
  pass.task_ns.reserve(static_cast<size_t>(total));
  pass.task_scale.reserve(static_cast<size_t>(total));
  double probe_before = SerialProbeNsPerOp();
  pass.probe_ns.push_back(probe_before);
  int64_t since_probe_ns = 0;
  const uint64_t allocs0 = Allocs(layer);
  for (int t = 0; t < total; ++t) {
    MergeConfig cfg = s.grid.TaskConfig(t, {});
    cfg.collect_metrics = traced;
    SweepGrid::Task task = s.grid.At(t);
    int64_t ns = 0;
    auto result = [&] {
      ScopedSpan span(tracer, traced ? "core.trial_traced" : "core.trial", layer, task.unit,
                      task.trial, cfg.seed);
      auto r = emsim::core::SimulateMerge(cfg);
      ns = span.Stop();
      return r;
    }();
    bool ok = result.ok() && result->blocks_merged == cfg.TotalBlocks();
    checks.Expect(ok, "trial merges TotalBlocks()");
    if (result.ok()) {
      pass.blocks += result->blocks_merged;
      pass.ns += ns;
      pass.task_ns.push_back(ns);
      pass.results.push_back(std::move(result).value());
    } else {
      pass.task_ns.push_back(-1);
      pass.results.emplace_back();
    }
    since_probe_ns += ns;
    if (since_probe_ns >= kProbeIntervalNs || t + 1 == total) {
      const double probe_after = SerialProbeNsPerOp();
      pass.probe_ns.push_back(probe_after);
      pass.task_scale.resize(static_cast<size_t>(t) + 1,
                             HostScale(kReferenceSerialProbeNs, probe_before, probe_after));
      probe_before = probe_after;
      since_probe_ns = 0;
    }
  }
  for (size_t t = 0; t < pass.task_ns.size(); ++t) {
    if (pass.task_ns[t] >= 0) {
      pass.scaled_ns += static_cast<double>(pass.task_ns[t]) * pass.task_scale[t];
    }
  }
  pass.allocs = Allocs(layer) - allocs0;
  return pass;
}

/// One sharded sweep of the grid: shards run on the worker pool, are sealed,
/// unsealed, merged and exported as JSON — what a user waits for to get a
/// figure.
struct ShardedPass {
  std::string json;
  double wall_s = 0.0;
  double scaled_wall_s = 0.0;  // At reference host speed (see HostScale).
  double run_shard_ms = 0.0;
  double encode_ms = 0.0;
  double merge_ms = 0.0;
  double export_ms = 0.0;
  size_t artifact_bytes = 0;
};

/// The shards run on the pool and are scaled by the parallel probe taken
/// around each of them; the codec, merge and export run on this thread and
/// are scaled by the serial probe taken around the whole pass. The probes'
/// own time is left out of the pass's wall time.
ShardedPass RunShardedPass(const Setup& s, int shards, int threads, Tracer& tracer,
                           Checks& checks, std::vector<double>* parallel_probe_ns) {
  ShardedPass pass;
  const double serial_before = SerialProbeNsPerOp();
  double parallel_before = ParallelProbeNsPerOp(threads);
  parallel_probe_ns->push_back(parallel_before);
  int64_t probe_ns = 0;
  double scaled_shard_s = 0.0;
  ScopedSpan span(tracer, "sweep.pass", Layer::kOther);
  std::vector<emsim::sweep::NamedArtifact> sealed;
  sealed.reserve(static_cast<size_t>(shards));
  for (int shard = 0; shard < shards; ++shard) {
    double shard_ms = 0.0;
    emsim::sweep::ShardArtifact artifact = [&] {
      ScopedSpan run(tracer, "sweep.run_shard", Layer::kRunShard, -1, shard);
      auto a = emsim::sweep::RunShard(s.grid, shard, shards, threads, {});
      shard_ms = static_cast<double>(run.Stop()) / 1e6;
      return a;
    }();
    const int64_t probe_start = NowNs();
    const double parallel_after = ParallelProbeNsPerOp(threads);
    probe_ns += NowNs() - probe_start;
    parallel_probe_ns->push_back(parallel_after);
    pass.run_shard_ms += shard_ms;
    scaled_shard_s += shard_ms / 1e3 *
                      HostScale(kReferenceParallelProbeNs, parallel_before, parallel_after);
    parallel_before = parallel_after;
    std::string text = [&] {
      ScopedSpan encode(tracer, "sweep.encode", Layer::kEncode, -1, shard);
      auto t = emsim::sweep::SealShardArtifact(emsim::sweep::EncodeShardArtifact(artifact));
      pass.encode_ms += static_cast<double>(encode.Stop()) / 1e6;
      return t;
    }();
    pass.artifact_bytes += text.size();
    sealed.push_back({"shard-" + std::to_string(shard), std::move(text)});
  }
  auto merged = [&] {
    ScopedSpan merge(tracer, "sweep.merge", Layer::kMerge);
    auto m = emsim::sweep::MergeShardArtifacts(s.units, sealed);
    pass.merge_ms = static_cast<double>(merge.Stop()) / 1e6;
    return m;
  }();
  checks.Expect(merged.ok(), "shard artifacts merge");
  if (merged.ok()) {
    ScopedSpan json(tracer, "core.export_json", Layer::kExport);
    pass.json = ExportJson(s, *merged);
    pass.export_ms = static_cast<double>(json.Stop()) / 1e6;
  }
  pass.wall_s = static_cast<double>(span.Stop() - probe_ns) / 1e9;
  const double rest_s = pass.wall_s - pass.run_shard_ms / 1e3;
  pass.scaled_wall_s =
      scaled_shard_s +
      rest_s * HostScale(kReferenceSerialProbeNs, serial_before, SerialProbeNsPerOp());
  return pass;
}

// Self-rescheduling callback for the calendar probe (the hold model): each
// call replaces itself at now + U[0.5, 2.5), keeping the calendar depth
// constant. Trivially copyable and small, so it rides inline in the pool.
struct HoldHop {
  emsim::sim::Simulation* sim;
  uint64_t state;

  void operator()() {
    uint64_t x = state;
    x ^= x << 13;
    x ^= x >> 7;
    x ^= x << 17;
    state = x;
    sim->ScheduleCallback(sim->Now() + 0.5 + static_cast<double>(x >> 44) / 524288.0, *this);
  }
};

struct Probe {
  double ns_per_op = 0.0;
  double allocs_per_op = 0.0;
};

/// sim::Simulation scheduling at a fixed calendar depth.
Probe ProbeSim(int depth, uint64_t seed, Tracer& tracer) {
  constexpr uint64_t kEvents = 2'000'000;
  emsim::sim::Simulation sim;
  emsim::Rng rng(seed);
  for (int i = 0; i < depth; ++i) {
    sim.ScheduleCallback(static_cast<double>(i) / depth, HoldHop{&sim, rng.Next64() | 1});
  }
  sim.RunBounded(static_cast<uint64_t>(8 * depth) + 10000);  // Warm the pools.
  const uint64_t allocs0 = Allocs(Layer::kProbeSim);
  ScopedSpan span(tracer, "probe.sim", Layer::kProbeSim);
  sim.RunBounded(kEvents);
  double ns = static_cast<double>(span.Stop());
  return {ns / kEvents, static_cast<double>(Allocs(Layer::kProbeSim) - allocs0) / kEvents};
}

/// disk::Mechanism::Access at a fixed request size, random start blocks.
Probe ProbeDisk(const MergeConfig& cfg, int nblocks, uint64_t seed, Tracer& tracer) {
  constexpr int kAccesses = 1'000'000;
  emsim::disk::Mechanism mech(cfg.disk_params);
  emsim::Rng rng(seed);
  const uint64_t span_blocks = static_cast<uint64_t>(
      std::max<int64_t>(1, cfg.TotalBlocks() / cfg.num_disks - nblocks));
  double sink = 0.0;
  const uint64_t allocs0 = Allocs(Layer::kProbeDisk);
  ScopedSpan span(tracer, "probe.disk", Layer::kProbeDisk);
  for (int i = 0; i < kAccesses; ++i) {
    auto start = static_cast<int64_t>(rng.UniformInt(span_blocks));
    sink += mech.Access(start, nblocks, rng).TotalMs();
  }
  double ns = static_cast<double>(span.Stop());
  std::fprintf(stderr, "disk probe: mean access %.4f ms\n", sink / kAccesses);
  return {ns / kAccesses,
          static_cast<double>(Allocs(Layer::kProbeDisk) - allocs0) / kAccesses};
}

/// cache::BlockCache reserve + deposit + consume of one block, at the
/// workload's k and cache size, with each run holding up to N blocks.
Probe ProbeCache(const MergeConfig& cfg, uint64_t seed, Tracer& tracer) {
  constexpr int kBlocks = 1'000'000;
  emsim::sim::Simulation sim;
  emsim::cache::BlockCache cache(
      &sim, {cfg.EffectiveCacheBlocks(), cfg.num_runs, /*metrics=*/nullptr});
  const int k = cfg.num_runs;
  const int64_t fill = std::min<int64_t>(cfg.prefetch_depth, (cache.capacity() - 1) / k);
  std::vector<int64_t> next(static_cast<size_t>(k), 0);
  for (int r = 0; r < k; ++r) {
    for (int64_t i = 0; i < fill; ++i) {
      cache.TryReserve(r, 1);
      cache.Deposit(r, next[static_cast<size_t>(r)]++);
    }
  }
  emsim::Rng rng(seed);
  int64_t sink = 0;
  const uint64_t allocs0 = Allocs(Layer::kProbeCache);
  ScopedSpan span(tracer, "probe.cache", Layer::kProbeCache);
  for (int i = 0; i < kBlocks; ++i) {
    int r = static_cast<int>(rng.UniformInt(static_cast<uint64_t>(k)));
    cache.TryReserve(r, 1);
    cache.Deposit(r, next[static_cast<size_t>(r)]++);
    sink += cache.ConsumeLeading(r);
  }
  double ns = static_cast<double>(span.Stop());
  std::fprintf(stderr, "cache probe: consumed offset sum %lld\n", static_cast<long long>(sink));
  return {ns / kBlocks, static_cast<double>(Allocs(Layer::kProbeCache) - allocs0) / kBlocks};
}

double SampleValue(const MergeResult& r, const char* name) {
  for (const auto& sample : r.metrics) {
    if (sample.name == name) {
      return sample.value;
    }
  }
  return 0.0;
}

/// Digest of the single-pass export of the workload's fixed golden grid.
uint64_t GoldenDigest(const Workload& w) {
  Setup s;
  s.units = ParseUnits(w.spec(kGoldenSeed, kGoldenTrials), w.name);
  if (s.units.empty()) {
    return 0;
  }
  s.grid = SweepGrid(s.units);
  auto outcome = emsim::core::RunSweepRange(s.grid, 0, s.grid.total_tasks(), 1);
  if (!outcome.ok()) {
    return 0;
  }
  return emsim::sweep::Fnv1aDigest(ExportJson(s, Aggregate(s, outcome.results)));
}

struct Metric {
  std::string name;
  double value;
  const char* unit;
};

void PrintResult(const Checks& checks, const std::vector<Metric>& metrics) {
  for (const Metric& m : metrics) {
    std::fprintf(stderr, "  %-40s %14.6g %s\n", m.name.c_str(), m.value, m.unit);
  }
  std::printf("{\"correct\": %s, \"attempted\": %lld, \"failed\": %lld, \"metrics\": {",
              checks.failed() == 0 ? "true" : "false",
              static_cast<long long>(checks.attempted()),
              static_cast<long long>(checks.failed()));
  for (size_t i = 0; i < metrics.size(); ++i) {
    std::printf("%s\"%s\": {\"value\": %.17g, \"unit\": \"%s\"}", i == 0 ? "" : ", ",
                metrics[i].name.c_str(), metrics[i].value, metrics[i].unit);
  }
  std::printf("}}\n");
  std::fflush(stdout);
}

int Main(int argc, char** argv) {
  Args args;
  if (!ParseArgs(argc, argv, &args)) {
    std::fprintf(stderr,
                 "usage: emsim_perfbench --workload <name> --seed <n> --seconds <s> "
                 "--trace <0|1> [--trace-out <file>]\n");
    return 2;
  }
  const Workload* w = FindWorkload(args.workload);
  if (w == nullptr) {
    std::fprintf(stderr, "unknown workload '%s'\n", args.workload.c_str());
    return 2;
  }
  const int threads = std::max(1, static_cast<int>(std::thread::hardware_concurrency()));
  Tracer tracer(args.trace);
  Checks checks;
  const int64_t run_start = NowNs();

  // Set-up, repeated so its median is steady; the last one's grid is used.
  std::optional<Setup> setup;
  std::vector<double> setup_s;
  std::vector<double> parse_ms;
  double setup_probe = SerialProbeNsPerOp();
  double setup_total_s = 0.0;
  while (setup_s.size() < kMinSetups ||
         (setup_total_s < kSetupSeconds && setup_s.size() < kMaxSetups)) {
    setup = RunSetup(*w, args.seed, threads, tracer, checks);
    if (!setup) {
      return 1;
    }
    const double probe_after = SerialProbeNsPerOp();
    setup_total_s += setup->seconds;
    setup_s.push_back(setup->seconds *
                      HostScale(kReferenceSerialProbeNs, setup_probe, probe_after));
    setup_probe = probe_after;
    parse_ms.push_back(setup->parse_ms);
  }
  const Setup& s = *setup;

  // Reference: the same grid in one serial RunSweepRange, aggregated and
  // exported in one process. Every later pass must reproduce its bytes.
  std::vector<MergeResult> reference;
  std::string reference_bytes;
  std::string reference_json;
  {
    ScopedLayer check(Layer::kCheck);
    auto outcome = emsim::core::RunSweepRange(s.grid, 0, s.grid.total_tasks(), 1);
    checks.Expect(outcome.ok(), "single-pass RunSweepRange succeeds");
    if (!outcome.ok()) {
      return 1;
    }
    reference = std::move(outcome.results);
    reference_bytes = ResultBytes(s, reference);
    reference_json = ExportJson(s, Aggregate(s, reference));
  }

  // Timed phase. A serial pass runs every task once on this thread; a sweep
  // runs the whole grid sharded on the pool. The two interleave, each taking
  // half of the host time, so slow spells of a shared host fall on both.
  // Each task's host time is the median of its host-speed-scaled repeats.
  const int total = s.grid.total_tasks();
  std::vector<std::vector<double>> task_scaled_ns(static_cast<size_t>(total));
  int64_t serial_blocks = 0;
  uint64_t trial_allocs = 0;
  std::vector<double> serial_pass_ms, aggregate_ms;
  std::vector<double> serial_scaled_ms, traced_scaled_ms;  // Trace overhead inputs.
  std::vector<double> sweep_wall_s, run_shard_ms, encode_ms, merge_ms, export_ms;
  size_t artifact_bytes = 0;
  std::vector<MergeResult> traced_results;
  std::vector<double> serial_probe_ns, parallel_probe_ns;
  int64_t serial_time_ns = 0;
  int64_t sweep_time_ns = 0;
  const int64_t deadline = NowNs() + static_cast<int64_t>(args.seconds * 1e9);
  const int64_t give_up = run_start + static_cast<int64_t>((3 * args.seconds + 30) * 1e9);
  while (NowNs() < deadline || serial_pass_ms.size() < kMinRepeats ||
         sweep_wall_s.size() < kMinRepeats) {
    if (NowNs() > give_up) {
      break;  // Too slow a host to reach the repeat floor; report what ran.
    }
    const int64_t turn_start = NowNs();
    if (sweep_time_ns < serial_time_ns) {
      ShardedPass sharded =
          RunShardedPass(s, w->shards, threads, tracer, checks, &parallel_probe_ns);
      sweep_wall_s.push_back(sharded.scaled_wall_s);
      run_shard_ms.push_back(sharded.run_shard_ms);
      encode_ms.push_back(sharded.encode_ms);
      merge_ms.push_back(sharded.merge_ms);
      export_ms.push_back(sharded.export_ms);
      artifact_bytes = sharded.artifact_bytes;
      checks.Expect(sharded.json == reference_json,
                    "sharded-then-merged export matches the single-pass export");
      sweep_time_ns += NowNs() - turn_start;
      continue;
    }

    SerialPass serial = RunSerialPass(s, /*traced=*/false, tracer, checks);
    for (size_t t = 0; t < task_scaled_ns.size(); ++t) {
      if (serial.task_ns[t] >= 0) {
        task_scaled_ns[t].push_back(static_cast<double>(serial.task_ns[t]) *
                                    serial.task_scale[t]);
      }
    }
    serial_blocks += serial.blocks;
    trial_allocs += serial.allocs;
    serial_probe_ns.insert(serial_probe_ns.end(), serial.probe_ns.begin(), serial.probe_ns.end());
    serial_pass_ms.push_back(static_cast<double>(serial.ns) / 1e6);
    serial_scaled_ms.push_back(serial.scaled_ns / 1e6);
    std::string serial_json;
    {
      std::vector<ExperimentResult> aggregated;
      {
        ScopedSpan aggregate(tracer, "core.aggregate", Layer::kAggregate);
        aggregated = Aggregate(s, serial.results);
        aggregate_ms.push_back(static_cast<double>(aggregate.Stop()) / 1e6);
      }
      ScopedSpan json(tracer, "core.export_json", Layer::kExport);
      serial_json = ExportJson(s, aggregated);
    }
    {
      ScopedLayer check(Layer::kCheck);
      checks.Expect(ResultBytes(s, serial.results) == reference_bytes,
                    "repeated seeds give identical MergeResult bytes");
      checks.Expect(serial_json == reference_json,
                    "serial export matches the single-pass export");
    }
    if (args.trace) {
      SerialPass traced = RunSerialPass(s, /*traced=*/true, tracer, checks);
      traced_scaled_ms.push_back(traced.scaled_ns / 1e6);
      ScopedLayer check(Layer::kCheck);
      std::vector<MergeResult> stripped = traced.results;
      for (MergeResult& r : stripped) {
        r.metrics.clear();
      }
      checks.Expect(ResultBytes(s, stripped) == reference_bytes,
                    "traced results match untraced apart from metrics");
      if (traced_results.empty()) {
        traced_results = std::move(traced.results);
      }
    }
    serial_time_ns += NowNs() - turn_start;
  }

  uint64_t golden = 0;
  {
    ScopedLayer check(Layer::kCheck);
    golden = GoldenDigest(*w);
  }
  std::fprintf(stderr, "%s seed=%llu: %zu serial passes, %zu sweeps; golden digest 0x%016llx\n",
               w->name, static_cast<unsigned long long>(args.seed), serial_pass_ms.size(),
               sweep_wall_s.size(), static_cast<unsigned long long>(golden));
  checks.Expect(golden == w->golden_digest, "simulated statistics match the golden digest");
  std::fprintf(stderr, "host probe: serial median %.4f ns/op, parallel median %.4f ns/op\n",
               Median(serial_probe_ns), Median(parallel_probe_ns));

  // Scaled host time per task, per merged block.
  std::vector<double> ns_per_block;
  double task_total_ns = 0;
  double pass_blocks = 0;
  for (size_t t = 0; t < task_scaled_ns.size(); ++t) {
    const double task_blocks = static_cast<double>(reference[t].blocks_merged);
    if (!task_scaled_ns[t].empty() && task_blocks > 0) {
      const double ns = Median(task_scaled_ns[t]);
      ns_per_block.push_back(ns / task_blocks);
      task_total_ns += ns;
      pass_blocks += task_blocks;
    }
  }

  std::vector<Metric> metrics;
  if (!args.trace) {
    metrics = {
        {"blocks_per_s", pass_blocks / (task_total_ns / 1e9), "blocks/s"},
        {"trial_ns_per_block_p50", Quantile(ns_per_block, 0.5), "ns"},
        {"trial_ns_per_block_p90", Quantile(ns_per_block, 0.9), "ns"},
        {"sweep_wall_s", Median(sweep_wall_s), "s"},
        {"allocs_per_block",
         static_cast<double>(trial_allocs) / static_cast<double>(serial_blocks), "count"},
        {"peak_rss_mb", PeakRssMb(), "MB"},
        {"setup_s", Median(setup_s), "s"},
    };
    PrintResult(checks, metrics);
    return 0;
  }

  // Per-layer metrics. Counts come from the reference results (untraced) and
  // the first traced pass (registry series); both repeat exactly per seed.
  double blocks = 0, sim_events = 0, stalls = 0, fetches = 0, full = 0, hits = 0;
  double requests = 0, blocks_read = 0, write_requests = 0, queue_wait_ms = 0;
  double busy_sum = 0, concurrency_sum = 0, occupancy_sum = 0;
  double retries = 0, timeouts = 0, media_errors = 0;
  for (int t = 0; t < s.grid.total_tasks(); ++t) {
    const MergeResult& r = reference[static_cast<size_t>(t)];
    const MergeConfig& cfg = s.units[static_cast<size_t>(s.grid.At(t).unit)].config;
    blocks += static_cast<double>(r.blocks_merged);
    sim_events += static_cast<double>(r.sim_events);
    stalls += static_cast<double>(r.demand_stalls);
    fetches += static_cast<double>(r.io_operations);
    full += static_cast<double>(r.full_admissions);
    hits += static_cast<double>(r.cache_hits);
    requests += static_cast<double>(r.disk_totals.requests);
    blocks_read += static_cast<double>(r.disk_totals.blocks_transferred);
    write_requests += static_cast<double>(r.write_requests);
    queue_wait_ms += r.disk_totals.queue_wait_ms;
    double busy = 0;
    for (const auto& d : r.per_disk) {
      busy += d.busy_fraction;
    }
    busy_sum += r.per_disk.empty() ? 0.0 : busy / static_cast<double>(r.per_disk.size());
    concurrency_sum += r.avg_concurrency;
    occupancy_sum += r.mean_cache_occupancy / static_cast<double>(cfg.EffectiveCacheBlocks());
    retries += static_cast<double>(r.fault.retries);
    timeouts += static_cast<double>(r.fault.timeouts);
    media_errors += static_cast<double>(r.fault.media_errors);
  }
  double resumes = 0, callbacks = 0, depth_sum = 0;
  for (const MergeResult& r : traced_results) {
    resumes += SampleValue(r, "sim.resumes");
    callbacks += SampleValue(r, "sim.callbacks");
    depth_sum += SampleValue(r, "sim.calendar_depth.avg");
  }
  const double trials = static_cast<double>(s.grid.total_tasks());
  const double calendar_depth = depth_sum / static_cast<double>(traced_results.size());
  const double blocks_per_request = blocks_read / std::max(1.0, requests);
  double model_error = 0;
  for (int u = 0; u < s.grid.num_units(); ++u) {
    double sim_ms = 0;
    const int begin = s.grid.UnitBegin(u);
    const int n = s.units[static_cast<size_t>(u)].trials;
    for (int t = begin; t < begin + n; ++t) {
      sim_ms += reference[static_cast<size_t>(t)].total_ms / n;
    }
    double predicted = s.predicted_ms[static_cast<size_t>(u)];
    model_error += 100.0 * std::fabs(sim_ms - predicted) / predicted / s.grid.num_units();
  }

  const uint64_t probe_seed = args.seed ^ 0x5EEDull;
  const MergeConfig& cfg0 = s.units.front().config;
  Probe sim_probe = ProbeSim(std::max(1, static_cast<int>(std::lround(calendar_depth))),
                             probe_seed, tracer);
  Probe disk_probe = ProbeDisk(
      cfg0, std::max(1, static_cast<int>(std::lround(blocks_per_request))), probe_seed, tracer);
  Probe cache_probe = ProbeCache(cfg0, probe_seed, tracer);

  const double task_passes = trials * static_cast<double>(sweep_wall_s.size());
  metrics = {
      {"workload.spec_parse_ms", Median(parse_ms), "ms"},
      {"core.trial_self_ms_p50", Median(tracer.SelfMs("core.trial")), "ms"},
      {"core.trial_allocs_per_block",
       static_cast<double>(trial_allocs) / static_cast<double>(serial_blocks), "count"},
      {"core.sim_events_per_block", sim_events / blocks, "count"},
      {"core.demand_stalls_per_block", stalls / blocks, "count"},
      {"io.fetches_per_block", fetches / blocks, "count"},
      {"io.success_ratio", fetches == 0 ? 1.0 : full / fetches, "ratio"},
      {"sim.resumes_per_block", resumes / blocks, "count"},
      {"sim.callbacks_per_block", callbacks / blocks, "count"},
      {"sim.calendar_depth_mean", calendar_depth, "entries"},
      {"sim.probe_ns_per_event", sim_probe.ns_per_op, "ns"},
      {"sim.probe_allocs_per_event", sim_probe.allocs_per_op, "count"},
      {"disk.requests_per_block", requests / blocks, "count"},
      {"disk.blocks_per_request", blocks_per_request, "blocks"},
      {"disk.write_requests_per_block", write_requests / blocks, "count"},
      {"disk.queue_wait_ms_per_request", queue_wait_ms / std::max(1.0, requests), "ms"},
      {"disk.busy_fraction_mean", busy_sum / trials, "ratio"},
      {"disk.concurrency_mean", concurrency_sum / trials, "disks"},
      {"disk.mechanism_probe_ns_per_access", disk_probe.ns_per_op, "ns"},
      {"disk.mechanism_probe_allocs_per_access", disk_probe.allocs_per_op, "count"},
      {"cache.hit_ratio", hits / blocks, "ratio"},
      {"cache.occupancy_frac_mean", occupancy_sum / trials, "ratio"},
      {"cache.probe_ns_per_block", cache_probe.ns_per_op, "ns"},
      {"cache.probe_allocs_per_block", cache_probe.allocs_per_op, "count"},
      {"fault.retries_per_request", retries / std::max(1.0, requests), "count"},
      {"fault.timeouts", timeouts / trials, "count/trial"},
      {"fault.media_errors", media_errors / trials, "count/trial"},
      {"sweep.run_shard_ms", Median(run_shard_ms), "ms"},
      {"sweep.encode_ms", Median(encode_ms), "ms"},
      {"sweep.merge_ms", Median(merge_ms), "ms"},
      {"sweep.artifact_bytes_per_task", static_cast<double>(artifact_bytes) / trials, "bytes"},
      {"sweep.encode_allocs_per_task",
       static_cast<double>(Allocs(Layer::kEncode)) / task_passes, "count"},
      {"sweep.merge_allocs_per_task",
       static_cast<double>(Allocs(Layer::kMerge)) / task_passes, "count"},
      {"core.aggregate_ms", Median(aggregate_ms), "ms"},
      {"core.export_json_ms", Median(export_ms), "ms"},
      {"core.export_json_bytes", static_cast<double>(reference_json.size()), "bytes"},
      {"util.pool_parallel_efficiency",
       Median(serial_pass_ms) / (threads * Median(run_shard_ms)),
       "ratio"},
      {"trace.overhead_pct",
       100.0 * (Median(traced_scaled_ms) / Median(serial_scaled_ms) - 1.0),
       "%"},
      {"analysis.model_error_pct", model_error, "%"},
  };
  if (!args.trace_out.empty() && !tracer.WriteChromeTrace(args.trace_out)) {
    std::fprintf(stderr, "could not write trace to %s\n", args.trace_out.c_str());
  }
  PrintResult(checks, metrics);
  return 0;
}

}  // namespace
}  // namespace perfbench

int main(int argc, char** argv) { return perfbench::Main(argc, argv); }

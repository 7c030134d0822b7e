// emsim_cli — run merge-phase simulations from the command line or from an
// experiment spec file, emitting a table or CSV.
//
//   # single configuration from flags
//   $ emsim_cli --runs 25 --disks 5 --n 10 --strategy all-disks-one-run
//
//   # batch of experiments from a spec file (see workload/experiment_spec.h)
//   $ emsim_cli --spec experiments.ini --format csv
//
//   # machine-readable export for CI / regression diffing (docs/USAGE.md)
//   $ emsim_cli --runs 25 --disks 5 --n 10 --json results.json
//
//   # the same sweep split across processes (docs/SWEEPS.md): each worker
//   # runs one shard of the task grid, and the merge prints and exports
//   # exactly the bytes of the single-process run
//   $ emsim_cli --spec e.ini --sweep-worker --shard 0/2 --shard-out s0.json
//   $ emsim_cli --spec e.ini --sweep-worker --shard 1/2 --shard-out s1.json
//   $ emsim_cli --spec e.ini --sweep-merge s0.json s1.json --json results.json

#include <array>
#include <cstdint>
#include <cstdio>
#include <iterator>
#include <string>
#include <utility>
#include <vector>

#include "core/config.h"
#include "core/experiment.h"
#include "core/result.h"
#include "core/result_json.h"
#include "stats/table.h"
#include "sweep/merge.h"
#include "sweep/shard.h"
#include "util/atomic_file.h"
#include "util/flags.h"
#include "util/status.h"
#include "util/str.h"
#include "workload/experiment_spec.h"

using namespace emsim;

namespace {

// Exit codes: 0 ok, 1 failure, 2 usage.

/// One experiment flag: a spec key, parsed by workload::ApplyExperimentKey
/// exactly as in a spec file, registered as a string flag with the CLI's
/// default text. None may be given with --spec, whose file sets them all.
struct ExperimentFlag {
  const char* key;
  const char* default_text;
  const char* help;
};

// Defaults are MergeConfig's, except a prefetching n and strategy. Fault
// injection (docs/ROBUSTNESS.md) is off by default, which keeps every
// artifact byte-identical to the fault-free schema.
constexpr ExperimentFlag kExperimentFlags[] = {
    {"runs", "25", "number of sorted runs (k)"},
    {"disks", "5", "number of input disks (D)"},
    {"blocks", "1000", "blocks per run"},
    {"n", "10", "prefetch depth (N)"},
    {"cache", "-1", "cache size in blocks (-1 = auto)"},
    {"cpu_ms", "0", "CPU time to merge one block (ms)"},
    {"zipf_theta", "0", "depletion skew for --depletion zipf"},
    {"trials", "5", "trials to average"},
    {"seed", "1", "base RNG seed"},
    {"strategy", "all-disks-one-run", "demand-run-only | all-disks-one-run"},
    {"sync", "unsync", "sync | unsync"},
    {"admission", "conservative", "conservative | greedy"},
    {"victim", "random", "random | round-robin | fewest-buffered | nearest-head"},
    {"depletion", "uniform", "uniform | zipf"},
    {"write_traffic", "none", "none | separate | shared"},
    {"write_disks", "1", "output disks for --write_traffic separate"},
    {"write_batch", "10", "output blocks per write request"},
    {"fault_media_error_rate", "0", "P(injected media error) per read request"},
    {"fault_spike_rate", "0", "P(latency spike) per request"},
    {"fault_spike_ms", "50", "extra latency per spike (ms)"},
    {"fault_slow_disk", "-1", "fail-slow disk id (-1 = none)"},
    {"fault_slow_factor", "4", "fail-slow service-time multiplier"},
    {"fault_slow_start_ms", "0", "fail-slow window start"},
    {"fault_slow_end_ms", "-1", "fail-slow window end (-1 = forever)"},
    {"fault_stop_disk", "-1", "fail-stop disk id (-1 = none)"},
    {"fault_stop_start_ms", "0", "fail-stop outage start"},
    {"fault_stop_end_ms", "-1", "fail-stop outage end (-1 = forever)"},
    {"fault_seed", "0", "fault RNG seed (0 = derive from --seed)"},
    {"fault_max_retries", "4", "retries before a span fails"},
    {"fault_timeout_ms", "2000", "per-attempt I/O timeout (0 = none)"},
    {"fault_backoff_ms", "20", "base retry backoff (ms)"},
    {"fault_backoff_mult", "2", "backoff multiplier"},
};
constexpr size_t kNumExperimentFlags = std::size(kExperimentFlags);

void AddResultRow(stats::Table& table, const std::string& name,
                  const core::MergeConfig& cfg, const core::ExperimentResult& result) {
  auto ci = result.TotalSecondsCi();
  const core::MergeResult& first = result.trials.front();
  table.AddRow({name, core::StrategyName(cfg.strategy),
                StrFormat("%d", cfg.prefetch_depth), core::SyncModeName(cfg.sync),
                StrFormat("%lld", static_cast<long long>(cfg.EffectiveCacheBlocks())),
                StrFormat("%.2f", ci.mean), StrFormat("%.2f", ci.half_width),
                stats::Table::Cell(result.MeanSuccessRatio(), 3),
                stats::Table::Cell(result.MeanConcurrency(), 2),
                stats::Table::Cell(first.stall_ms.Mean(), 2),
                StrFormat("%llu", static_cast<unsigned long long>(first.stall_ms.count()))});
}

/// Renders the sweep results exactly like a plain run: per-spec table rows
/// on stdout (or stderr when stdout carries the JSON), plus the optional
/// schema-stable JSON document (written atomically — a crashed run leaves
/// the previous file intact, never a torn one). Used identically by the
/// single-process and merge modes so their outputs are byte-comparable.
int EmitResults(const std::vector<core::SweepUnit>& units,
                const std::vector<core::ExperimentResult>& results,
                const std::string& format, const std::string& json_path) {
  stats::Table table({"experiment", "strategy", "N", "sync", "cache", "time_s",
                      "ci95_s", "success", "concurrency", "stall_ms", "stalls"});
  std::vector<core::NamedExperiment> named;
  for (size_t i = 0; i < units.size(); ++i) {
    AddResultRow(table, units[i].name, units[i].config, results[i]);
    named.push_back(core::NamedExperiment{units[i].name, units[i].config, &results[i]});
  }
  // With --json -, stdout belongs to the JSON document (so it can be piped
  // into jq and friends); the human table moves to stderr.
  std::fprintf(json_path == "-" ? stderr : stdout, "%s",
               format == "csv" ? table.ToCsv().c_str() : table.ToString().c_str());
  if (!json_path.empty()) {
    std::string doc = core::ExperimentSetToJson(named);
    if (json_path == "-") {
      std::printf("%s", doc.c_str());
    } else {
      Status written = util::WriteFileAtomic(json_path, doc);
      if (!written.ok()) {
        std::fprintf(stderr, "%s\n", written.ToString().c_str());
        return 1;
      }
    }
  }
  return 0;
}

/// Worker mode: runs one shard of the global task grid and writes its exact
/// per-trial artifact, sealed with the integrity footer and published
/// atomically. Task failures are recorded in the artifact (the merge
/// surfaces the lowest-index one), so they still exit 0; a nonzero exit
/// means the shard itself could not be run or written.
int RunWorker(const std::vector<core::SweepUnit>& units, const std::string& shard,
              const std::string& shard_out, int threads,
              const core::TrialDeadline& deadline) {
  int shard_index = 0;
  int shard_count = 0;
  if (!sweep::ParseShardSpec(shard, &shard_index, &shard_count)) {
    std::fprintf(stderr, "--shard must be k/N with 0 <= k < N, got '%s'\n", shard.c_str());
    return 2;
  }
  if (shard_out.empty()) {
    std::fprintf(stderr, "--sweep-worker requires --shard-out\n");
    return 2;
  }
  sweep::ShardArtifact artifact =
      sweep::RunShard(core::SweepGrid(units), shard_index, shard_count, threads, deadline);
  Status written = util::WriteFileAtomic(
      shard_out, sweep::SealShardArtifact(sweep::EncodeShardArtifact(artifact)));
  if (!written.ok()) {
    std::fprintf(stderr, "%s\n", written.ToString().c_str());
    return 1;
  }
  return 0;
}

/// Merge mode: verifies and combines the workers' artifacts and emits them
/// exactly as the single-process run would.
int RunMerge(const std::vector<core::SweepUnit>& units, const std::vector<std::string>& paths,
             const std::string& format, const std::string& json_path) {
  if (paths.empty()) {
    std::fprintf(stderr, "--sweep-merge requires shard artifact paths\n");
    return 2;
  }
  std::vector<sweep::NamedArtifact> artifacts;
  for (const std::string& path : paths) {
    auto text = util::ReadFile(path);
    if (!text.ok()) {
      std::fprintf(stderr, "%s\n", text.status().ToString().c_str());
      return 1;
    }
    artifacts.push_back(sweep::NamedArtifact{path, *std::move(text)});
  }
  auto merged = sweep::MergeShardArtifacts(units, artifacts);
  if (!merged.ok()) {
    std::fprintf(stderr, "%s\n", merged.status().ToString().c_str());
    return 1;
  }
  return EmitResults(units, *merged, format, json_path);
}

}  // namespace

int main(int argc, char** argv) {
  FlagSet flags("emsim_cli");
  std::array<std::string, kNumExperimentFlags> experiment_text;
  std::string spec_path;
  std::string format = "table";
  std::string json_path;
  bool collect_metrics = false;
  bool help = false;
  bool print_spec = false;
  int64_t max_sim_events = 0;
  double max_wall_ms = 0.0;
  // Splitting a sweep across processes (docs/SWEEPS.md).
  int threads = 0;
  bool sweep_worker = false;
  bool sweep_merge = false;
  std::string shard;
  std::string shard_out;

  for (size_t i = 0; i < kNumExperimentFlags; ++i) {
    experiment_text[i] = kExperimentFlags[i].default_text;
    flags.AddString(kExperimentFlags[i].key, &experiment_text[i], kExperimentFlags[i].help);
  }
  flags.AddString("spec", &spec_path,
                  "experiment spec file (excludes the experiment flags)");
  flags.AddString("format", &format, "table | csv");
  flags.AddString("json", &json_path,
                  "also write a schema-stable JSON document here ('-' = stdout)");
  flags.AddBool("metrics", &collect_metrics,
                "collect the full metrics registry into the JSON export");
  flags.AddBool("print_spec", &print_spec, "echo each experiment as spec syntax");
  flags.AddInt64("max_sim_events", &max_sim_events,
                 "per-trial simulated-event deadline (0 = unlimited)");
  flags.AddDouble("max_wall_ms", &max_wall_ms,
                  "per-trial wall-clock deadline in ms (0 = unlimited)");
  flags.AddInt("threads", &threads,
               "worker threads for trial execution (0 = hardware)");
  flags.AddBool("sweep-worker", &sweep_worker,
                "worker mode: run one shard and write its artifact");
  flags.AddBool("sweep-merge", &sweep_merge,
                "merge mode: combine shard artifacts (positional args) into "
                "the single-process output");
  flags.AddString("shard", &shard, "worker mode shard as k/N (e.g. 2/7)");
  flags.AddString("shard-out", &shard_out, "worker mode artifact output path");
  flags.AddBool("help", &help, "show usage");

  Status status = flags.Parse(argc, argv);
  if (!status.ok()) {
    std::fprintf(stderr, "%s\n%s", status.ToString().c_str(), flags.Usage().c_str());
    return 2;
  }
  if (help) {
    std::printf("%s", flags.Usage().c_str());
    return 0;
  }
  if (sweep_worker && sweep_merge) {
    std::fprintf(stderr, "--sweep-worker and --sweep-merge are exclusive\n");
    return 2;
  }
  // Each mode refuses the arguments of the others rather than ignore them:
  // only a merge takes positional artifact paths, only a worker a shard.
  if (!sweep_merge && !flags.positional().empty()) {
    std::fprintf(stderr, "unexpected argument '%s' (only --sweep-merge takes artifact paths)\n",
                 flags.positional().front().c_str());
    return 2;
  }
  if (!sweep_worker && (!shard.empty() || !shard_out.empty())) {
    std::fprintf(stderr, "%s is only valid with --sweep-worker\n",
                 shard.empty() ? "--shard-out" : "--shard");
    return 2;
  }

  // A spec file sets every experiment key, so a flag beside it would be
  // silently dropped; refuse it instead, even at its default value.
  if (!spec_path.empty()) {
    for (const ExperimentFlag& flag : kExperimentFlags) {
      if (flags.Given(flag.key)) {
        std::fprintf(stderr, "--%s cannot be combined with --spec; set '%s' in the spec file\n",
                     flag.key, flag.key);
        return 2;
      }
    }
  }

  workload::ExperimentSpec cli_spec;
  cli_spec.name = "cli";
  for (size_t i = 0; i < kNumExperimentFlags; ++i) {
    Status applied =
        workload::ApplyExperimentKey(kExperimentFlags[i].key, experiment_text[i], &cli_spec);
    if (!applied.ok()) {
      std::fprintf(stderr, "flag --%s: %s\n", kExperimentFlags[i].key,
                   applied.message().c_str());
      return 2;
    }
  }
  std::vector<workload::ExperimentSpec> specs;
  if (!spec_path.empty()) {
    auto loaded = workload::LoadExperimentSpec(spec_path);
    if (!loaded.ok()) {
      std::fprintf(stderr, "%s\n", loaded.status().ToString().c_str());
      return 1;
    }
    specs = *std::move(loaded);
  } else {
    Status valid = cli_spec.config.Validate();
    if (!valid.ok()) {
      std::fprintf(stderr, "invalid configuration: %s\n", valid.ToString().c_str());
      return 2;
    }
    specs.push_back(std::move(cli_spec));
  }

  if (print_spec) {
    for (const auto& spec : specs) {
      std::printf("%s\n", workload::ToSpec(spec).c_str());
    }
  }
  for (auto& spec : specs) {
    spec.config.collect_metrics = collect_metrics;
  }
  std::vector<core::SweepUnit> units = sweep::UnitsFromSpecs(specs);
  core::TrialDeadline deadline;
  deadline.max_sim_events = static_cast<uint64_t>(max_sim_events);
  deadline.max_wall_ms = max_wall_ms;

  if (sweep_worker) {
    return RunWorker(units, shard, shard_out, threads, deadline);
  }
  if (sweep_merge) {
    return RunMerge(units, flags.positional(), format, json_path);
  }

  // Single-process mode: the whole grid on the in-process worker pool. This
  // is the reference the sharded modes are byte-compared against.
  auto results = core::RunSweep(units, threads, deadline);
  if (!results.ok()) {
    std::fprintf(stderr, "%s\n", results.status().ToString().c_str());
    return 1;
  }
  return EmitResults(units, *results, format, json_path);
}

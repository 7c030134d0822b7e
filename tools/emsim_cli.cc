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
//   # sharded sweep across worker subprocesses (docs/SWEEPS.md); the output
//   # is byte-identical to the single-process run above
//   $ emsim_cli --spec experiments.ini --sweep 4 --json results.json
//
//   # resume a crashed or drained sweep from its journaled run directory;
//   # the merged output is byte-identical to an uninterrupted run
//   $ emsim_cli --spec experiments.ini --sweep-resume sweep_shards --json results.json
//
//   # the pieces the driver composes, runnable by hand or from CI:
//   $ emsim_cli --spec e.ini --sweep-worker --shard 0/4 --shard-out s0.json
//   $ emsim_cli --spec e.ini --sweep-merge s0.json s1.json s2.json s3.json

#include <algorithm>
#include <atomic>
#include <cerrno>
#include <csignal>
#include <cstdint>
#include <cstdio>
#include <dirent.h>
#include <functional>
#include <map>
#include <string>
#include <sys/stat.h>
#include <unistd.h>
#include <utility>
#include <vector>

#include "core/config.h"
#include "core/experiment.h"
#include "core/result.h"
#include "core/result_json.h"
#include "stats/json_writer.h"
#include "stats/table.h"
#include "sweep/dispatcher.h"
#include "sweep/journal.h"
#include "sweep/merge.h"
#include "sweep/shard.h"
#include "util/atomic_file.h"
#include "util/flags.h"
#include "util/status.h"
#include "util/str.h"
#include "workload/experiment_spec.h"

using namespace emsim;

namespace {

// Exit codes: 0 ok, 1 failure, 2 usage, and for sweeps:
constexpr int kExitDrained = 3;  ///< Graceful drain — run is resumable.

std::atomic<bool> g_drain{false};

void OnDrainSignal(int) { g_drain.store(true); }

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

Result<std::string> ReadFile(const std::string& path) {
  std::FILE* f = std::fopen(path.c_str(), "rb");
  if (f == nullptr) {
    return Status::NotFound(StrFormat("cannot open %s", path.c_str()));
  }
  std::string text;
  char buf[1 << 16];
  size_t got = 0;
  while ((got = std::fread(buf, 1, sizeof(buf), f)) > 0) {
    text.append(buf, got);
  }
  std::fclose(f);
  return text;
}

/// Renders the sweep results exactly like a plain run: per-spec table rows
/// on stdout (or stderr when stdout carries the JSON), plus the optional
/// schema-stable JSON document (written atomically — a crashed run leaves
/// the previous file intact, never a torn one). Used identically by the
/// single-process, driver and merge modes so their outputs are
/// byte-comparable. `extra_json` adds opt-in top-level blocks (dispatch
/// counters); null keeps the document byte-identical to the plain form.
int EmitResults(const std::vector<core::SweepUnit>& units,
                const std::vector<core::ExperimentResult>& results,
                const std::string& format, const std::string& json_path,
                const std::function<void(stats::JsonWriter&)>& extra_json = nullptr) {
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
    std::string doc = core::ExperimentSetToJson(named, extra_json);
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

}  // namespace

int main(int argc, char** argv) {
  FlagSet flags("emsim_cli");
  int runs = 25;
  int disks = 5;
  int64_t blocks = 1000;
  int n = 10;
  int64_t cache = core::MergeConfig::kAutoCache;
  double cpu_ms = 0.0;
  double zipf_theta = 0.0;
  int trials = 5;
  int64_t seed = 1;
  std::string strategy = "all-disks-one-run";
  std::string sync = "unsync";
  std::string admission = "conservative";
  std::string victim = "random";
  std::string depletion = "uniform";
  std::string write_traffic = "none";
  std::string spec_path;
  std::string format = "table";
  std::string json_path;
  bool collect_metrics = false;
  bool help = false;
  bool print_spec = false;
  // Fault injection (docs/ROBUSTNESS.md). Defaults leave injection off, which
  // keeps every artifact byte-identical to the fault-free schema.
  double fault_media_error_rate = 0.0;
  double fault_spike_rate = 0.0;
  double fault_spike_ms = 50.0;
  int fault_slow_disk = -1;
  double fault_slow_factor = 4.0;
  double fault_slow_start_ms = 0.0;
  double fault_slow_end_ms = -1.0;
  int fault_stop_disk = -1;
  double fault_stop_start_ms = 0.0;
  double fault_stop_end_ms = -1.0;
  int64_t fault_seed = 0;
  int fault_max_retries = 4;
  double fault_timeout_ms = 2000.0;
  double fault_backoff_ms = 20.0;
  double fault_backoff_mult = 2.0;
  int64_t max_sim_events = 0;
  double max_wall_ms = 0.0;
  // Sharded sweep fabric (docs/SWEEPS.md).
  int threads = 0;
  int sweep = 0;
  int sweep_workers = 0;
  bool sweep_worker = false;
  bool sweep_merge = false;
  std::string sweep_resume;
  bool sweep_stats = false;
  std::string shard;
  std::string shard_out;
  std::string shard_dir = "sweep_shards";
  double shard_timeout_ms = 0.0;
  int shard_retries = 2;
  double shard_backoff_ms = 100.0;
  double sweep_drain_grace_ms = 2000.0;
  int sweep_chaos_kill_shard = -1;

  flags.AddInt("runs", &runs, "number of sorted runs (k)");
  flags.AddInt("disks", &disks, "number of input disks (D)");
  flags.AddInt64("blocks", &blocks, "blocks per run");
  flags.AddInt("n", &n, "prefetch depth (N)");
  flags.AddInt64("cache", &cache, "cache size in blocks (-1 = auto)");
  flags.AddDouble("cpu_ms", &cpu_ms, "CPU time to merge one block (ms)");
  flags.AddDouble("zipf_theta", &zipf_theta, "depletion skew for --depletion zipf");
  flags.AddInt("trials", &trials, "trials to average");
  flags.AddInt64("seed", &seed, "base RNG seed");
  flags.AddString("strategy", &strategy, "demand-run-only | all-disks-one-run");
  flags.AddString("sync", &sync, "sync | unsync");
  flags.AddString("admission", &admission, "conservative | greedy");
  flags.AddString("victim", &victim,
                  "random | round-robin | fewest-buffered | nearest-head");
  flags.AddString("depletion", &depletion, "uniform | zipf");
  flags.AddString("write_traffic", &write_traffic, "none | separate | shared");
  flags.AddString("spec", &spec_path, "experiment spec file (overrides other flags)");
  flags.AddString("format", &format, "table | csv");
  flags.AddString("json", &json_path,
                  "also write a schema-stable JSON document here ('-' = stdout)");
  flags.AddBool("metrics", &collect_metrics,
                "collect the full metrics registry into the JSON export");
  flags.AddBool("print_spec", &print_spec, "echo each experiment as spec syntax");
  flags.AddDouble("fault_media_error_rate", &fault_media_error_rate,
                  "P(injected media error) per read request");
  flags.AddDouble("fault_spike_rate", &fault_spike_rate,
                  "P(latency spike) per request");
  flags.AddDouble("fault_spike_ms", &fault_spike_ms, "extra latency per spike (ms)");
  flags.AddInt("fault_slow_disk", &fault_slow_disk, "fail-slow disk id (-1 = none)");
  flags.AddDouble("fault_slow_factor", &fault_slow_factor,
                  "fail-slow service-time multiplier");
  flags.AddDouble("fault_slow_start_ms", &fault_slow_start_ms, "fail-slow window start");
  flags.AddDouble("fault_slow_end_ms", &fault_slow_end_ms,
                  "fail-slow window end (-1 = forever)");
  flags.AddInt("fault_stop_disk", &fault_stop_disk, "fail-stop disk id (-1 = none)");
  flags.AddDouble("fault_stop_start_ms", &fault_stop_start_ms, "fail-stop outage start");
  flags.AddDouble("fault_stop_end_ms", &fault_stop_end_ms,
                  "fail-stop outage end (-1 = forever)");
  flags.AddInt64("fault_seed", &fault_seed,
                 "fault RNG seed (0 = derive from --seed)");
  flags.AddInt("fault_max_retries", &fault_max_retries, "retries before a span fails");
  flags.AddDouble("fault_timeout_ms", &fault_timeout_ms,
                  "per-attempt I/O timeout (0 = none)");
  flags.AddDouble("fault_backoff_ms", &fault_backoff_ms, "base retry backoff (ms)");
  flags.AddDouble("fault_backoff_mult", &fault_backoff_mult, "backoff multiplier");
  flags.AddInt64("max_sim_events", &max_sim_events,
                 "per-trial simulated-event deadline (0 = unlimited)");
  flags.AddDouble("max_wall_ms", &max_wall_ms,
                  "per-trial wall-clock deadline in ms (0 = unlimited)");
  flags.AddInt("threads", &threads,
               "worker threads for trial execution (0 = hardware)");
  flags.AddInt("sweep", &sweep,
               "driver mode: split the sweep into this many shards run by "
               "worker subprocesses, then merge (0 = run in-process)");
  flags.AddInt("sweep-workers", &sweep_workers,
               "concurrent worker subprocesses (0 = min(shards, hardware))");
  flags.AddBool("sweep-worker", &sweep_worker,
                "worker mode: run one shard and write its artifact");
  flags.AddBool("sweep-merge", &sweep_merge,
                "merge mode: combine shard artifacts (positional args) into "
                "the single-process output");
  flags.AddString("sweep-resume", &sweep_resume,
                  "resume a crashed/drained sweep from this run directory "
                  "(same spec and flags as the original run)");
  flags.AddBool("sweep-stats", &sweep_stats,
                "embed dispatch counters (launches, resubmissions, kills) in "
                "the merged JSON; off keeps the document byte-identical to a "
                "single-process run");
  flags.AddString("shard", &shard, "worker mode shard as k/N (e.g. 2/7)");
  flags.AddString("shard-out", &shard_out, "worker mode artifact output path");
  flags.AddString("shard-dir", &shard_dir,
                  "driver mode run directory for the journal and shard "
                  "artifacts");
  flags.AddDouble("shard-timeout-ms", &shard_timeout_ms,
                  "driver mode per-shard deadline before the attempt is "
                  "killed and resubmitted (0 = none)");
  flags.AddInt("shard-retries", &shard_retries,
               "driver mode resubmissions allowed per shard");
  flags.AddDouble("shard-backoff-ms", &shard_backoff_ms,
                  "driver mode base backoff between shard attempts");
  flags.AddDouble("sweep-drain-grace-ms", &sweep_drain_grace_ms,
                  "on SIGTERM/SIGINT, wall-clock grace for in-flight workers "
                  "before they are killed and the run drains");
  flags.AddInt("sweep-chaos-kill-shard", &sweep_chaos_kill_shard,
               "driver mode chaos hook: kill this shard's first attempt to "
               "exercise resubmission (-1 = off)");
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
  if (static_cast<int>(sweep_worker) + static_cast<int>(sweep_merge) +
          static_cast<int>(sweep > 0) + static_cast<int>(!sweep_resume.empty()) > 1) {
    std::fprintf(stderr,
                 "--sweep-worker, --sweep-merge, --sweep and --sweep-resume are exclusive\n");
    return 2;
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
    if (trials < 1) {
      std::fprintf(stderr, "invalid configuration: --trials must be >= 1, got %d\n", trials);
      return 2;
    }
    workload::ExperimentSpec spec;
    spec.name = "cli";
    spec.trials = trials;
    core::MergeConfig& cfg = spec.config;
    cfg.num_runs = runs;
    cfg.num_disks = disks;
    cfg.blocks_per_run = blocks;
    cfg.prefetch_depth = n;
    cfg.cache_blocks = cache;
    cfg.cpu_ms_per_block = cpu_ms;
    cfg.zipf_theta = zipf_theta;
    cfg.seed = static_cast<uint64_t>(seed);
    auto parsed_strategy = core::ParseStrategy(strategy);
    auto parsed_sync = core::ParseSyncMode(sync);
    auto parsed_admission = core::ParseAdmissionPolicy(admission);
    auto parsed_victim = core::ParseVictimPolicy(victim);
    auto parsed_depletion = core::ParseDepletionKind(depletion);
    auto parsed_write = core::ParseWriteTraffic(write_traffic);
    for (const Status& s :
         {parsed_strategy.status(), parsed_sync.status(), parsed_admission.status(),
          parsed_victim.status(), parsed_depletion.status(), parsed_write.status()}) {
      if (!s.ok()) {
        std::fprintf(stderr, "%s\n", s.ToString().c_str());
        return 2;
      }
    }
    cfg.strategy = *parsed_strategy;
    cfg.sync = *parsed_sync;
    cfg.admission = *parsed_admission;
    cfg.victim = *parsed_victim;
    cfg.depletion = *parsed_depletion;
    cfg.write_traffic = *parsed_write;
    cfg.fault.media_error_rate = fault_media_error_rate;
    cfg.fault.latency_spike_rate = fault_spike_rate;
    cfg.fault.latency_spike_ms = fault_spike_ms;
    cfg.fault.fail_slow_disk = fault_slow_disk;
    cfg.fault.fail_slow_factor = fault_slow_factor;
    cfg.fault.fail_slow_start_ms = fault_slow_start_ms;
    cfg.fault.fail_slow_end_ms = fault_slow_end_ms;
    cfg.fault.fail_stop_disk = fault_stop_disk;
    cfg.fault.fail_stop_start_ms = fault_stop_start_ms;
    cfg.fault.fail_stop_end_ms = fault_stop_end_ms;
    cfg.fault.seed = static_cast<uint64_t>(fault_seed);
    cfg.fault.retry.max_retries = fault_max_retries;
    cfg.fault.retry.timeout_ms = fault_timeout_ms;
    cfg.fault.retry.backoff_base_ms = fault_backoff_ms;
    cfg.fault.retry.backoff_multiplier = fault_backoff_mult;
    Status valid = cfg.Validate();
    if (!valid.ok()) {
      std::fprintf(stderr, "invalid configuration: %s\n", valid.ToString().c_str());
      return 2;
    }
    specs.push_back(std::move(spec));
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
  core::SweepGrid grid(units);
  core::TrialDeadline deadline;
  deadline.max_sim_events = static_cast<uint64_t>(max_sim_events);
  deadline.max_wall_ms = max_wall_ms;

  if (sweep_worker) {
    // Worker mode: run one shard of the global task grid, write the exact
    // per-trial artifact (sealed with the integrity footer, published
    // atomically), exit 0. Task failures are recorded in the artifact (the
    // merger surfaces the lowest-index one); a nonzero exit here means
    // infrastructure trouble, which the dispatcher retries.
    int shard_index = -1;
    int shard_count = 0;
    if (std::sscanf(shard.c_str(), "%d/%d", &shard_index, &shard_count) != 2 ||
        shard_index < 0 || shard_count < 1 || shard_index >= shard_count) {
      std::fprintf(stderr, "--shard must be k/N with 0 <= k < N, got '%s'\n",
                   shard.c_str());
      return 2;
    }
    if (shard_out.empty()) {
      std::fprintf(stderr, "--sweep-worker requires --shard-out\n");
      return 2;
    }
    sweep::ShardArtifact artifact =
        sweep::RunShard(grid, shard_index, shard_count, threads, deadline);
    Status written = util::WriteFileAtomic(
        shard_out, sweep::SealShardArtifact(sweep::EncodeShardArtifact(artifact)));
    if (!written.ok()) {
      std::fprintf(stderr, "%s\n", written.ToString().c_str());
      return 1;
    }
    return 0;
  }

  if (sweep_merge) {
    if (flags.positional().empty()) {
      std::fprintf(stderr, "--sweep-merge requires shard artifact paths\n");
      return 2;
    }
    std::vector<sweep::NamedArtifact> artifacts;
    for (const std::string& path : flags.positional()) {
      auto text = ReadFile(path);
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

  if (sweep > 0 || !sweep_resume.empty()) {
    // Driver mode: re-exec this binary once per shard via the dispatcher,
    // journal every transition into the run directory, then merge the
    // artifacts in-process. The worker command re-creates the experiment set
    // from the same inputs (spec file, or the full flag vector), so every
    // worker builds the identical task grid. Resume mode replays the
    // journal, re-verifies surviving artifacts, and runs only what is
    // missing — the merged output is byte-identical either way.
    const bool resuming = !sweep_resume.empty();
    const std::string run_dir = resuming ? sweep_resume : shard_dir;
    const uint64_t spec_digest = sweep::SpecDigest(units);
    int num_shards = sweep;
    sweep::RunLedger ledger;
    if (resuming) {
      auto records = sweep::RunJournal::Load(run_dir);
      if (!records.ok()) {
        std::fprintf(stderr, "%s\n", records.status().ToString().c_str());
        return 1;
      }
      auto replayed = sweep::ReplayJournal(*records);
      if (!replayed.ok()) {
        std::fprintf(stderr, "%s\n", replayed.status().ToString().c_str());
        return 1;
      }
      ledger = *std::move(replayed);
      if (ledger.spec_digest != spec_digest || ledger.total_tasks != grid.total_tasks()) {
        std::fprintf(stderr,
                     "--sweep-resume: journal records spec digest %016llx over %d tasks but "
                     "the loaded spec has digest %016llx over %d tasks — resume with the "
                     "original spec and flags\n",
                     static_cast<unsigned long long>(ledger.spec_digest), ledger.total_tasks,
                     static_cast<unsigned long long>(spec_digest), grid.total_tasks());
        return 2;
      }
      num_shards = ledger.num_shards;
    }

    auto opened = sweep::RunJournal::Open(run_dir);
    if (!opened.ok()) {
      std::fprintf(stderr, "%s\n", opened.status().ToString().c_str());
      return 1;
    }
    sweep::RunJournal journal = std::move(*opened);
    // A failed journal append is downgraded to a warning: it costs redone
    // work on a later resume, never correctness — resume trusts only
    // artifacts it re-verifies.
    auto journal_append = [&](const sweep::JournalRecord& record) {
      Status appended = journal.Append(record);
      if (!appended.ok()) {
        std::fprintf(stderr, "[sweep] %s\n", appended.ToString().c_str());
      }
    };
    // Artifact paths are journaled relative to the run directory, so a run
    // dir can be moved (or inspected from elsewhere) and still resume.
    auto relative = [&](const std::string& path) {
      const std::string prefix = run_dir + "/";
      return path.rfind(prefix, 0) == 0 ? path.substr(prefix.size()) : path;
    };

    // The trusted artifact per shard (relative path): surviving verified
    // ones on resume, freshly dispatched ones after.
    std::map<int, std::string> trusted;
    std::vector<int> shards_to_run;
    if (!resuming) {
      sweep::JournalRecord start;
      start.kind = sweep::JournalRecord::Kind::kRunStart;
      start.spec_digest = spec_digest;
      start.num_shards = num_shards;
      start.total_tasks = grid.total_tasks();
      journal_append(start);
    } else {
      for (int s = 0; s < num_shards; ++s) {
        auto it = ledger.shards.find(s);
        if (it == ledger.shards.end() || !it->second.done) {
          shards_to_run.push_back(s);
          continue;
        }
        const std::string rel = it->second.artifact_path;
        const std::string full = run_dir + "/" + rel;
        auto contents = ReadFile(full);
        std::string defect;
        if (!contents.ok()) {
          defect = "artifact file is missing";
        } else if (sweep::Fnv1aDigest(*contents) != it->second.artifact_digest) {
          defect = "file bytes do not match the journaled digest";
        } else {
          auto payload = sweep::UnsealShardArtifact(*contents);
          if (!payload.ok()) {
            defect = payload.status().message();
          }
        }
        if (defect.empty()) {
          trusted[s] = rel;
          continue;
        }
        if (contents.ok()) {
          (void)::rename(full.c_str(), (full + ".corrupt").c_str());
        }
        std::fprintf(stderr, "[sweep] shard %d: %s: %s — quarantined, re-running\n", s,
                     rel.c_str(), defect.c_str());
        sweep::JournalRecord q;
        q.kind = sweep::JournalRecord::Kind::kQuarantine;
        q.shard = s;
        q.path = rel;
        q.detail = defect;
        journal_append(q);
        shards_to_run.push_back(s);
      }
      std::fprintf(stderr, "[sweep] resume: %zu/%d shard artifact(s) verified, %zu to run\n",
                   trusted.size(), num_shards, shards_to_run.size());
    }

    bool drained = false;
    sweep::DispatchStats dispatch_stats;
    if (!resuming || !shards_to_run.empty()) {
      std::signal(SIGTERM, OnDrainSignal);
      std::signal(SIGINT, OnDrainSignal);

      std::vector<std::string> base;
      base.push_back(argv[0]);
      if (!spec_path.empty()) {
        base.insert(base.end(), {"--spec", spec_path});
      } else {
        base.insert(base.end(), {"--runs", StrFormat("%d", runs)});
        base.insert(base.end(), {"--disks", StrFormat("%d", disks)});
        base.insert(base.end(),
                    {"--blocks", StrFormat("%lld", static_cast<long long>(blocks))});
        base.insert(base.end(), {"--n", StrFormat("%d", n)});
        base.insert(base.end(),
                    {"--cache", StrFormat("%lld", static_cast<long long>(cache))});
        base.insert(base.end(), {"--cpu_ms", StrFormat("%.17g", cpu_ms)});
        base.insert(base.end(), {"--zipf_theta", StrFormat("%.17g", zipf_theta)});
        base.insert(base.end(), {"--trials", StrFormat("%d", trials)});
        base.insert(base.end(),
                    {"--seed", StrFormat("%lld", static_cast<long long>(seed))});
        base.insert(base.end(), {"--strategy", strategy});
        base.insert(base.end(), {"--sync", sync});
        base.insert(base.end(), {"--admission", admission});
        base.insert(base.end(), {"--victim", victim});
        base.insert(base.end(), {"--depletion", depletion});
        base.insert(base.end(), {"--write_traffic", write_traffic});
        base.insert(base.end(), {"--fault_media_error_rate",
                                 StrFormat("%.17g", fault_media_error_rate)});
        base.insert(base.end(),
                    {"--fault_spike_rate", StrFormat("%.17g", fault_spike_rate)});
        base.insert(base.end(),
                    {"--fault_spike_ms", StrFormat("%.17g", fault_spike_ms)});
        base.insert(base.end(),
                    {"--fault_slow_disk", StrFormat("%d", fault_slow_disk)});
        base.insert(base.end(),
                    {"--fault_slow_factor", StrFormat("%.17g", fault_slow_factor)});
        base.insert(base.end(), {"--fault_slow_start_ms",
                                 StrFormat("%.17g", fault_slow_start_ms)});
        base.insert(base.end(),
                    {"--fault_slow_end_ms", StrFormat("%.17g", fault_slow_end_ms)});
        base.insert(base.end(),
                    {"--fault_stop_disk", StrFormat("%d", fault_stop_disk)});
        base.insert(base.end(), {"--fault_stop_start_ms",
                                 StrFormat("%.17g", fault_stop_start_ms)});
        base.insert(base.end(),
                    {"--fault_stop_end_ms", StrFormat("%.17g", fault_stop_end_ms)});
        base.insert(base.end(),
                    {"--fault_seed", StrFormat("%lld", static_cast<long long>(fault_seed))});
        base.insert(base.end(),
                    {"--fault_max_retries", StrFormat("%d", fault_max_retries)});
        base.insert(base.end(),
                    {"--fault_timeout_ms", StrFormat("%.17g", fault_timeout_ms)});
        base.insert(base.end(),
                    {"--fault_backoff_ms", StrFormat("%.17g", fault_backoff_ms)});
        base.insert(base.end(),
                    {"--fault_backoff_mult", StrFormat("%.17g", fault_backoff_mult)});
      }
      if (collect_metrics) {
        base.push_back("--metrics");
      }
      base.insert(base.end(), {"--max_sim_events",
                               StrFormat("%lld", static_cast<long long>(max_sim_events))});
      base.insert(base.end(), {"--max_wall_ms", StrFormat("%.17g", max_wall_ms)});
      base.insert(base.end(), {"--threads", StrFormat("%d", threads)});

      sweep::DispatcherOptions options;
      options.num_shards = num_shards;
      options.shards = shards_to_run;
      options.max_workers = sweep_workers;
      options.retry.timeout_ms = shard_timeout_ms;
      options.retry.max_retries = shard_retries;
      options.retry.backoff_base_ms = shard_backoff_ms;
      options.chaos_kill_shard = sweep_chaos_kill_shard;
      options.drain = &g_drain;
      options.drain_grace_ms = sweep_drain_grace_ms;
      options.log = [](const std::string& line) {
        std::fprintf(stderr, "[sweep] %s\n", line.c_str());
      };
      options.on_event = [&](const sweep::ShardEvent& event) {
        sweep::JournalRecord record;
        record.shard = event.shard;
        record.attempt = event.attempt;
        switch (event.kind) {
          case sweep::ShardEvent::Kind::kStart:
            record.kind = sweep::JournalRecord::Kind::kShardStart;
            record.path = relative(event.path);
            break;
          case sweep::ShardEvent::Kind::kDone: {
            record.kind = sweep::JournalRecord::Kind::kShardDone;
            record.path = relative(event.path);
            auto contents = ReadFile(event.path);
            if (contents.ok()) {
              record.digest = sweep::Fnv1aDigest(*contents);
              record.size = contents->size();
            }
            break;
          }
          case sweep::ShardEvent::Kind::kRetry:
            record.kind = sweep::JournalRecord::Kind::kShardRetry;
            record.detail = event.detail;
            break;
          case sweep::ShardEvent::Kind::kFailed:
            record.kind = sweep::JournalRecord::Kind::kShardFailed;
            record.detail = event.detail;
            break;
        }
        journal_append(record);
      };
      auto dispatched = sweep::RunShardedSweep(
          options, run_dir, [&](int s, const std::string& out) {
            std::vector<std::string> worker_argv = base;
            worker_argv.push_back("--sweep-worker");
            worker_argv.insert(worker_argv.end(),
                               {"--shard", StrFormat("%d/%d", s, num_shards)});
            worker_argv.insert(worker_argv.end(), {"--shard-out", out});
            return worker_argv;
          });
      if (!dispatched.ok()) {
        std::fprintf(stderr, "%s\n", dispatched.status().ToString().c_str());
        return 1;
      }
      dispatch_stats = dispatched->stats;
      drained = dispatched->drained;
      for (const sweep::ShardDispatch& d : dispatched->shards) {
        if (d.ok) {
          trusted[d.shard] = relative(d.artifact_path);
        }
      }
    }

    if (drained) {
      sweep::JournalRecord record;
      record.kind = sweep::JournalRecord::Kind::kDrain;
      record.detail = "signal";
      journal_append(record);
      std::fprintf(stderr,
                   "[sweep] drained: %zu/%d shard artifact(s) journaled; resume with "
                   "--sweep-resume %s\n",
                   trusted.size(), num_shards, run_dir.c_str());
      return kExitDrained;
    }

    std::vector<sweep::NamedArtifact> artifacts;
    for (int s = 0; s < num_shards; ++s) {
      auto it = trusted.find(s);
      if (it == trusted.end()) {
        std::fprintf(stderr, "[sweep] shard %d has no artifact after dispatch\n", s);
        return 1;
      }
      const std::string full = run_dir + "/" + it->second;
      auto text = ReadFile(full);
      if (!text.ok()) {
        std::fprintf(stderr, "%s\n", text.status().ToString().c_str());
        return 1;
      }
      artifacts.push_back(sweep::NamedArtifact{full, *std::move(text)});
    }
    auto merged = sweep::MergeShardArtifacts(units, artifacts);
    if (!merged.ok()) {
      std::fprintf(stderr, "%s\n", merged.status().ToString().c_str());
      return 1;
    }

    std::function<void(stats::JsonWriter&)> extra_json;
    if (sweep_stats) {
      extra_json = [&dispatch_stats](stats::JsonWriter& w) {
        // Real-process dispatch counters, the analogue of the simulated
        // fault counters: explicit zeros distinguish "nothing retried"
        // from "nobody counted".
        w.Key("dispatch");
        w.BeginObject();
        w.Field("launches", dispatch_stats.launches);
        w.Field("resubmissions", dispatch_stats.resubmissions);
        w.Field("deadline_kills", dispatch_stats.deadline_kills);
        w.Field("chaos_kills", dispatch_stats.chaos_kills);
        w.Field("spawn_failures", dispatch_stats.spawn_failures);
        w.Field("drain_kills", dispatch_stats.drain_kills);
        w.EndObject();
      };
    }
    int rc = EmitResults(units, *merged, format, json_path, extra_json);
    if (rc != 0) {
      return rc;
    }

    // GC: stale attempt-unique files (losing attempts of resubmitted or
    // resumed shards) are reclaimed once the merge has succeeded. Winning
    // artifacts and quarantined *.corrupt evidence stay. Journaled, sorted
    // for a deterministic record order.
    std::vector<std::string> stale;
    if (DIR* dir = ::opendir(run_dir.c_str())) {
      while (const dirent* entry = ::readdir(dir)) {
        const std::string name = entry->d_name;
        if (name.rfind("shard_", 0) != 0) {
          continue;
        }
        const bool attempt_file =
            name.size() >= 5 && name.compare(name.size() - 5, 5, ".json") == 0;
        // SIGKILLed workers can leave unpublished "<artifact>.tmp.<pid>"
        // droppings behind; they are stale by construction.
        const bool temp_dropping = name.find(".json.tmp.") != std::string::npos;
        if (!attempt_file && !temp_dropping) {
          continue;
        }
        bool winner = false;
        for (const auto& [shard_index, rel] : trusted) {
          (void)shard_index;
          if (rel == name) {
            winner = true;
            break;
          }
        }
        if (!winner) {
          stale.push_back(name);
        }
      }
      ::closedir(dir);
    }
    std::sort(stale.begin(), stale.end());
    for (const std::string& name : stale) {
      if (::unlink((run_dir + "/" + name).c_str()) == 0) {
        sweep::JournalRecord record;
        record.kind = sweep::JournalRecord::Kind::kReclaim;
        record.path = name;
        journal_append(record);
      }
    }

    sweep::JournalRecord done;
    done.kind = sweep::JournalRecord::Kind::kRunDone;
    journal_append(done);
    return 0;
  }

  // Single-process mode: the whole grid on the in-process worker pool. This
  // is the reference the sharded modes are byte-compared against.
  std::vector<core::ExperimentResult> results = core::RunSweep(units, threads, deadline);
  return EmitResults(units, results, format, json_path);
}

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
#include <array>
#include <atomic>
#include <cerrno>
#include <csignal>
#include <cstdint>
#include <cstdio>
#include <dirent.h>
#include <functional>
#include <iterator>
#include <map>
#include <optional>
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

/// One experiment flag: a spec key, parsed by workload::ApplyExperimentKey
/// exactly as in a spec file, registered as a string flag with the CLI's
/// default text. --spec overrides them all.
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

/// Flags besides the experiment flags that a sweep driver hands on to its
/// workers.
constexpr const char* kWorkerFlags[] = {"spec", "metrics", "max_sim_events", "max_wall_ms",
                                        "threads"};

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
  std::array<std::string, kNumExperimentFlags> experiment_text;
  std::string spec_path;
  std::string format = "table";
  std::string json_path;
  bool collect_metrics = false;
  bool help = false;
  bool print_spec = false;
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

  for (size_t i = 0; i < kNumExperimentFlags; ++i) {
    experiment_text[i] = kExperimentFlags[i].default_text;
    flags.AddString(kExperimentFlags[i].key, &experiment_text[i], kExperimentFlags[i].help);
  }
  flags.AddString("spec", &spec_path, "experiment spec file (overrides other flags)");
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
    // from the same inputs (kExperimentFlags and kWorkerFlags as given), so
    // every worker builds the identical task grid. Resume mode replays the
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

      // Each flag goes to the workers as the text given here, so they parse
      // exactly what this driver parsed.
      std::vector<std::string> base{argv[0]};
      auto forward = [&](const std::string& name) {
        if (std::optional<std::string> text = flags.Given(name)) {
          base.push_back("--" + name + "=" + *text);
        }
      };
      for (const ExperimentFlag& flag : kExperimentFlags) {
        forward(flag.key);
      }
      for (const char* name : kWorkerFlags) {
        forward(name);
      }

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
  auto results = core::RunSweep(units, threads, deadline);
  if (!results.ok()) {
    std::fprintf(stderr, "%s\n", results.status().ToString().c_str());
    return 1;
  }
  return EmitResults(units, *results, format, json_path);
}

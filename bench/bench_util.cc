#include "bench_util.h"

#include <cstdio>
#include <cstdlib>
#include <memory>
#include <thread>
#include <utility>
#include <vector>

#include "core/result_json.h"
#include "stats/ascii_chart.h"
#include "util/atomic_file.h"
#include "util/check.h"
#include "util/status.h"
#include "util/str.h"

namespace emsim::bench {

namespace {

/// Experiments recorded by Run() for the JSON artifact. Heap-held results
/// keep NamedExperiment pointers stable as the log grows.
struct RecordedExperiment {
  std::string name;
  core::MergeConfig config;
  std::unique_ptr<core::ExperimentResult> result;
};

std::vector<RecordedExperiment>& Recorded() {
  static std::vector<RecordedExperiment>* log = new std::vector<RecordedExperiment>();
  return *log;
}

}  // namespace

int Trials() {
  static int trials = [] {
    // NOLINTNEXTLINE(concurrency-mt-unsafe) - read once before any pool work
    const char* env = std::getenv("EMSIM_BENCH_TRIALS");
    if (env == nullptr || *env == '\0') {
      return kTrials;
    }
    int parsed = std::atoi(env);
    return parsed >= 1 ? parsed : kTrials;
  }();
  return trials;
}

int Threads() {
  static int threads = [] {
    // NOLINTNEXTLINE(concurrency-mt-unsafe) - read once before any pool work
    const char* env = std::getenv("EMSIM_BENCH_THREADS");
    if (env == nullptr || *env == '\0') {
      return 1;  // Serial by default: stable numbers beat idle-core usage.
    }
    int parsed = std::atoi(env);
    if (parsed == 0) {
      unsigned hw = std::thread::hardware_concurrency();
      return hw > 0 ? static_cast<int>(hw) : 2;
    }
    return parsed >= 1 ? parsed : 1;
  }();
  return threads;
}

namespace {

core::ExperimentResult Record(const core::MergeConfig& config,
                              core::ExperimentResult result, const std::string& name) {
  auto held = std::make_unique<core::ExperimentResult>(std::move(result));
  core::ExperimentResult copy = *held;
  std::string point_name =
      name.empty() ? StrFormat("point_%03zu", Recorded().size()) : name;
  Recorded().push_back(RecordedExperiment{std::move(point_name), config, std::move(held)});
  return copy;
}

}  // namespace

core::ExperimentResult Run(const core::MergeConfig& config, const std::string& name) {
  return Record(config, core::RunTrials(config, Trials(), Threads()), name);
}

std::vector<core::ExperimentResult> RunSweep(const std::vector<core::MergeConfig>& configs) {
  std::vector<core::SweepUnit> units;
  units.reserve(configs.size());
  for (const core::MergeConfig& config : configs) {
    units.push_back(core::SweepUnit{"", config, Trials()});
  }
  Result<std::vector<core::ExperimentResult>> results = core::RunSweep(units, Threads());
  EMSIM_CHECK_MSG(results.ok(), results.status().ToString().c_str());
  std::vector<core::ExperimentResult> out;
  out.reserve(results->size());
  for (size_t i = 0; i < results->size(); ++i) {
    out.push_back(Record(configs[i], std::move((*results)[i]), ""));
  }
  return out;
}

void EmitFigure(const stats::Figure& figure) {
  std::printf("%s\n", figure.ToTable().c_str());
  std::printf("%s\n", stats::RenderAsciiChart(figure).c_str());
  std::printf("--- CSV ---\n%s\n", figure.ToCsv().c_str());
}

void EmitTable(const std::string& title, const stats::Table& table,
               const std::string& note) {
  std::printf("== %s ==\n%s", title.c_str(), table.ToString().c_str());
  if (!note.empty()) {
    std::printf("note: %s\n", note.c_str());
  }
  std::printf("\n");
}

void WriteJsonArtifact(const std::string& bench_name) {
  // NOLINTNEXTLINE(concurrency-mt-unsafe) - called from main after workers idle
  const char* toggle = std::getenv("EMSIM_BENCH_JSON");
  if (toggle != nullptr && std::string(toggle) == "0") {
    return;
  }
  std::vector<core::NamedExperiment> named;
  named.reserve(Recorded().size());
  for (const RecordedExperiment& r : Recorded()) {
    named.push_back(core::NamedExperiment{r.name, r.config, r.result.get()});
  }
  std::string doc = core::ExperimentSetToJson(named);
  // NOLINTNEXTLINE(concurrency-mt-unsafe) - called from main after workers idle
  const char* dir = std::getenv("EMSIM_BENCH_JSON_DIR");
  std::string path = StrFormat("%s%sBENCH_%s.json", dir != nullptr ? dir : "",
                               dir != nullptr && *dir != '\0' ? "/" : "",
                               bench_name.c_str());
  Status written = util::WriteFileAtomic(path, doc);
  if (!written.ok()) {
    std::fprintf(stderr, "bench_util: %s\n", written.ToString().c_str());
    return;
  }
  std::printf("json artifact: %s (%zu experiments)\n", path.c_str(), named.size());
}

void Banner(const std::string& experiment_id, const std::string& what) {
  Banner(experiment_id, what,
         StrFormat("1000 blocks/run\ntrials per point: %d (mean reported, ±95%% CI where shown)",
                   Trials()));
}

void Banner(const std::string& experiment_id, const std::string& what,
            const std::string& geometry) {
  std::printf("==============================================================\n");
  std::printf("emsim reproduction | %s\n", experiment_id.c_str());
  std::printf("%s\n", what.c_str());
  std::printf("disk: S=0.01 ms/cyl, R=8.33 ms, T=2.5641 ms/block, %s\n", geometry.c_str());
  std::printf("==============================================================\n\n");
}

std::string TimeCell(const core::ExperimentResult& result) {
  auto ci = result.TotalSecondsCi();
  return StrFormat("%.2f ±%.2f", ci.mean, ci.half_width);
}

}  // namespace emsim::bench

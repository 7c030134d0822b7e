// Extension X-SORT: real sorted runs driving the timing simulator. Records
// are generated and sorted into runs, and the block-depletion order of a
// k-way merge of those runs (computed from the sorted records, see
// extsort/depletion_trace.h) replaces the paper's random depletion model; the
// simulator then times that trace under each prefetching strategy. This
// checks that the paper's conclusions transfer from the stochastic model to
// genuine merges.


#include <algorithm>
#include <cstddef>
#include <cstdint>
#include <string>
#include <utility>
#include <vector>

#include "bench_util.h"
#include "core/config.h"
#include "core/merge_simulator.h"
#include "extsort/depletion_trace.h"
#include "extsort/record.h"
#include "extsort/run_formation.h"
#include "stats/table.h"
#include "util/check.h"
#include "util/str.h"
#include "workload/record_generator.h"

namespace emsim {
namespace {

using core::MergeConfig;
using core::Strategy;
using core::SyncMode;
using stats::Table;
using workload::KeyDistribution;

extsort::DepletionTrace BuildTrace(KeyDistribution dist,
                                   extsort::RunFormationStrategy strategy) {
  workload::RecordGeneratorOptions gen_opt;
  gen_opt.distribution = dist;
  gen_opt.seed = 2026;
  workload::RecordGenerator gen(gen_opt);
  std::vector<extsort::Record> input;
  const size_t n = 1000000;
  input.reserve(n);
  for (size_t i = 0; i < n; ++i) {
    input.push_back({gen.NextKey(), i});
  }
  extsort::RunFormationOptions rf;
  rf.memory_records = 40000;  // 25 load-sort runs of ~157 blocks each.
  rf.strategy = strategy;
  auto runs = extsort::FormRuns(input, rf);
  EMSIM_CHECK_MSG(runs.ok(), runs.status().ToString().c_str());
  auto trace = extsort::ExtractDepletionTrace(*runs, extsort::kRecordsPerBlock);
  EMSIM_CHECK_MSG(trace.ok(), trace.status().ToString().c_str());
  return *std::move(trace);
}

double TimeTrace(const extsort::DepletionTrace& bundle, Strategy strategy, int n,
                 int64_t cache) {
  MergeConfig cfg;
  cfg.num_runs = static_cast<int>(bundle.run_blocks.size());
  cfg.num_disks = 5;
  cfg.run_lengths = bundle.run_blocks;
  cfg.prefetch_depth = n;
  cfg.cache_blocks = cache;
  cfg.strategy = strategy;
  cfg.sync = SyncMode::kUnsynchronized;
  cfg.depletion = core::DepletionKind::kTrace;
  cfg.trace = bundle.trace;
  auto result = core::SimulateMerge(cfg);
  EMSIM_CHECK_MSG(result.ok(), result.status().ToString().c_str());
  return result->total_ms / 1e3;
}

// "25 runs of 157 blocks", or a block range when the runs are unequal.
std::string RunGeometry(const extsort::DepletionTrace& bundle) {
  auto [shortest, longest] =
      std::minmax_element(bundle.run_blocks.begin(), bundle.run_blocks.end());
  if (*shortest == *longest) {
    return StrFormat("%zu runs of %lld blocks", bundle.run_blocks.size(),
                     static_cast<long long>(*shortest));
  }
  return StrFormat("%zu runs of %lld-%lld blocks", bundle.run_blocks.size(),
                   static_cast<long long>(*shortest), static_cast<long long>(*longest));
}

const char* DistName(KeyDistribution dist) {
  switch (dist) {
    case KeyDistribution::kUniform:
      return "uniform keys";
    case KeyDistribution::kZipf:
      return "zipf keys";
    case KeyDistribution::kNearlySorted:
      return "nearly-sorted keys";
    case KeyDistribution::kReverseSorted:
      return "reverse-sorted keys";
  }
  return "?";
}

}  // namespace
}  // namespace emsim

int main() {
  using namespace emsim;
  auto ls = BuildTrace(workload::KeyDistribution::kUniform,
                       extsort::RunFormationStrategy::kLoadSort);
  auto rs = BuildTrace(workload::KeyDistribution::kUniform,
                       extsort::RunFormationStrategy::kReplacementSelection);
  bench::Banner(
      "Extension X-SORT: real external sort -> trace-driven timing",
      "1M 16-byte records, load-sort runs (40k records each, 25 runs), real\n"
      "k-way merge depletion traces timed on 5 disks at N in {1,10}. Expected\n"
      "shape: All Disks One Run beats Demand Run Only on real traces too;\n"
      "nearly-sorted input (disjoint ranges -> sequential depletion) is the\n"
      "stress case for inter-run prefetching.",
      StrFormat("real runs (uniform keys):\n"
                "load-sort %s, replacement selection %s\n"
                "one SimulateMerge per cell at seed 1 (single trials, no means or CIs)",
                RunGeometry(ls).c_str(), RunGeometry(rs).c_str()));

  // Fair comparison at equal memory: both strategies get the same cache
  // (1000 blocks, ~1/4 of the ~3925-block dataset).
  const int64_t kCache = 1000;
  Table table({"key distribution", "runs", "DRO N=1 (s)", "DRO N=10 (s)",
               "ADOR N=10 (s)", "ADOR speedup"});
  for (auto dist : {workload::KeyDistribution::kUniform, workload::KeyDistribution::kZipf,
                    workload::KeyDistribution::kNearlySorted}) {
    auto bundle = BuildTrace(dist, extsort::RunFormationStrategy::kLoadSort);
    double dro1 = TimeTrace(bundle, core::Strategy::kDemandRunOnly, 1,
                            static_cast<int64_t>(bundle.run_blocks.size()));
    double dro10 = TimeTrace(bundle, core::Strategy::kDemandRunOnly, 10, kCache);
    double ador10 = TimeTrace(bundle, core::Strategy::kAllDisksOneRun, 10, kCache);
    table.AddRow({DistName(dist),
                  Table::Cell(static_cast<double>(bundle.run_blocks.size()), 0),
                  Table::Cell(dro1), Table::Cell(dro10), Table::Cell(ador10),
                  Table::Cell(dro10 / ador10, 2)});
  }
  bench::EmitTable("Real-merge traces under the paper's strategies (cache = 1000 blocks)",
                   table);

  // Replacement selection: fewer, longer, unequal runs.
  Table table2({"run formation", "runs", "DRO N=10 (s)", "ADOR N=10 (s)"});
  table2.AddRow({"load-sort", Table::Cell(static_cast<double>(ls.run_blocks.size()), 0),
                 Table::Cell(TimeTrace(ls, core::Strategy::kDemandRunOnly, 10, kCache)),
                 Table::Cell(TimeTrace(ls, core::Strategy::kAllDisksOneRun, 10, kCache))});
  table2.AddRow({"replacement selection",
                 Table::Cell(static_cast<double>(rs.run_blocks.size()), 0),
                 Table::Cell(TimeTrace(rs, core::Strategy::kDemandRunOnly, 10, kCache)),
                 Table::Cell(TimeTrace(rs, core::Strategy::kAllDisksOneRun, 10, kCache))});
  bench::EmitTable("Run formation strategy (fewer, longer runs -> fewer seeks)", table2);
  return 0;
}

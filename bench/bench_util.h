#ifndef EMSIM_BENCH_BENCH_UTIL_H_
#define EMSIM_BENCH_BENCH_UTIL_H_

#include <string>
#include <vector>

#include "core/config.h"
#include "core/experiment.h"
#include "stats/series.h"
#include "stats/table.h"

namespace emsim::bench {

/// Default number of averaged trials per experiment point (paper's count is
/// OCR-lost; 5 keeps every bench binary under a minute).
inline constexpr int kTrials = 5;

/// Trials per point actually used: kTrials, or the EMSIM_BENCH_TRIALS
/// environment override (EMSIM_BENCH_TRIALS=2 for a quick look).
int Trials();

/// Worker-pool parallelism for experiment points: 1 (serial — the default,
/// so bench numbers on developer machines are not polluted by oversubscribed
/// threads), or the EMSIM_BENCH_THREADS override ("0" = hardware
/// concurrency, N = exactly N threads).
int Threads();

/// Runs the config for Trials() trials and returns the aggregate. Every call
/// is also recorded (as "point_NNN" in call order, or under `name`) for
/// WriteJsonArtifact.
core::ExperimentResult Run(const core::MergeConfig& config,
                           const std::string& name = "");

/// Runs a batch of configs — Trials() trials each — through one flattened
/// config × trial task space on the shared worker pool, so small per-point
/// trial counts still fill every thread. Results come back in input order,
/// and each point is recorded for WriteJsonArtifact exactly as if Run() had
/// been called in sequence (identical artifact bytes).
std::vector<core::ExperimentResult> RunSweep(const std::vector<core::MergeConfig>& configs);

/// Prints a figure (table + CSV) with a standard banner.
void EmitFigure(const stats::Figure& figure);

/// Prints a paper-vs-measured table with a banner and a shape note.
void EmitTable(const std::string& title, const stats::Table& table,
               const std::string& note = "");

/// Writes every experiment recorded by Run() since process start as a
/// schema-stable JSON document (core::ExperimentSetToJson) to
/// BENCH_<bench_name>.json (the fig-3.2 and fault-degradation ones are
/// pinned by golden anchors). Directory from EMSIM_BENCH_JSON_DIR (default:
/// working directory); set EMSIM_BENCH_JSON=0 to disable. Call once at the
/// end of main.
void WriteJsonArtifact(const std::string& bench_name);

/// Standard banner for a bench binary: the paper's 1000-block runs and
/// Trials() trials per point.
void Banner(const std::string& experiment_id, const std::string& what);

/// Banner for a bench whose runs and trials differ from the paper grid;
/// `geometry` follows the disk parameters and says what they are.
void Banner(const std::string& experiment_id, const std::string& what,
            const std::string& geometry);

/// Formats "x.xx ±y.yy" seconds from an experiment aggregate.
std::string TimeCell(const core::ExperimentResult& result);

}  // namespace emsim::bench

#endif  // EMSIM_BENCH_BENCH_UTIL_H_

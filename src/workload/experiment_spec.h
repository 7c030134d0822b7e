#ifndef EMSIM_WORKLOAD_EXPERIMENT_SPEC_H_
#define EMSIM_WORKLOAD_EXPERIMENT_SPEC_H_

#include <string>
#include <vector>

#include "core/config.h"
#include "util/status.h"

namespace emsim::workload {

/// A named experiment parsed from a spec file.
struct ExperimentSpec {
  std::string name;
  core::MergeConfig config;
  int trials = 5;
};

/// Parses a simple INI-style experiment spec:
///
///     # defaults apply to every experiment
///     trials = 5
///     disks = 5
///
///     [baseline]
///     runs = 25
///     strategy = demand-run-only
///     n = 1
///
///     [best]
///     runs = 25
///     strategy = all-disks-one-run
///     n = 10
///     sync = unsync
///
/// Recognized keys: runs, disks, blocks, n, cache, strategy
/// (demand-run-only | all-disks-one-run), sync (sync | unsync), admission
/// (conservative | greedy), victim (random | round-robin | fewest-buffered
/// | nearest-head), depletion (uniform | zipf), zipf_theta, cpu_ms,
/// write_traffic (none | separate | shared), write_disks, write_batch,
/// trials, seed, and the fault-injection family fault_media_error_rate,
/// fault_spike_rate, fault_spike_ms, fault_slow_disk, fault_slow_factor,
/// fault_slow_start_ms, fault_slow_end_ms, fault_stop_disk,
/// fault_stop_start_ms, fault_stop_end_ms, fault_seed, fault_max_retries,
/// fault_timeout_ms, fault_backoff_ms, fault_backoff_mult (see
/// docs/ROBUSTNESS.md). Any section key accepts a comma-separated sweep, so
/// `fault_slow_factor = 1,2,4,8` expands into one experiment per severity.
/// Keys before the first section set defaults. Unknown keys, bad values and
/// empty specs are errors with line numbers; when `source` is nonempty every
/// message is prefixed "<source>:<line>:" so a spec loaded from disk reports
/// the offending file and line together.
Result<std::vector<ExperimentSpec>> ParseExperimentSpec(const std::string& text,
                                                        const std::string& source = "");

/// Parses `value` for one recognized key (the list above) into `spec`: the
/// one parser of every experiment key, shared by spec files and emsim_cli's
/// experiment flags. A bad value or unknown key is InvalidArgument naming
/// the key; cross-field checks are left to MergeConfig::Validate.
Status ApplyExperimentKey(const std::string& key, const std::string& value,
                          ExperimentSpec* spec);

/// Reads and parses a spec file from disk. Parse errors carry the path as
/// their source, i.e. "specs/paper.ini:12: unknown key 'runz'".
Result<std::vector<ExperimentSpec>> LoadExperimentSpec(const std::string& path);

/// Renders a config back into spec syntax (round-trip aid and
/// self-documentation for tools). Parsing the output restores every spec
/// key's field exactly: doubles print with %g when that reads back to the
/// same value and with %.17g otherwise.
std::string ToSpec(const ExperimentSpec& spec);

}  // namespace emsim::workload

#endif  // EMSIM_WORKLOAD_EXPERIMENT_SPEC_H_

#ifndef EMSIM_CORE_RESULT_JSON_H_
#define EMSIM_CORE_RESULT_JSON_H_

#include <string>
#include <vector>

#include "core/config.h"
#include "core/experiment.h"
#include "core/result.h"
#include "stats/json_writer.h"

namespace emsim::core {

/// Version of the JSON export schema below. Bump on any breaking change to
/// key names or structure; additive changes keep the version.
inline constexpr int kJsonSchemaVersion = 1;

/// One named experiment for export: the configuration it ran and its
/// aggregated trials.
struct NamedExperiment {
  std::string name;
  MergeConfig config;
  const ExperimentResult* result = nullptr;
};

/// Appends the configuration / result as a JSON object to `w` (the caller
/// owns surrounding structure). Deterministic: identical inputs produce
/// identical bytes.
void WriteJson(stats::JsonWriter& w, const MergeConfig& config);
void WriteJson(stats::JsonWriter& w, const MergeResult& result);
void WriteJson(stats::JsonWriter& w, const ExperimentResult& result);

/// Full export document: {"schema_version", "generator", "experiments":[...]}.
/// This is the format `emsim_cli --json` and the bench JSON artifacts emit
/// and CI diffs across commits.
std::string ExperimentSetToJson(const std::vector<NamedExperiment>& experiments);

}  // namespace emsim::core

#endif  // EMSIM_CORE_RESULT_JSON_H_

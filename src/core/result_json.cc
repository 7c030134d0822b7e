#include "core/result_json.h"

#include <cstdint>

#include "core/result_fields.h"
#include "disk/disk.h"
#include "disk/layout.h"
#include "obs/metrics.h"
#include "stats/accumulator.h"
#include "stats/confidence.h"

namespace emsim::core {

namespace {

const char* PlacementName(disk::RunPlacement placement) {
  switch (placement) {
    case disk::RunPlacement::kRoundRobin:
      return "round-robin";
    case disk::RunPlacement::kBlocked:
      return "blocked";
    case disk::RunPlacement::kStriped:
      return "striped";
  }
  return "unknown";
}

/// Mean / ci95 / min / max summary of one accumulator.
void WriteAccumulator(stats::JsonWriter& w, const stats::Accumulator& acc) {
  w.BeginObject();
  w.Field("count", acc.count());
  w.Field("mean", acc.Mean());
  w.Field("stddev", acc.StdDev());
  w.Field("min", acc.Min());
  w.Field("max", acc.Max());
  w.Field("ci95_half_width", stats::MeanConfidence95(acc).half_width);
  w.EndObject();
}

void WriteDiskStats(stats::JsonWriter& w, const disk::DiskStats& s) {
  w.BeginObject();
  w.Field("requests", s.requests);
  w.Field("demand_requests", s.demand_requests);
  w.Field("blocks_transferred", s.blocks_transferred);
  w.Field("seeks", s.seeks);
  w.Field("seek_cylinders", s.seek_cylinders);
  w.Field("seek_ms", s.seek_ms);
  w.Field("rotation_ms", s.rotation_ms);
  w.Field("transfer_ms", s.transfer_ms);
  w.Field("queue_wait_ms", s.queue_wait_ms);
  w.Field("max_queue_length", static_cast<uint64_t>(s.max_queue_length));
  w.EndObject();
}

}  // namespace

void WriteJson(stats::JsonWriter& w, const MergeConfig& config) {
  w.BeginObject();
  w.Field("num_runs", config.num_runs);
  w.Field("num_disks", config.num_disks);
  w.Field("blocks_per_run", config.blocks_per_run);
  w.Field("prefetch_depth", config.prefetch_depth);
  w.Field("cache_blocks", config.EffectiveCacheBlocks());
  w.Field("strategy", StrategyName(config.strategy));
  w.Field("sync", SyncModeName(config.sync));
  w.Field("admission", AdmissionPolicyName(config.admission));
  w.Field("victim", VictimPolicyName(config.victim));
  w.Field("depletion", DepletionKindName(config.depletion));
  w.Field("zipf_theta", config.zipf_theta);
  w.Field("write_traffic", WriteTrafficName(config.write_traffic));
  w.Field("placement", PlacementName(config.placement));
  w.Field("cpu_ms_per_block", config.cpu_ms_per_block);
  w.Field("seed", config.seed);
  // Gated on injection so fault-free artifacts stay byte-identical to the
  // pre-fault schema (acceptance-tested against frozen baselines).
  if (config.fault.InjectionEnabled()) {
    w.Key("fault");
    w.BeginObject();
    w.Field("media_error_rate", config.fault.media_error_rate);
    w.Field("latency_spike_rate", config.fault.latency_spike_rate);
    w.Field("latency_spike_ms", config.fault.latency_spike_ms);
    w.Field("fail_slow_disk", config.fault.fail_slow_disk);
    w.Field("fail_slow_factor", config.fault.fail_slow_factor);
    w.Field("fail_slow_start_ms", config.fault.fail_slow_start_ms);
    w.Field("fail_slow_end_ms", config.fault.fail_slow_end_ms);
    w.Field("fail_stop_disk", config.fault.fail_stop_disk);
    w.Field("fail_stop_start_ms", config.fault.fail_stop_start_ms);
    w.Field("fail_stop_end_ms", config.fault.fail_stop_end_ms);
    w.Field("fault_seed", config.fault.seed);
    w.Field("max_retries", config.fault.retry.max_retries);
    w.Field("timeout_ms", config.fault.retry.timeout_ms);
    w.Field("backoff_base_ms", config.fault.retry.backoff_base_ms);
    w.Field("backoff_multiplier", config.fault.retry.backoff_multiplier);
    w.EndObject();
  }
  w.EndObject();
}

void WriteJson(stats::JsonWriter& w, const MergeResult& result) {
  w.BeginObject();
  w.Field("total_seconds", result.TotalSeconds());
  w.Field("blocks_merged", result.blocks_merged);
  w.Field("io_operations", result.io_operations);
  w.Field("full_admissions", result.full_admissions);
  w.Field("success_ratio", result.SuccessRatio());
  w.Field("demand_stalls", result.demand_stalls);
  w.Field("cache_hits", result.cache_hits);
  w.Field("cpu_busy_ms", result.cpu_busy_ms);
  w.Field("avg_concurrency", result.avg_concurrency);
  w.Field("disk_active_fraction", result.disk_active_fraction);
  w.Field("mean_cache_occupancy", result.mean_cache_occupancy);
  w.Field("sim_events", result.sim_events);
  w.Key("stall_ms");
  WriteAccumulator(w, result.stall_ms);
  w.Key("disk_totals");
  WriteDiskStats(w, result.disk_totals);
  w.Key("cache");
  JsonFieldWriter(w).Write(result.cache_stats);
  w.Key("per_disk");
  w.BeginArray();
  for (const disk::DiskUtilization& u : result.per_disk) {
    w.BeginObject();
    w.Field("id", u.id);
    w.Field("busy_fraction", u.busy_fraction);
    w.Field("mean_queue_length", u.mean_queue_length);
    w.Key("stats");
    WriteDiskStats(w, u.stats);
    w.EndObject();
  }
  w.EndArray();
  if (result.write_blocks > 0 || result.write_requests > 0) {
    w.Key("writes");
    w.BeginObject();
    w.Field("blocks", result.write_blocks);
    w.Field("requests", result.write_requests);
    w.Field("stalls", result.write_stalls);
    w.Field("drain_ms", result.write_drain_ms);
    w.EndObject();
  }
  if (result.fault.injection_enabled) {
    // Explicit zeros: a fault sweep's "no faults happened" is data, while a
    // fault-free trial omits the block entirely (byte-identity with the
    // pre-fault schema).
    w.Key("fault");
    w.BeginObject();
    w.Field("media_errors", result.fault.media_errors);
    w.Field("latency_spikes", result.fault.latency_spikes);
    w.Field("timeouts", result.fault.timeouts);
    w.Field("retries", result.fault.retries);
    w.Field("dropped_requests", result.fault.dropped_requests);
    w.Field("permanent_failures", result.fault.permanent_failures);
    w.Field("degraded_plans", result.fault.degraded_plans);
    w.Field("quarantine_events", result.fault.quarantine_events);
    w.Field("backoff_ms", result.fault.backoff_ms);
    w.Field("fail_stop_ms", result.fault.fail_stop_ms);
    w.Field("quarantine_ms", result.fault.quarantine_ms);
    w.EndObject();
  }
  if (!result.metrics.empty()) {
    w.Key("metrics");
    w.BeginObject();
    for (const obs::MetricsRegistry::Sample& sample : result.metrics) {
      w.Field(sample.name, sample.value);
    }
    w.EndObject();
  }
  w.EndObject();
}

void WriteJson(stats::JsonWriter& w, const ExperimentResult& result) {
  w.BeginObject();
  w.Field("num_trials", static_cast<uint64_t>(result.trials.size()));
  w.Key("aggregate");
  w.BeginObject();
  w.Field("total_seconds_mean", result.MeanTotalSeconds());
  w.Field("total_seconds_ci95_half_width", result.TotalSecondsCi().half_width);
  w.Field("success_ratio_mean", result.MeanSuccessRatio());
  w.Field("concurrency_mean", result.MeanConcurrency());
  w.Key("total_ms");
  WriteAccumulator(w, result.total_ms);
  w.Key("success_ratio");
  WriteAccumulator(w, result.success_ratio);
  w.Key("concurrency");
  WriteAccumulator(w, result.concurrency);
  w.Key("io_operations");
  WriteAccumulator(w, result.io_operations);
  w.Key("cache_occupancy");
  WriteAccumulator(w, result.cache_occupancy);
  w.EndObject();
  w.Key("per_trial");
  w.BeginArray();
  for (const MergeResult& trial : result.trials) {
    WriteJson(w, trial);
  }
  w.EndArray();
  w.EndObject();
}

std::string ExperimentSetToJson(const std::vector<NamedExperiment>& experiments) {
  stats::JsonWriter w;
  w.BeginObject();
  w.Field("schema_version", kJsonSchemaVersion);
  w.Field("generator", "emsim");
  w.Key("experiments");
  w.BeginArray();
  for (const NamedExperiment& e : experiments) {
    w.BeginObject();
    w.Field("name", e.name);
    w.Key("config");
    WriteJson(w, e.config);
    if (e.result != nullptr) {
      w.Key("result");
      WriteJson(w, *e.result);
    }
    w.EndObject();
  }
  w.EndArray();
  w.EndObject();
  return w.Take();
}

}  // namespace emsim::core

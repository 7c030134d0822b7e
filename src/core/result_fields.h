#ifndef EMSIM_CORE_RESULT_FIELDS_H_
#define EMSIM_CORE_RESULT_FIELDS_H_

#include <concepts>
#include <cstddef>
#include <cstdint>
#include <string>
#include <type_traits>
#include <vector>

#include "cache/block_cache.h"
#include "core/result.h"
#include "disk/disk.h"
#include "fault/fault_plan.h"
#include "obs/metrics.h"
#include "stats/accumulator.h"
#include "stats/json_writer.h"

namespace emsim::core {

// The field table of MergeResult and of every struct it holds. Each
// VisitFields lists its struct's fields once, with their shard-codec keys,
// in wire order; the codec (sweep/shard.cc) and DiffFields both walk it, so
// a new field is added here and nowhere else. A visitor `v` supplies:
//
//   v.Field(key, leaf[, on_wire])  a bool, integer, double or std::string;
//                                  the codec skips it when `on_wire` is false
//   v.Object(key, sub)             a struct with its own VisitFields
//   v.Array(key, items)            a std::vector of such structs
//
// Each overload takes its struct const, or mutable for a walk that writes
// through the leaves (the codec's decoder).

template <typename S, typename T>
concept FieldsOf = std::same_as<std::remove_const_t<S>, T>;

template <FieldsOf<disk::DiskStats> S, typename V>
void VisitFields(S& s, V& v) {
  v.Field("requests", s.requests);
  v.Field("demand_requests", s.demand_requests);
  v.Field("blocks_transferred", s.blocks_transferred);
  v.Field("seeks", s.seeks);
  v.Field("seek_cylinders", s.seek_cylinders);
  v.Field("seek_ms", s.seek_ms);
  v.Field("rotation_ms", s.rotation_ms);
  v.Field("transfer_ms", s.transfer_ms);
  v.Field("queue_wait_ms", s.queue_wait_ms);
  v.Field("max_queue_length", s.max_queue_length);
  v.Field("media_errors", s.media_errors);
  v.Field("latency_spikes", s.latency_spikes);
  v.Field("dropped_requests", s.dropped_requests);
  v.Field("fail_stop_ms", s.fail_stop_ms);
  v.Field("fault_extra_ms", s.fault_extra_ms);
}

template <FieldsOf<cache::CacheStats> S, typename V>
void VisitFields(S& s, V& v) {
  v.Field("deposits", s.deposits);
  v.Field("consumptions", s.consumptions);
  v.Field("reservations_granted", s.reservations_granted);
  v.Field("reservations_denied", s.reservations_denied);
  v.Field("blocks_reserved", s.blocks_reserved);
  v.Field("peak_occupancy", s.peak_occupancy);
}

template <FieldsOf<fault::FaultStats> S, typename V>
void VisitFields(S& s, V& v) {
  v.Field("injection_enabled", s.injection_enabled);
  v.Field("media_errors", s.media_errors);
  v.Field("latency_spikes", s.latency_spikes);
  v.Field("timeouts", s.timeouts);
  v.Field("retries", s.retries);
  v.Field("dropped_requests", s.dropped_requests);
  v.Field("permanent_failures", s.permanent_failures);
  v.Field("degraded_plans", s.degraded_plans);
  v.Field("quarantine_events", s.quarantine_events);
  v.Field("backoff_ms", s.backoff_ms);
  v.Field("fail_stop_ms", s.fail_stop_ms);
  v.Field("quarantine_ms", s.quarantine_ms);
}

template <FieldsOf<disk::DiskUtilization> S, typename V>
void VisitFields(S& s, V& v) {
  v.Field("id", s.id);
  v.Field("busy_fraction", s.busy_fraction);
  v.Field("mean_queue_length", s.mean_queue_length);
  v.Object("stats", s.stats);
}

template <FieldsOf<obs::MetricsRegistry::Sample> S, typename V>
void VisitFields(S& s, V& v) {
  v.Field("name", s.name);
  v.Field("value", s.value);
}

template <FieldsOf<stats::Accumulator::State> S, typename V>
void VisitFields(S& s, V& v) {
  v.Field("count", s.count);
  // min/max are ±inf sentinels when empty, which JSON cannot carry: the
  // wire holds the empty state as its count alone (read before this line).
  const bool observed = s.count > 0;
  v.Field("mean", s.mean, observed);
  v.Field("m2", s.m2, observed);
  v.Field("min", s.min, observed);
  v.Field("max", s.max, observed);
}

/// An accumulator is visited through its exact State; a mutable walk
/// restores it from the visited state.
template <FieldsOf<stats::Accumulator> S, typename V>
void VisitFields(S& acc, V& v) {
  stats::Accumulator::State s = acc.state();
  VisitFields(s, v);
  if constexpr (!std::is_const_v<S>) {
    acc = stats::Accumulator::FromState(s);
  }
}

template <FieldsOf<MergeResult> S, typename V>
void VisitFields(S& r, V& v) {
  v.Field("total_ms", r.total_ms);
  v.Field("blocks_merged", r.blocks_merged);
  v.Field("io_operations", r.io_operations);
  v.Field("full_admissions", r.full_admissions);
  v.Field("demand_stalls", r.demand_stalls);
  v.Field("cache_hits", r.cache_hits);
  v.Field("cpu_busy_ms", r.cpu_busy_ms);
  v.Field("avg_concurrency", r.avg_concurrency);
  v.Field("disk_active_fraction", r.disk_active_fraction);
  v.Field("mean_cache_occupancy", r.mean_cache_occupancy);
  v.Object("disk_totals", r.disk_totals);
  v.Object("cache_stats", r.cache_stats);
  v.Object("stall_ms", r.stall_ms);
  v.Field("write_blocks", r.write_blocks);
  v.Field("write_requests", r.write_requests);
  v.Field("write_stalls", r.write_stalls);
  v.Field("write_drain_ms", r.write_drain_ms);
  v.Field("sim_events", r.sim_events);
  v.Object("fault", r.fault);
  v.Array("per_disk", r.per_disk);
  v.Array("metrics", r.metrics);
}

/// Writes a struct as a JSON object with one member per visited field, in
/// table order.
class JsonFieldWriter {
 public:
  explicit JsonFieldWriter(stats::JsonWriter& w) : w_(w) {}

  template <typename S>
  void Write(const S& s) {
    w_.BeginObject();
    VisitFields(s, *this);
    w_.EndObject();
  }

  template <typename T>
  void Field(const char* key, const T& leaf, bool on_wire = true) {
    if (!on_wire) {
      return;
    }
    if constexpr (std::is_same_v<T, size_t>) {
      // JsonWriter has no size_t overload where size_t is not uint64_t.
      w_.Field(key, static_cast<uint64_t>(leaf));
    } else {
      w_.Field(key, leaf);
    }
  }
  template <typename S>
  void Object(const char* key, const S& sub) {
    w_.Key(key);
    Write(sub);
  }
  template <typename S>
  void Array(const char* key, const std::vector<S>& items) {
    w_.Key(key);
    w_.BeginArray();
    for (const S& item : items) {
      Write(item);
    }
    w_.EndArray();
  }

 private:
  stats::JsonWriter& w_;
};

/// One line per leaf where `a` and `b` differ, naming its dotted path and
/// both values ("per_disk[2].stats.media_errors: 0 vs 3"), and one per
/// vector of different length ("metrics: size 4 vs size 0"). Doubles
/// compare by bit pattern, so -0.0 and 0.0 differ, as their encodings do.
std::vector<std::string> DiffFields(const MergeResult& a, const MergeResult& b);

}  // namespace emsim::core

#endif  // EMSIM_CORE_RESULT_FIELDS_H_

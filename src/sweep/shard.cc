#include "sweep/shard.h"

#include <charconv>
#include <cstddef>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <string_view>
#include <system_error>
#include <utility>

#include "disk/disk.h"
#include "obs/metrics.h"
#include "stats/accumulator.h"
#include "stats/json_writer.h"
#include "sweep/json_value.h"
#include "util/check.h"
#include "util/str.h"

namespace emsim::sweep {

namespace {

// ---------------------------------------------------------------------------
// Encode helpers
// ---------------------------------------------------------------------------

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
  w.Field("media_errors", s.media_errors);
  w.Field("latency_spikes", s.latency_spikes);
  w.Field("dropped_requests", s.dropped_requests);
  w.Field("fail_stop_ms", s.fail_stop_ms);
  w.Field("fault_extra_ms", s.fault_extra_ms);
  w.EndObject();
}

void WriteAccumulatorState(stats::JsonWriter& w, const stats::Accumulator& acc) {
  stats::Accumulator::State s = acc.state();
  w.BeginObject();
  w.Field("count", s.count);
  if (s.count > 0) {
    // min/max are ±inf sentinels when empty — JSON has no Inf, so the empty
    // state is encoded by the count alone.
    w.Field("mean", s.mean);
    w.Field("m2", s.m2);
    w.Field("min", s.min);
    w.Field("max", s.max);
  }
  w.EndObject();
}

void WriteMergeResult(stats::JsonWriter& w, const core::MergeResult& r) {
  w.BeginObject();
  w.Field("total_ms", r.total_ms);
  w.Field("blocks_merged", r.blocks_merged);
  w.Field("io_operations", r.io_operations);
  w.Field("full_admissions", r.full_admissions);
  w.Field("demand_stalls", r.demand_stalls);
  w.Field("cache_hits", r.cache_hits);
  w.Field("cpu_busy_ms", r.cpu_busy_ms);
  w.Field("avg_concurrency", r.avg_concurrency);
  w.Field("disk_active_fraction", r.disk_active_fraction);
  w.Field("mean_cache_occupancy", r.mean_cache_occupancy);
  w.Key("disk_totals");
  WriteDiskStats(w, r.disk_totals);
  w.Key("cache_stats");
  w.BeginObject();
  w.Field("deposits", r.cache_stats.deposits);
  w.Field("consumptions", r.cache_stats.consumptions);
  w.Field("reservations_granted", r.cache_stats.reservations_granted);
  w.Field("reservations_denied", r.cache_stats.reservations_denied);
  w.Field("blocks_reserved", r.cache_stats.blocks_reserved);
  w.Field("peak_occupancy", r.cache_stats.peak_occupancy);
  w.EndObject();
  w.Key("stall_ms");
  WriteAccumulatorState(w, r.stall_ms);
  w.Field("write_blocks", r.write_blocks);
  w.Field("write_requests", r.write_requests);
  w.Field("write_stalls", r.write_stalls);
  w.Field("write_drain_ms", r.write_drain_ms);
  w.Field("sim_events", r.sim_events);
  w.Key("fault");
  w.BeginObject();
  w.Field("injection_enabled", r.fault.injection_enabled);
  w.Field("media_errors", r.fault.media_errors);
  w.Field("latency_spikes", r.fault.latency_spikes);
  w.Field("timeouts", r.fault.timeouts);
  w.Field("retries", r.fault.retries);
  w.Field("dropped_requests", r.fault.dropped_requests);
  w.Field("permanent_failures", r.fault.permanent_failures);
  w.Field("degraded_plans", r.fault.degraded_plans);
  w.Field("quarantine_events", r.fault.quarantine_events);
  w.Field("backoff_ms", r.fault.backoff_ms);
  w.Field("fail_stop_ms", r.fault.fail_stop_ms);
  w.Field("quarantine_ms", r.fault.quarantine_ms);
  w.EndObject();
  w.Key("per_disk");
  w.BeginArray();
  for (const disk::DiskUtilization& u : r.per_disk) {
    w.BeginObject();
    w.Field("id", u.id);
    w.Field("busy_fraction", u.busy_fraction);
    w.Field("mean_queue_length", u.mean_queue_length);
    w.Key("stats");
    WriteDiskStats(w, u.stats);
    w.EndObject();
  }
  w.EndArray();
  w.Key("metrics");
  w.BeginArray();
  for (const obs::MetricsRegistry::Sample& sample : r.metrics) {
    w.BeginObject();
    w.Field("name", sample.name);
    w.Field("value", sample.value);
    w.EndObject();
  }
  w.EndArray();
  w.EndObject();
}

// ---------------------------------------------------------------------------
// Decode helpers
// ---------------------------------------------------------------------------

Result<const JsonNode*> Field(const JsonNode& obj, const char* key) {
  const JsonNode* v = obj.Find(key);
  if (v == nullptr) {
    return Status::Corruption(StrFormat("shard artifact: missing field '%s'", key));
  }
  return v;
}

size_t CountItems(const JsonNode& array) {
  size_t count = 0;
  for ([[maybe_unused]] const JsonNode& item : array.children()) {
    ++count;
  }
  return count;
}

Status ReadU64(const JsonNode& obj, const char* key, uint64_t* out) {
  auto v = Field(obj, key);
  EMSIM_RETURN_IF_ERROR(v.status());
  if ((*v)->kind != JsonNode::Kind::kNumber || !(*v)->is_integral || (*v)->is_negative) {
    return Status::Corruption(StrFormat("shard artifact: '%s' is not a u64", key));
  }
  *out = (*v)->magnitude;
  return Status::OK();
}

Status ReadI64(const JsonNode& obj, const char* key, int64_t* out) {
  auto v = Field(obj, key);
  EMSIM_RETURN_IF_ERROR(v.status());
  if ((*v)->kind != JsonNode::Kind::kNumber || !(*v)->is_integral) {
    return Status::Corruption(StrFormat("shard artifact: '%s' is not an integer", key));
  }
  uint64_t mag = (*v)->magnitude;
  if ((*v)->is_negative) {
    if (mag > static_cast<uint64_t>(INT64_MAX) + 1) {
      return Status::Corruption(StrFormat("shard artifact: '%s' out of range", key));
    }
    *out = static_cast<int64_t>(0 - mag);
  } else {
    if (mag > static_cast<uint64_t>(INT64_MAX)) {
      return Status::Corruption(StrFormat("shard artifact: '%s' out of range", key));
    }
    *out = static_cast<int64_t>(mag);
  }
  return Status::OK();
}

Status ReadInt(const JsonNode& obj, const char* key, int* out) {
  int64_t v = 0;
  EMSIM_RETURN_IF_ERROR(ReadI64(obj, key, &v));
  if (v < INT32_MIN || v > INT32_MAX) {
    return Status::Corruption(StrFormat("shard artifact: '%s' out of int range", key));
  }
  *out = static_cast<int>(v);
  return Status::OK();
}

Status ReadDouble(const JsonNode& obj, const char* key, double* out) {
  auto v = Field(obj, key);
  EMSIM_RETURN_IF_ERROR(v.status());
  if ((*v)->kind != JsonNode::Kind::kNumber) {
    return Status::Corruption(StrFormat("shard artifact: '%s' is not a number", key));
  }
  *out = (*v)->number;
  return Status::OK();
}

Status ReadBool(const JsonNode& obj, const char* key, bool* out) {
  auto v = Field(obj, key);
  EMSIM_RETURN_IF_ERROR(v.status());
  if ((*v)->kind != JsonNode::Kind::kBool) {
    return Status::Corruption(StrFormat("shard artifact: '%s' is not a bool", key));
  }
  *out = (*v)->bool_value;
  return Status::OK();
}

Status ReadString(const JsonNode& obj, const char* key, std::string* out) {
  auto v = Field(obj, key);
  EMSIM_RETURN_IF_ERROR(v.status());
  if ((*v)->kind != JsonNode::Kind::kString) {
    return Status::Corruption(StrFormat("shard artifact: '%s' is not a string", key));
  }
  out->assign((*v)->string);
  return Status::OK();
}

Status ReadDiskStats(const JsonNode& obj, disk::DiskStats* s) {
  uint64_t max_queue = 0;
  EMSIM_RETURN_IF_ERROR(ReadU64(obj, "requests", &s->requests));
  EMSIM_RETURN_IF_ERROR(ReadU64(obj, "demand_requests", &s->demand_requests));
  EMSIM_RETURN_IF_ERROR(ReadU64(obj, "blocks_transferred", &s->blocks_transferred));
  EMSIM_RETURN_IF_ERROR(ReadU64(obj, "seeks", &s->seeks));
  EMSIM_RETURN_IF_ERROR(ReadI64(obj, "seek_cylinders", &s->seek_cylinders));
  EMSIM_RETURN_IF_ERROR(ReadDouble(obj, "seek_ms", &s->seek_ms));
  EMSIM_RETURN_IF_ERROR(ReadDouble(obj, "rotation_ms", &s->rotation_ms));
  EMSIM_RETURN_IF_ERROR(ReadDouble(obj, "transfer_ms", &s->transfer_ms));
  EMSIM_RETURN_IF_ERROR(ReadDouble(obj, "queue_wait_ms", &s->queue_wait_ms));
  EMSIM_RETURN_IF_ERROR(ReadU64(obj, "max_queue_length", &max_queue));
  s->max_queue_length = static_cast<size_t>(max_queue);
  EMSIM_RETURN_IF_ERROR(ReadU64(obj, "media_errors", &s->media_errors));
  EMSIM_RETURN_IF_ERROR(ReadU64(obj, "latency_spikes", &s->latency_spikes));
  EMSIM_RETURN_IF_ERROR(ReadU64(obj, "dropped_requests", &s->dropped_requests));
  EMSIM_RETURN_IF_ERROR(ReadDouble(obj, "fail_stop_ms", &s->fail_stop_ms));
  EMSIM_RETURN_IF_ERROR(ReadDouble(obj, "fault_extra_ms", &s->fault_extra_ms));
  return Status::OK();
}

Status ReadAccumulator(const JsonNode& obj, stats::Accumulator* out) {
  stats::Accumulator::State s;
  EMSIM_RETURN_IF_ERROR(ReadU64(obj, "count", &s.count));
  if (s.count > 0) {
    EMSIM_RETURN_IF_ERROR(ReadDouble(obj, "mean", &s.mean));
    EMSIM_RETURN_IF_ERROR(ReadDouble(obj, "m2", &s.m2));
    EMSIM_RETURN_IF_ERROR(ReadDouble(obj, "min", &s.min));
    EMSIM_RETURN_IF_ERROR(ReadDouble(obj, "max", &s.max));
  }
  *out = stats::Accumulator::FromState(s);
  return Status::OK();
}

Status ReadMergeResult(const JsonNode& obj, core::MergeResult* r) {
  EMSIM_RETURN_IF_ERROR(ReadDouble(obj, "total_ms", &r->total_ms));
  EMSIM_RETURN_IF_ERROR(ReadI64(obj, "blocks_merged", &r->blocks_merged));
  EMSIM_RETURN_IF_ERROR(ReadU64(obj, "io_operations", &r->io_operations));
  EMSIM_RETURN_IF_ERROR(ReadU64(obj, "full_admissions", &r->full_admissions));
  EMSIM_RETURN_IF_ERROR(ReadU64(obj, "demand_stalls", &r->demand_stalls));
  EMSIM_RETURN_IF_ERROR(ReadU64(obj, "cache_hits", &r->cache_hits));
  EMSIM_RETURN_IF_ERROR(ReadDouble(obj, "cpu_busy_ms", &r->cpu_busy_ms));
  EMSIM_RETURN_IF_ERROR(ReadDouble(obj, "avg_concurrency", &r->avg_concurrency));
  EMSIM_RETURN_IF_ERROR(ReadDouble(obj, "disk_active_fraction", &r->disk_active_fraction));
  EMSIM_RETURN_IF_ERROR(ReadDouble(obj, "mean_cache_occupancy", &r->mean_cache_occupancy));

  auto disk_totals = Field(obj, "disk_totals");
  EMSIM_RETURN_IF_ERROR(disk_totals.status());
  EMSIM_RETURN_IF_ERROR(ReadDiskStats(**disk_totals, &r->disk_totals));

  auto cache_stats = Field(obj, "cache_stats");
  EMSIM_RETURN_IF_ERROR(cache_stats.status());
  EMSIM_RETURN_IF_ERROR(ReadU64(**cache_stats, "deposits", &r->cache_stats.deposits));
  EMSIM_RETURN_IF_ERROR(ReadU64(**cache_stats, "consumptions", &r->cache_stats.consumptions));
  EMSIM_RETURN_IF_ERROR(
      ReadU64(**cache_stats, "reservations_granted", &r->cache_stats.reservations_granted));
  EMSIM_RETURN_IF_ERROR(
      ReadU64(**cache_stats, "reservations_denied", &r->cache_stats.reservations_denied));
  EMSIM_RETURN_IF_ERROR(
      ReadU64(**cache_stats, "blocks_reserved", &r->cache_stats.blocks_reserved));
  EMSIM_RETURN_IF_ERROR(
      ReadI64(**cache_stats, "peak_occupancy", &r->cache_stats.peak_occupancy));

  auto stall = Field(obj, "stall_ms");
  EMSIM_RETURN_IF_ERROR(stall.status());
  EMSIM_RETURN_IF_ERROR(ReadAccumulator(**stall, &r->stall_ms));

  EMSIM_RETURN_IF_ERROR(ReadU64(obj, "write_blocks", &r->write_blocks));
  EMSIM_RETURN_IF_ERROR(ReadU64(obj, "write_requests", &r->write_requests));
  EMSIM_RETURN_IF_ERROR(ReadU64(obj, "write_stalls", &r->write_stalls));
  EMSIM_RETURN_IF_ERROR(ReadDouble(obj, "write_drain_ms", &r->write_drain_ms));
  EMSIM_RETURN_IF_ERROR(ReadU64(obj, "sim_events", &r->sim_events));

  auto fault = Field(obj, "fault");
  EMSIM_RETURN_IF_ERROR(fault.status());
  EMSIM_RETURN_IF_ERROR(ReadBool(**fault, "injection_enabled", &r->fault.injection_enabled));
  EMSIM_RETURN_IF_ERROR(ReadU64(**fault, "media_errors", &r->fault.media_errors));
  EMSIM_RETURN_IF_ERROR(ReadU64(**fault, "latency_spikes", &r->fault.latency_spikes));
  EMSIM_RETURN_IF_ERROR(ReadU64(**fault, "timeouts", &r->fault.timeouts));
  EMSIM_RETURN_IF_ERROR(ReadU64(**fault, "retries", &r->fault.retries));
  EMSIM_RETURN_IF_ERROR(ReadU64(**fault, "dropped_requests", &r->fault.dropped_requests));
  EMSIM_RETURN_IF_ERROR(ReadU64(**fault, "permanent_failures", &r->fault.permanent_failures));
  EMSIM_RETURN_IF_ERROR(ReadU64(**fault, "degraded_plans", &r->fault.degraded_plans));
  EMSIM_RETURN_IF_ERROR(ReadU64(**fault, "quarantine_events", &r->fault.quarantine_events));
  EMSIM_RETURN_IF_ERROR(ReadDouble(**fault, "backoff_ms", &r->fault.backoff_ms));
  EMSIM_RETURN_IF_ERROR(ReadDouble(**fault, "fail_stop_ms", &r->fault.fail_stop_ms));
  EMSIM_RETURN_IF_ERROR(ReadDouble(**fault, "quarantine_ms", &r->fault.quarantine_ms));

  auto per_disk = Field(obj, "per_disk");
  EMSIM_RETURN_IF_ERROR(per_disk.status());
  if ((*per_disk)->kind != JsonNode::Kind::kArray) {
    return Status::Corruption("shard artifact: 'per_disk' is not an array");
  }
  r->per_disk.reserve(CountItems(**per_disk));
  for (const JsonNode& entry : (*per_disk)->children()) {
    disk::DiskUtilization u;
    EMSIM_RETURN_IF_ERROR(ReadInt(entry, "id", &u.id));
    EMSIM_RETURN_IF_ERROR(ReadDouble(entry, "busy_fraction", &u.busy_fraction));
    EMSIM_RETURN_IF_ERROR(ReadDouble(entry, "mean_queue_length", &u.mean_queue_length));
    auto stats = Field(entry, "stats");
    EMSIM_RETURN_IF_ERROR(stats.status());
    EMSIM_RETURN_IF_ERROR(ReadDiskStats(**stats, &u.stats));
    r->per_disk.push_back(u);
  }

  auto metrics = Field(obj, "metrics");
  EMSIM_RETURN_IF_ERROR(metrics.status());
  if ((*metrics)->kind != JsonNode::Kind::kArray) {
    return Status::Corruption("shard artifact: 'metrics' is not an array");
  }
  r->metrics.reserve(CountItems(**metrics));
  for (const JsonNode& entry : (*metrics)->children()) {
    obs::MetricsRegistry::Sample sample;
    EMSIM_RETURN_IF_ERROR(ReadString(entry, "name", &sample.name));
    EMSIM_RETURN_IF_ERROR(ReadDouble(entry, "value", &sample.value));
    r->metrics.push_back(std::move(sample));
  }
  return Status::OK();
}

Result<StatusCode> ParseStatusCodeName(const std::string& name) {
  static constexpr StatusCode kCodes[] = {
      StatusCode::kOk,              StatusCode::kInvalidArgument,
      StatusCode::kNotFound,
      StatusCode::kOutOfRange,      StatusCode::kFailedPrecondition,
      StatusCode::kResourceExhausted, StatusCode::kInternal,
      StatusCode::kUnimplemented,   StatusCode::kCorruption,
      StatusCode::kIoError,         StatusCode::kDeadlineExceeded,
  };
  for (StatusCode code : kCodes) {
    if (name == StatusCodeName(code)) {
      return code;
    }
  }
  return Status::Corruption(StrFormat("shard artifact: unknown status code '%s'", name.c_str()));
}

}  // namespace

uint64_t Fnv1aDigest(std::string_view bytes) {
  uint64_t hash = 14695981039346656037ULL;  // FNV-1a offset basis.
  for (unsigned char c : bytes) {
    hash ^= c;
    hash *= 1099511628211ULL;  // FNV prime.
  }
  return hash;
}

namespace {

std::string FooterLine(size_t payload_size, uint64_t digest) {
  return StrFormat("#emsim-shard-footer v1 len=%llu fnv1a=%016llx\n",
                   static_cast<unsigned long long>(payload_size),
                   static_cast<unsigned long long>(digest));
}

}  // namespace

std::string SealShardArtifact(std::string payload) {
  if (payload.empty() || payload.back() != '\n') {
    payload.push_back('\n');
  }
  payload += FooterLine(payload.size(), Fnv1aDigest(payload));
  return payload;
}

Result<std::string_view> UnsealShardArtifact(std::string_view file_contents) {
  constexpr std::string_view kMarker = "#emsim-shard-footer ";
  size_t pos = file_contents.rfind(kMarker);
  if (pos == std::string_view::npos || (pos != 0 && file_contents[pos - 1] != '\n')) {
    return Status::Corruption(
        "shard artifact: integrity footer missing (truncated or pre-footer file?)");
  }
  std::string_view footer = file_contents.substr(pos);
  unsigned long long len = 0;
  char digest_hex[17] = {0};
  if (std::sscanf(std::string(footer).c_str(),
                  "#emsim-shard-footer v1 len=%llu fnv1a=%16[0-9a-f]", &len,
                  digest_hex) != 2 ||
      footer != FooterLine(len, std::strtoull(digest_hex, nullptr, 16))) {
    return Status::Corruption("shard artifact: malformed integrity footer");
  }
  std::string_view payload = file_contents.substr(0, pos);
  if (payload.size() != len) {
    return Status::Corruption(
        StrFormat("shard artifact: payload is %zu bytes but footer recorded %llu — "
                  "truncated or spliced body",
                  payload.size(), len));
  }
  uint64_t want = std::strtoull(digest_hex, nullptr, 16);
  uint64_t got = Fnv1aDigest(payload);
  if (got != want) {
    return Status::Corruption(
        StrFormat("shard artifact: content digest %016llx does not match footer %016llx — "
                  "payload corrupted after sealing",
                  static_cast<unsigned long long>(got),
                  static_cast<unsigned long long>(want)));
  }
  return payload;
}

ShardRange ShardSlice(int total_tasks, int shard_index, int num_shards) {
  EMSIM_CHECK(num_shards >= 1 && shard_index >= 0 && shard_index < num_shards);
  EMSIM_CHECK(total_tasks >= 0);
  int base = total_tasks / num_shards;
  int extra = total_tasks % num_shards;
  int begin = shard_index * base + (shard_index < extra ? shard_index : extra);
  int size = base + (shard_index < extra ? 1 : 0);
  return ShardRange{begin, begin + size};
}

bool ParseShardSpec(std::string_view text, int* index, int* count) {
  const char* const end = text.data() + text.size();
  auto parse = [end](const char* from, int* out) -> const char* {
    if (from == end || *from < '0' || *from > '9') {
      return nullptr;
    }
    auto [ptr, ec] = std::from_chars(from, end, *out);
    return ec == std::errc() ? ptr : nullptr;
  };
  const char* slash = parse(text.data(), index);
  if (slash == nullptr || slash == end || *slash != '/') {
    return false;
  }
  return parse(slash + 1, count) == end && *index < *count;
}

std::vector<core::SweepUnit> UnitsFromSpecs(
    const std::vector<workload::ExperimentSpec>& specs) {
  std::vector<core::SweepUnit> units;
  units.reserve(specs.size());
  for (const workload::ExperimentSpec& spec : specs) {
    units.push_back(core::SweepUnit{spec.name, spec.config, spec.trials});
  }
  return units;
}

uint64_t SpecDigest(const std::vector<core::SweepUnit>& units) {
  uint64_t hash = 14695981039346656037ULL;  // FNV-1a offset basis.
  auto mix = [&hash](const std::string& s) {
    for (unsigned char c : s) {
      hash ^= c;
      hash *= 1099511628211ULL;  // FNV prime.
    }
    hash ^= 0xFFu;  // Separator so field boundaries cannot alias.
    hash *= 1099511628211ULL;
  };
  for (const core::SweepUnit& unit : units) {
    workload::ExperimentSpec spec;
    spec.name = unit.name;
    spec.config = unit.config;
    spec.trials = unit.trials;
    mix(workload::ToSpec(spec));
  }
  return hash;
}

std::string EncodeShardArtifact(const ShardArtifact& artifact) {
  stats::JsonWriter w;
  w.BeginObject();
  w.Field("shard_schema_version", kShardSchemaVersion);
  w.Field("generator", "emsim-sweep-worker");
  w.Key("shard");
  w.BeginObject();
  w.Field("index", artifact.shard_index);
  w.Field("count", artifact.shard_count);
  w.Field("begin", artifact.range.begin);
  w.Field("end", artifact.range.end);
  w.Field("total_tasks", artifact.total_tasks);
  w.Field("spec_digest", StrFormat("%016llx",
                                   static_cast<unsigned long long>(artifact.spec_digest)));
  w.EndObject();
  w.Key("tasks");
  w.BeginArray();
  for (const ShardTask& task : artifact.tasks) {
    w.BeginObject();
    w.Field("task", task.task);
    w.Field("ok", task.ok);
    if (task.ok) {
      w.Key("result");
      WriteMergeResult(w, task.result);
    } else {
      w.Field("error_code", StatusCodeName(task.error.code()));
      w.Field("error_message", task.error.message());
    }
    w.EndObject();
  }
  w.EndArray();
  w.EndObject();
  return w.Take();
}

Result<ShardArtifact> DecodeShardArtifact(std::string_view text) {
  Result<JsonDocument> parsed = ParseJson(text);
  if (!parsed.ok()) {
    return Status::Corruption(
        StrFormat("shard artifact: %s", parsed.status().message().c_str()));
  }
  const JsonNode& doc = parsed->root();
  int version = 0;
  EMSIM_RETURN_IF_ERROR(ReadInt(doc, "shard_schema_version", &version));
  if (version != kShardSchemaVersion) {
    return Status::Corruption(
        StrFormat("shard artifact: schema version %d, expected %d", version,
                  kShardSchemaVersion));
  }
  ShardArtifact artifact;
  auto shard = Field(doc, "shard");
  EMSIM_RETURN_IF_ERROR(shard.status());
  EMSIM_RETURN_IF_ERROR(ReadInt(**shard, "index", &artifact.shard_index));
  EMSIM_RETURN_IF_ERROR(ReadInt(**shard, "count", &artifact.shard_count));
  EMSIM_RETURN_IF_ERROR(ReadInt(**shard, "begin", &artifact.range.begin));
  EMSIM_RETURN_IF_ERROR(ReadInt(**shard, "end", &artifact.range.end));
  EMSIM_RETURN_IF_ERROR(ReadInt(**shard, "total_tasks", &artifact.total_tasks));
  std::string digest_hex;
  EMSIM_RETURN_IF_ERROR(ReadString(**shard, "spec_digest", &digest_hex));
  char* end = nullptr;
  artifact.spec_digest = std::strtoull(digest_hex.c_str(), &end, 16);
  if (digest_hex.empty() || end != digest_hex.c_str() + digest_hex.size()) {
    return Status::Corruption("shard artifact: malformed spec_digest");
  }
  if (artifact.shard_count < 1 || artifact.shard_index < 0 ||
      artifact.shard_index >= artifact.shard_count || artifact.range.begin < 0 ||
      artifact.range.begin > artifact.range.end ||
      artifact.range.end > artifact.total_tasks) {
    return Status::Corruption("shard artifact: inconsistent shard header");
  }

  auto tasks = Field(doc, "tasks");
  EMSIM_RETURN_IF_ERROR(tasks.status());
  if ((*tasks)->kind != JsonNode::Kind::kArray) {
    return Status::Corruption("shard artifact: 'tasks' is not an array");
  }
  artifact.tasks.reserve(CountItems(**tasks));
  for (const JsonNode& entry : (*tasks)->children()) {
    ShardTask task;
    EMSIM_RETURN_IF_ERROR(ReadInt(entry, "task", &task.task));
    EMSIM_RETURN_IF_ERROR(ReadBool(entry, "ok", &task.ok));
    if (task.ok) {
      auto result = Field(entry, "result");
      EMSIM_RETURN_IF_ERROR(result.status());
      EMSIM_RETURN_IF_ERROR(ReadMergeResult(**result, &task.result));
    } else {
      std::string code_name;
      std::string message;
      EMSIM_RETURN_IF_ERROR(ReadString(entry, "error_code", &code_name));
      EMSIM_RETURN_IF_ERROR(ReadString(entry, "error_message", &message));
      Result<StatusCode> code = ParseStatusCodeName(code_name);
      if (!code.ok()) {
        return code.status();
      }
      task.error = Status(*code, std::move(message));
    }
    artifact.tasks.push_back(std::move(task));
  }
  return artifact;
}

ShardArtifact RunShard(const core::SweepGrid& grid, int shard_index, int shard_count,
                       int num_threads, const core::TrialDeadline& deadline) {
  ShardArtifact artifact;
  artifact.shard_index = shard_index;
  artifact.shard_count = shard_count;
  artifact.total_tasks = grid.total_tasks();
  artifact.range = ShardSlice(grid.total_tasks(), shard_index, shard_count);
  artifact.spec_digest = SpecDigest(grid.units());
  core::SweepRangeOutcome outcome =
      core::RunSweepRange(grid, artifact.range.begin, artifact.range.end, num_threads, deadline);
  if (!outcome.ok()) {
    ShardTask task;
    task.task = outcome.failed_task;
    task.ok = false;
    task.error = outcome.status;
    artifact.tasks.push_back(std::move(task));
    return artifact;
  }
  artifact.tasks.reserve(static_cast<size_t>(artifact.range.size()));
  for (int i = 0; i < artifact.range.size(); ++i) {
    ShardTask task;
    task.task = artifact.range.begin + i;
    task.result = std::move(outcome.results[static_cast<size_t>(i)]);
    artifact.tasks.push_back(std::move(task));
  }
  return artifact;
}

}  // namespace emsim::sweep

#include "sweep/shard.h"

#include <bit>
#include <charconv>
#include <cstddef>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <string_view>
#include <system_error>
#include <type_traits>
#include <utility>

#include "core/result_fields.h"
#include "stats/json_writer.h"
#include "sweep/json_value.h"
#include "util/check.h"
#include "util/str.h"

namespace emsim::sweep {

namespace {

// ---------------------------------------------------------------------------
// Decode helpers
// ---------------------------------------------------------------------------

Result<const JsonNode*> Member(const JsonNode& obj, const char* key) {
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

/// Reads member `key` of `obj` into `*out`, refusing a value that does not
/// fit the type of `*out`: bool, std::string, double, an unsigned integer
/// (a u64 on the wire), int64_t or int.
template <typename T>
Status Read(const JsonNode& obj, const char* key, T* out) {
  auto member = Member(obj, key);
  EMSIM_RETURN_IF_ERROR(member.status());
  const JsonNode& v = **member;
  auto refuse = [key](const char* defect) {
    return Status::Corruption(StrFormat("shard artifact: '%s' %s", key, defect));
  };
  if constexpr (std::is_same_v<T, bool>) {
    if (v.kind != JsonNode::Kind::kBool) {
      return refuse("is not a bool");
    }
    *out = v.bool_value;
  } else if constexpr (std::is_same_v<T, std::string>) {
    if (v.kind != JsonNode::Kind::kString) {
      return refuse("is not a string");
    }
    out->assign(v.string);
  } else if constexpr (std::is_same_v<T, double>) {
    if (v.kind != JsonNode::Kind::kNumber) {
      return refuse("is not a number");
    }
    *out = v.number;
  } else if constexpr (std::is_unsigned_v<T>) {
    if (v.kind != JsonNode::Kind::kNumber || !v.is_integral || v.is_negative) {
      return refuse("is not a u64");
    }
    *out = static_cast<T>(v.magnitude);
  } else {
    static_assert(std::is_same_v<T, int64_t> || std::is_same_v<T, int>);
    if (v.kind != JsonNode::Kind::kNumber || !v.is_integral) {
      return refuse("is not an integer");
    }
    // |INT64_MIN| is INT64_MAX + 1.
    if (v.magnitude > static_cast<uint64_t>(INT64_MAX) + (v.is_negative ? 1 : 0)) {
      return refuse("out of range");
    }
    int64_t value = static_cast<int64_t>(v.is_negative ? 0 - v.magnitude : v.magnitude);
    if constexpr (std::is_same_v<T, int>) {
      if (value < INT32_MIN || value > INT32_MAX) {
        return refuse("out of int range");
      }
    }
    *out = static_cast<T>(value);
  }
  return Status::OK();
}

/// Reads the fields the table visits into a struct, through Read; the first
/// error stops the walk.
class FieldReader {
 public:
  const Status& status() const { return status_; }

  template <typename T>
  void Field(const char* key, T& leaf, bool on_wire = true) {
    if (status_.ok() && on_wire) {
      status_ = Read(*obj_, key, &leaf);
    }
  }
  template <typename S>
  void Object(const char* key, S& sub) {
    if (const JsonNode* node = Find(key)) {
      ReadInto(*node, sub);
    }
  }
  template <typename S>
  void Array(const char* key, std::vector<S>& items) {
    const JsonNode* node = Find(key);
    if (node == nullptr) {
      return;
    }
    if (node->kind != JsonNode::Kind::kArray) {
      status_ = Status::Corruption(StrFormat("shard artifact: '%s' is not an array", key));
      return;
    }
    items.reserve(CountItems(*node));
    for (const JsonNode& entry : node->children()) {
      ReadInto(entry, items.emplace_back());
    }
  }

  /// Reads the members of `obj` into `s`.
  template <typename S>
  void ReadInto(const JsonNode& obj, S& s) {
    const JsonNode* outer = obj_;
    obj_ = &obj;
    core::VisitFields(s, *this);
    obj_ = outer;
  }

 private:
  /// Member `key` of the current object; nullptr once the walk has failed.
  const JsonNode* Find(const char* key) {
    if (!status_.ok()) {
      return nullptr;
    }
    auto member = Member(*obj_, key);
    status_ = member.status();
    return member.ok() ? *member : nullptr;
  }

  const JsonNode* obj_ = nullptr;
  Status status_;
};

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

constexpr uint64_t kFnvOffsetBasis = 14695981039346656037ULL;
constexpr uint64_t kFnvPrime = 1099511628211ULL;

}  // namespace

uint64_t Fnv1aDigest(std::string_view bytes) {
  uint64_t hash = kFnvOffsetBasis;
  for (unsigned char c : bytes) {
    hash ^= c;
    hash *= kFnvPrime;
  }
  return hash;
}

namespace {

/// FNV-1a stepped a little-endian 64-bit word at a time, then byte by byte
/// over the last size % 8 bytes. Each step h = (h ^ w) * prime is a
/// bijection of h, so a change confined to one word always changes the
/// digest.
uint64_t Fnv1aWordDigest(std::string_view bytes) {
  uint64_t hash = kFnvOffsetBasis;
  size_t i = 0;
  for (; i + sizeof(uint64_t) <= bytes.size(); i += sizeof(uint64_t)) {
    uint64_t word;
    std::memcpy(&word, bytes.data() + i, sizeof word);
    if constexpr (std::endian::native == std::endian::big) {
      word = __builtin_bswap64(word);
    }
    hash = (hash ^ word) * kFnvPrime;
  }
  for (; i < bytes.size(); ++i) {
    hash = (hash ^ static_cast<unsigned char>(bytes[i])) * kFnvPrime;
  }
  return hash;
}

constexpr std::string_view kFooterMarker = "#emsim-shard-footer ";
// The marker, " v2 len=", a 20-digit length, " fnv1a64w=", 16 hex digits
// and the newline fit in this many bytes.
constexpr size_t kFooterCapacity = 80;

std::string FooterLine(size_t payload_size, uint64_t digest) {
  return StrFormat("#emsim-shard-footer v2 len=%llu fnv1a64w=%016llx\n",
                   static_cast<unsigned long long>(payload_size),
                   static_cast<unsigned long long>(digest));
}

}  // namespace

std::string SealShardArtifact(std::string payload) {
  // One reservation for the newline and the footer, so appending them never
  // grows the buffer by doubling it.
  payload.reserve(payload.size() + 1 + kFooterCapacity);
  if (payload.empty() || payload.back() != '\n') {
    payload.push_back('\n');
  }
  payload += FooterLine(payload.size(), Fnv1aWordDigest(payload));
  return payload;
}

Result<std::string_view> UnsealShardArtifact(std::string_view file_contents) {
  size_t pos = file_contents.rfind(kFooterMarker);
  if (pos == std::string_view::npos || (pos != 0 && file_contents[pos - 1] != '\n')) {
    return Status::Corruption(
        "shard artifact: integrity footer missing (truncated or pre-footer file?)");
  }
  std::string_view footer = file_contents.substr(pos);
  std::string_view version = footer.substr(kFooterMarker.size());
  version = version.substr(0, version.find_first_of(" \n"));
  if (version != "v2") {
    return Status::Corruption(
        StrFormat("shard artifact: integrity footer version '%.*s' is not v2 — "
                  "re-run the worker that wrote it",
                  static_cast<int>(version.size()), version.data()));
  }
  unsigned long long len = 0;
  char digest_hex[17] = {0};
  if (std::sscanf(std::string(footer).c_str(),
                  "#emsim-shard-footer v2 len=%llu fnv1a64w=%16[0-9a-f]", &len,
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
  uint64_t got = Fnv1aWordDigest(payload);
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
      core::JsonFieldWriter(w).Write(task.result);
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
  EMSIM_RETURN_IF_ERROR(Read(doc, "shard_schema_version", &version));
  if (version != kShardSchemaVersion) {
    return Status::Corruption(
        StrFormat("shard artifact: schema version %d, expected %d", version,
                  kShardSchemaVersion));
  }
  ShardArtifact artifact;
  auto shard = Member(doc, "shard");
  EMSIM_RETURN_IF_ERROR(shard.status());
  EMSIM_RETURN_IF_ERROR(Read(**shard, "index", &artifact.shard_index));
  EMSIM_RETURN_IF_ERROR(Read(**shard, "count", &artifact.shard_count));
  EMSIM_RETURN_IF_ERROR(Read(**shard, "begin", &artifact.range.begin));
  EMSIM_RETURN_IF_ERROR(Read(**shard, "end", &artifact.range.end));
  EMSIM_RETURN_IF_ERROR(Read(**shard, "total_tasks", &artifact.total_tasks));
  std::string digest_hex;
  EMSIM_RETURN_IF_ERROR(Read(**shard, "spec_digest", &digest_hex));
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

  auto tasks = Member(doc, "tasks");
  EMSIM_RETURN_IF_ERROR(tasks.status());
  if ((*tasks)->kind != JsonNode::Kind::kArray) {
    return Status::Corruption("shard artifact: 'tasks' is not an array");
  }
  artifact.tasks.reserve(CountItems(**tasks));
  for (const JsonNode& entry : (*tasks)->children()) {
    ShardTask task;
    EMSIM_RETURN_IF_ERROR(Read(entry, "task", &task.task));
    EMSIM_RETURN_IF_ERROR(Read(entry, "ok", &task.ok));
    if (task.ok) {
      auto result = Member(entry, "result");
      EMSIM_RETURN_IF_ERROR(result.status());
      FieldReader reader;
      reader.ReadInto(**result, task.result);
      EMSIM_RETURN_IF_ERROR(reader.status());
    } else {
      std::string code_name;
      std::string message;
      EMSIM_RETURN_IF_ERROR(Read(entry, "error_code", &code_name));
      EMSIM_RETURN_IF_ERROR(Read(entry, "error_message", &message));
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

#include "sweep/shard.h"

#include <algorithm>
#include <bit>
#include <charconv>
#include <cmath>
#include <cstddef>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <iterator>
#include <string>
#include <string_view>
#include <system_error>
#include <type_traits>
#include <utility>

#include "core/result_fields.h"
#include "stats/json_writer.h"
#include "util/check.h"
#include "util/str.h"

namespace emsim::sweep {

namespace {

/// One number token: its double value and, when it has no '.', 'e' or 'E',
/// its exact magnitude, so every integer and double the encoder writes
/// reads back bit for bit.
struct Number {
  bool integral = true;
  bool negative = false;
  uint64_t magnitude = 0;
  double value = 0.0;
};

/// Reads a shard artifact front to back, in the order the encoder wrote it.
/// It is the field table's decode visitor (core/result_fields.h): Field,
/// Object and Array each step onto the next member, refuse a member of
/// another name as missing, and read its value by the leaf's type.
/// Whitespace may separate tokens; anything else the encoder would not
/// write, such as a reordered, unknown or duplicate member, is refused. The
/// first error stops the walk, and every later step does nothing.
class ArtifactReader {
 public:
  explicit ArtifactReader(std::string_view text) : text_(text) {}

  bool ok() const { return status_.ok(); }
  const Status& status() const { return status_; }

  /// Stops the walk with `status` unless an earlier error stopped it.
  void Fail(Status status) {
    if (status_.ok()) {
      status_ = std::move(status);
    }
  }

  /// Steps past the comma before the member (unless it is its object's
  /// first), the member's name, which must be `key`, and the colon.
  bool Member(const char* key) {
    if (!ok()) {
      return false;
    }
    const std::string_view name(key);
    if ((!first_member_ && !Consume(',')) || !Consume('"') || !ConsumeWord(name) ||
        !ConsumeWord("\"")) {
      Fail(Status::Corruption(StrFormat("shard artifact: missing field '%s'", key)));
      return false;
    }
    first_member_ = false;
    return Expect(':');
  }

  template <typename T>
  void Field(const char* key, T& leaf, bool on_wire = true) {
    if (on_wire && Member(key)) {
      ReadLeaf(key, &leaf);
    }
  }
  template <typename S>
  void Object(const char* key, S& sub) {
    if (Member(key)) {
      ReadObject(sub);
    }
  }
  template <typename S>
  void Array(const char* key, std::vector<S>& items) {
    // An array's length is not known before its items are read, so they go
    // into a per-thread buffer that outlives the decode, then move into an
    // exactly sized vector: one allocation per array once the buffer has
    // grown, where growing `items` itself would take several.
    thread_local std::vector<S> buffer;
    buffer.clear();
    ReadArray(key, buffer, [this](S& item) { ReadObject(item); });
    items.assign(std::make_move_iterator(buffer.begin()), std::make_move_iterator(buffer.end()));
  }

  /// Reads '{', the members `read_members` reads, then '}'.
  template <typename ReadMembers>
  void Braces(ReadMembers read_members) {
    if (!Expect('{')) {
      return;
    }
    first_member_ = true;
    read_members();
    Expect('}');
    first_member_ = false;
  }

  template <typename S>
  void ReadObject(S& s) {
    Braces([&] { core::VisitFields(s, *this); });
  }

  /// Reads member `key` as an array, each item through
  /// `read_item(items.emplace_back())`.
  template <typename S, typename ReadItem>
  void ReadArray(const char* key, std::vector<S>& items, ReadItem read_item) {
    if (!Member(key)) {
      return;
    }
    if (!Consume('[')) {
      Fail(Refusal(key, "is not an array"));
      return;
    }
    if (Consume(']')) {
      return;
    }
    do {
      read_item(items.emplace_back());
    } while (ok() && Consume(','));
    Expect(']');
  }

  /// Refuses anything but whitespace after the document.
  void End() {
    SkipWhitespace();
    if (ok() && pos_ != text_.size()) {
      Fail(Error("trailing characters after document"));
    }
  }

 private:
  /// A syntax error at the cursor.
  Status Error(const std::string& what) const {
    return Status::Corruption(
        StrFormat("shard artifact: json: %s at offset %zu", what.c_str(), pos_));
  }
  static Status Refusal(const char* key, const char* defect) {
    return Status::Corruption(StrFormat("shard artifact: '%s' %s", key, defect));
  }

  void SkipWhitespace() {
    while (pos_ < text_.size()) {
      char c = text_[pos_];
      if (c != ' ' && c != '\t' && c != '\n' && c != '\r') {
        break;
      }
      ++pos_;
    }
  }

  /// Steps past whitespace and `c`, if `c` comes next.
  bool Consume(char c) {
    SkipWhitespace();
    if (pos_ < text_.size() && text_[pos_] == c) {
      ++pos_;
      return true;
    }
    return false;
  }

  bool Expect(char c) {
    if (!ok()) {
      return false;
    }
    if (!Consume(c)) {
      Fail(Error(StrFormat("expected '%c'", c)));
      return false;
    }
    return true;
  }

  bool ConsumeWord(std::string_view word) {
    if (text_.substr(pos_, word.size()) == word) {
      pos_ += word.size();
      return true;
    }
    return false;
  }

  /// Reads the value at the cursor into `*out`, refusing one that does not
  /// fit its type: bool, std::string, double, an unsigned integer (a u64 on
  /// the wire), int64_t or int.
  template <typename T>
  void ReadLeaf(const char* key, T* out) {
    SkipWhitespace();
    const char next = pos_ < text_.size() ? text_[pos_] : '\0';
    if constexpr (std::is_same_v<T, bool>) {
      if (ConsumeWord("true")) {
        *out = true;
      } else if (ConsumeWord("false")) {
        *out = false;
      } else {
        Fail(Refusal(key, "is not a bool"));
      }
    } else if constexpr (std::is_same_v<T, std::string>) {
      if (next != '"') {
        Fail(Refusal(key, "is not a string"));
        return;
      }
      ReadString(out);
    } else {
      const char* kind = std::is_same_v<T, double>  ? "is not a number"
                         : std::is_unsigned_v<T> ? "is not a u64"
                                                 : "is not an integer";
      // Anything that does not open another kind of value is read as a
      // number, so a malformed one is refused as such.
      Number n;
      if (std::string_view("{[\"tfn").find(next) != std::string_view::npos) {
        Fail(Refusal(key, kind));
      } else if (!ReadNumber(&n)) {
        return;
      } else if constexpr (std::is_same_v<T, double>) {
        *out = n.value;
      } else if (!n.integral || (std::is_unsigned_v<T> && n.negative)) {
        Fail(Refusal(key, kind));
      } else if constexpr (std::is_unsigned_v<T>) {
        *out = static_cast<T>(n.magnitude);
      } else {
        static_assert(std::is_same_v<T, int64_t> || std::is_same_v<T, int>);
        // |INT64_MIN| is INT64_MAX + 1.
        if (n.magnitude > static_cast<uint64_t>(INT64_MAX) + (n.negative ? 1 : 0)) {
          Fail(Refusal(key, "out of range"));
          return;
        }
        int64_t value = static_cast<int64_t>(n.negative ? 0 - n.magnitude : n.magnitude);
        if (std::is_same_v<T, int> && (value < INT32_MIN || value > INT32_MAX)) {
          Fail(Refusal(key, "out of int range"));
          return;
        }
        *out = static_cast<T>(value);
      }
    }
  }

  /// Reads the string token at the cursor, unescaped, into `*out`.
  void ReadString(std::string* out) {
    ++pos_;  // '"'
    const size_t start = pos_;
    while (pos_ < text_.size() && text_[pos_] != '"' && text_[pos_] != '\\') {
      ++pos_;
    }
    out->assign(text_.substr(start, pos_ - start));
    while (pos_ < text_.size()) {
      char c = text_[pos_++];
      if (c == '"') {
        return;
      }
      if (c != '\\') {
        out->push_back(c);
        continue;
      }
      if (pos_ >= text_.size()) {
        break;
      }
      const char esc = text_[pos_++];
      constexpr std::string_view kEscapes = "\"\\/bfnrt";
      constexpr std::string_view kEscaped = "\"\\/\b\f\n\r\t";
      if (size_t e = kEscapes.find(esc); e != std::string_view::npos) {
        out->push_back(kEscaped[e]);
        continue;
      }
      if (esc != 'u') {
        Fail(Error("invalid escape"));
        return;
      }
      if (pos_ + 4 > text_.size()) {
        Fail(Error("truncated \\u escape"));
        return;
      }
      unsigned code = 0;
      const char* hex = text_.data() + pos_;
      if (std::from_chars(hex, hex + 4, code, 16).ptr != hex + 4) {
        Fail(Error("invalid \\u escape"));
        return;
      }
      // JsonWriter only escapes control characters, so a one-byte
      // reconstruction is exact for everything it emits.
      if (code > 0xFF) {
        Fail(Error("unsupported \\u escape above U+00FF"));
        return;
      }
      pos_ += 4;
      out->push_back(static_cast<char>(code));
    }
    Fail(Error("unterminated string"));
  }

  /// Reads the number token at the cursor. A token that overflows a double,
  /// or an integral one that overflows 64 bits, is an error; one that
  /// underflows reads as ±0.
  bool ReadNumber(Number* n) {
    const size_t start = pos_;
    n->negative = pos_ < text_.size() && text_[pos_] == '-';
    pos_ += n->negative ? 1 : 0;
    while (pos_ < text_.size()) {
      char c = text_[pos_];
      if (c >= '0' && c <= '9') {
        ++pos_;
      } else if (c == '.' || c == 'e' || c == 'E' || c == '+' || c == '-') {
        n->integral = false;
        ++pos_;
      } else {
        break;
      }
    }
    const char* first = text_.data() + start;
    const char* digits = first + (n->negative ? 1 : 0);
    const char* last = text_.data() + pos_;
    auto refuse = [&](const char* what) {
      pos_ = start;
      Fail(Error(what));
      return false;
    };
    if (digits == last) {
      return refuse("invalid number");
    }
    if (n->integral) {
      // u64 -> double rounds to nearest, exactly as parsing the digits would.
      if (std::from_chars(digits, last, n->magnitude).ec != std::errc()) {
        return refuse("integer out of range");
      }
      n->value = static_cast<double>(n->magnitude);
      if (n->negative) {
        n->value = -n->value;
      }
      return true;
    }
    // from_chars takes no leading '+', as JSON requires.
    auto [ptr, ec] = std::from_chars(first, last, n->value);
    if (ptr != last || (ec != std::errc() && ec != std::errc::result_out_of_range)) {
      return refuse("invalid number");
    }
    if (ec == std::errc::result_out_of_range) {
      // strtod tells overflow (±inf) from underflow, which reads as ±0.
      if (std::isinf(std::strtod(std::string(first, last).c_str(), nullptr))) {
        return refuse("number out of range");
      }
      n->value = n->negative ? -0.0 : 0.0;
    }
    return true;
  }

  std::string_view text_;
  size_t pos_ = 0;
  /// The next member is its object's first, with no comma before it.
  bool first_member_ = false;
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

/// The members of an artifact's "shard" object, checked for consistency.
void ReadShardHeader(ArtifactReader& in, ShardArtifact* artifact) {
  in.Field("index", artifact->shard_index);
  in.Field("count", artifact->shard_count);
  in.Field("begin", artifact->range.begin);
  in.Field("end", artifact->range.end);
  in.Field("total_tasks", artifact->total_tasks);
  std::string digest_hex;
  in.Field("spec_digest", digest_hex);
  if (!in.ok()) {
    return;
  }
  char* end = nullptr;
  artifact->spec_digest = std::strtoull(digest_hex.c_str(), &end, 16);
  if (digest_hex.empty() || end != digest_hex.c_str() + digest_hex.size()) {
    in.Fail(Status::Corruption("shard artifact: malformed spec_digest"));
  } else if (artifact->shard_count < 1 || artifact->shard_index < 0 ||
             artifact->shard_index >= artifact->shard_count || artifact->range.begin < 0 ||
             artifact->range.begin > artifact->range.end ||
             artifact->range.end > artifact->total_tasks) {
    in.Fail(Status::Corruption("shard artifact: inconsistent shard header"));
  }
}

/// The members of one task: its result, or its failure's status.
void ReadTask(ArtifactReader& in, ShardTask* task) {
  in.Field("task", task->task);
  in.Field("ok", task->ok);
  if (task->ok) {
    in.Object("result", task->result);
    return;
  }
  std::string code_name;
  std::string message;
  in.Field("error_code", code_name);
  in.Field("error_message", message);
  if (!in.ok()) {
    return;
  }
  Result<StatusCode> code = ParseStatusCodeName(code_name);
  if (!code.ok()) {
    in.Fail(code.status());
    return;
  }
  task->error = Status(*code, std::move(message));
}

constexpr uint64_t kFnvOffsetBasis = 14695981039346656037ULL;
constexpr uint64_t kFnvPrime = 1099511628211ULL;

}  // namespace

uint64_t Fnv1aDigest(std::string_view bytes) {
  uint64_t hash = kFnvOffsetBasis;
  for (unsigned char c : bytes) {
    hash = (hash ^ c) * kFnvPrime;
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
  uint64_t hash = kFnvOffsetBasis;
  auto mix = [&hash](const std::string& s) {
    for (unsigned char c : s) {
      hash = (hash ^ c) * kFnvPrime;
    }
    hash = (hash ^ 0xFFu) * kFnvPrime;  // Separator so field boundaries cannot alias.
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
  ArtifactReader in(text);
  ShardArtifact artifact;
  in.Braces([&] {
    int version = 0;
    in.Field("shard_schema_version", version);
    if (in.ok() && version != kShardSchemaVersion) {
      in.Fail(Status::Corruption(StrFormat("shard artifact: schema version %d, expected %d",
                                           version, kShardSchemaVersion)));
    }
    std::string generator;
    in.Field("generator", generator);
    if (in.Member("shard")) {
      in.Braces([&] { ReadShardHeader(in, &artifact); });
    }
    if (in.ok()) {
      // No task reads from fewer bytes of text, so a forged range cannot
      // reserve more tasks than the text could hold.
      constexpr size_t kMinTaskBytes = 48;
      artifact.tasks.reserve(std::min(static_cast<size_t>(artifact.range.size()),
                                      text.size() / kMinTaskBytes));
    }
    in.ReadArray("tasks", artifact.tasks,
                 [&in](ShardTask& task) { in.Braces([&] { ReadTask(in, &task); }); });
  });
  in.End();
  if (!in.ok()) {
    return in.status();
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

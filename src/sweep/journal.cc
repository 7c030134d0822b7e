#include "sweep/journal.h"

#include <cerrno>
#include <cstdlib>
#include <cstring>
#include <fcntl.h>
#include <string_view>
#include <sys/stat.h>
#include <unistd.h>
#include <utility>

#include "stats/json_writer.h"
#include "sweep/json_value.h"
#include "util/str.h"

namespace emsim::sweep {

namespace {

Status Errno(const char* what, const std::string& path) {
  return Status::IoError(StrFormat("%s %s: %s", what, path.c_str(), std::strerror(errno)));
}

constexpr struct {
  JournalRecord::Kind kind;
  const char* name;
} kKindNames[] = {
    {JournalRecord::Kind::kRunStart, "run_start"},
    {JournalRecord::Kind::kShardStart, "shard_start"},
    {JournalRecord::Kind::kShardDone, "shard_done"},
    {JournalRecord::Kind::kShardRetry, "shard_retry"},
    {JournalRecord::Kind::kShardFailed, "shard_failed"},
    {JournalRecord::Kind::kQuarantine, "quarantine"},
    {JournalRecord::Kind::kReclaim, "reclaim"},
    {JournalRecord::Kind::kDrain, "drain"},
    {JournalRecord::Kind::kRunDone, "run_done"},
};

std::string EncodeRecord(const JournalRecord& r) {
  // One-line rendering: JsonWriter pretty-prints multi-line, so the journal
  // formats its (flat, few-field) records directly. Strings go through
  // JsonWriter::Escape for correctness.
  std::string out = StrFormat("{\"kind\": \"%s\"", JournalRecordKindName(r.kind));
  if (r.shard >= 0) {
    out += StrFormat(", \"shard\": %d", r.shard);
  }
  if (r.attempt > 0) {
    out += StrFormat(", \"attempt\": %d", r.attempt);
  }
  if (!r.path.empty()) {
    out += StrFormat(", \"path\": \"%s\"", stats::JsonWriter::Escape(r.path).c_str());
  }
  if (r.kind == JournalRecord::Kind::kShardDone) {
    out += StrFormat(", \"digest\": \"%016llx\", \"size\": %llu",
                     static_cast<unsigned long long>(r.digest),
                     static_cast<unsigned long long>(r.size));
  }
  if (!r.detail.empty()) {
    out += StrFormat(", \"detail\": \"%s\"", stats::JsonWriter::Escape(r.detail).c_str());
  }
  if (r.kind == JournalRecord::Kind::kRunStart) {
    out += StrFormat(", \"spec_digest\": \"%016llx\", \"num_shards\": %d, \"total_tasks\": %d",
                     static_cast<unsigned long long>(r.spec_digest), r.num_shards,
                     r.total_tasks);
  }
  out += "}\n";
  return out;
}

Status ReadHex64(const JsonNode& obj, const char* key, uint64_t* out) {
  const JsonNode* v = obj.Find(key);
  if (v == nullptr || v->kind != JsonNode::Kind::kString) {
    return Status::Corruption(StrFormat("journal: missing hex field '%s'", key));
  }
  const std::string hex(v->string);
  char* end = nullptr;
  *out = std::strtoull(hex.c_str(), &end, 16);
  if (hex.empty() || end != hex.c_str() + hex.size()) {
    return Status::Corruption(StrFormat("journal: malformed hex field '%s'", key));
  }
  return Status::OK();
}

int FindInt(const JsonNode& obj, const char* key, int fallback) {
  const JsonNode* v = obj.Find(key);
  if (v == nullptr || v->kind != JsonNode::Kind::kNumber || !v->is_integral) {
    return fallback;
  }
  return static_cast<int>(v->is_negative ? -static_cast<int64_t>(v->magnitude)
                                         : static_cast<int64_t>(v->magnitude));
}

std::string_view FindString(const JsonNode& obj, const char* key) {
  const JsonNode* v = obj.Find(key);
  return (v != nullptr && v->kind == JsonNode::Kind::kString) ? v->string : std::string_view();
}

Result<JournalRecord> DecodeRecord(std::string_view line) {
  Result<JsonDocument> parsed = ParseJson(line);
  if (!parsed.ok()) {
    return Status::Corruption(StrFormat("journal: %s", parsed.status().message().c_str()));
  }
  const JsonNode& obj = parsed->root();
  std::string_view kind_name = FindString(obj, "kind");
  JournalRecord record;
  bool known = false;
  for (const auto& entry : kKindNames) {
    if (kind_name == entry.name) {
      record.kind = entry.kind;
      known = true;
      break;
    }
  }
  if (!known) {
    return Status::Corruption(StrFormat("journal: unknown record kind '%.*s'",
                                        static_cast<int>(kind_name.size()), kind_name.data()));
  }
  record.shard = FindInt(obj, "shard", -1);
  record.attempt = FindInt(obj, "attempt", 0);
  record.path = std::string(FindString(obj, "path"));
  record.detail = std::string(FindString(obj, "detail"));
  if (record.kind == JournalRecord::Kind::kShardDone) {
    EMSIM_RETURN_IF_ERROR(ReadHex64(obj, "digest", &record.digest));
    const JsonNode* size = obj.Find("size");
    if (size == nullptr || size->kind != JsonNode::Kind::kNumber || !size->is_integral ||
        size->is_negative) {
      return Status::Corruption("journal: shard_done record without a valid size");
    }
    record.size = size->magnitude;
  }
  if (record.kind == JournalRecord::Kind::kRunStart) {
    EMSIM_RETURN_IF_ERROR(ReadHex64(obj, "spec_digest", &record.spec_digest));
    record.num_shards = FindInt(obj, "num_shards", 0);
    record.total_tasks = FindInt(obj, "total_tasks", -1);
    if (record.num_shards < 1 || record.total_tasks < 0) {
      return Status::Corruption("journal: run_start record without a valid shard plan");
    }
  }
  return record;
}

}  // namespace

const char* JournalRecordKindName(JournalRecord::Kind kind) {
  for (const auto& entry : kKindNames) {
    if (entry.kind == kind) {
      return entry.name;
    }
  }
  return "unknown";
}

Result<RunJournal> RunJournal::Open(const std::string& run_dir) {
  if (::mkdir(run_dir.c_str(), 0755) != 0 && errno != EEXIST) {
    return Errno("cannot create run dir", run_dir);
  }
  RunJournal journal;
  journal.path_ = run_dir + "/" + kFileName;
  journal.fd_ =
      ::open(journal.path_.c_str(), O_WRONLY | O_CREAT | O_APPEND | O_CLOEXEC, 0644);
  if (journal.fd_ < 0) {
    return Errno("cannot open journal", journal.path_);
  }
  return journal;
}

RunJournal::RunJournal(RunJournal&& other) noexcept
    : path_(std::move(other.path_)), fd_(other.fd_) {
  other.fd_ = -1;
}

RunJournal& RunJournal::operator=(RunJournal&& other) noexcept {
  if (this != &other) {
    if (fd_ >= 0) {
      (void)::close(fd_);
    }
    path_ = std::move(other.path_);
    fd_ = other.fd_;
    other.fd_ = -1;
  }
  return *this;
}

RunJournal::~RunJournal() {
  if (fd_ >= 0) {
    (void)::close(fd_);
  }
}

Status RunJournal::Append(const JournalRecord& record) {
  if (fd_ < 0) {
    return Status::FailedPrecondition("journal: append on a moved-from journal");
  }
  std::string line = EncodeRecord(record);
  std::string_view data = line;
  while (!data.empty()) {
    ssize_t wrote = ::write(fd_, data.data(), data.size());
    if (wrote < 0) {
      if (errno == EINTR) {
        continue;
      }
      return Errno("cannot append to journal", path_);
    }
    data.remove_prefix(static_cast<size_t>(wrote));
  }
  if (::fsync(fd_) != 0) {
    return Errno("cannot fsync journal", path_);
  }
  return Status::OK();
}

Result<std::vector<JournalRecord>> RunJournal::Load(const std::string& run_dir) {
  std::string path = run_dir + "/" + kFileName;
  int fd = ::open(path.c_str(), O_RDONLY | O_CLOEXEC);
  if (fd < 0) {
    return Status::NotFound(StrFormat("no journal at %s — not a sweep run directory?",
                                      path.c_str()));
  }
  std::string text;
  char buf[1 << 16];
  ssize_t got = 0;
  while ((got = ::read(fd, buf, sizeof(buf))) > 0) {
    text.append(buf, static_cast<size_t>(got));
  }
  (void)::close(fd);

  std::vector<JournalRecord> records;
  size_t start = 0;
  while (start < text.size()) {
    size_t newline = text.find('\n', start);
    if (newline == std::string::npos) {
      break;  // Torn final record: the crash lost it; artifacts re-verify.
    }
    std::string_view line = std::string_view(text).substr(start, newline - start);
    start = newline + 1;
    if (line.empty()) {
      continue;
    }
    auto record = DecodeRecord(line);
    if (!record.ok()) {
      return Status::Corruption(StrFormat("%s:%zu: %s", path.c_str(), records.size() + 1,
                                          record.status().message().c_str()));
    }
    records.push_back(*std::move(record));
  }
  return records;
}

Result<RunLedger> ReplayJournal(const std::vector<JournalRecord>& records) {
  if (records.empty() || records.front().kind != JournalRecord::Kind::kRunStart) {
    return Status::Corruption("journal: no run_start record — empty or corrupt journal");
  }
  RunLedger ledger;
  ledger.spec_digest = records.front().spec_digest;
  ledger.num_shards = records.front().num_shards;
  ledger.total_tasks = records.front().total_tasks;
  for (const JournalRecord& r : records) {
    switch (r.kind) {
      case JournalRecord::Kind::kRunStart:
        break;
      case JournalRecord::Kind::kShardStart: {
        ShardLedger& shard = ledger.shards[r.shard];
        if (r.attempt > shard.attempts) {
          shard.attempts = r.attempt;
        }
        break;
      }
      case JournalRecord::Kind::kShardDone: {
        ShardLedger& shard = ledger.shards[r.shard];
        shard.done = true;
        shard.artifact_path = r.path;
        shard.artifact_digest = r.digest;
        break;
      }
      case JournalRecord::Kind::kShardRetry:
      case JournalRecord::Kind::kShardFailed:
        ledger.shards[r.shard].last_error = r.detail;
        break;
      case JournalRecord::Kind::kQuarantine: {
        // The artifact this shard had published is no longer trustworthy.
        ShardLedger& shard = ledger.shards[r.shard];
        shard.done = false;
        shard.artifact_path.clear();
        shard.artifact_digest = 0;
        break;
      }
      case JournalRecord::Kind::kReclaim:
        break;
      case JournalRecord::Kind::kDrain:
        ledger.drained = true;
        break;
      case JournalRecord::Kind::kRunDone:
        ledger.completed = true;
        break;
    }
  }
  return ledger;
}

}  // namespace emsim::sweep

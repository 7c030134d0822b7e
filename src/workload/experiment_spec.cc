#include "workload/experiment_spec.h"

#include <cerrno>
#include <cmath>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <limits>
#include <utility>

#include "util/str.h"

namespace emsim::workload {

namespace {

std::string Trim(const std::string& s) {
  size_t begin = s.find_first_not_of(" \t\r");
  if (begin == std::string::npos) {
    return "";
  }
  size_t end = s.find_last_not_of(" \t\r");
  return s.substr(begin, end - begin + 1);
}

/// Error-location prefix: "file.ini:12" when the spec names its source,
/// "line 12" for in-memory text (keeps the historical message shape).
std::string Where(const std::string& source, int line) {
  return source.empty() ? StrFormat("line %d", line)
                        : StrFormat("%s:%d", source.c_str(), line);
}

Status ApplyKey(const std::string& key, const std::string& value, ExperimentSpec* spec,
                const std::string& source, int line) {
  auto bad = [&](const std::string& why) {
    return Status::InvalidArgument(
        StrFormat("%s: %s", Where(source, line).c_str(), why.c_str()));
  };
  auto parse_int = [&](int64_t* out) -> Status {
    char* end = nullptr;
    errno = 0;
    long long v = std::strtoll(value.c_str(), &end, 10);
    if (end == value.c_str() || *end != '\0') {
      return bad(StrFormat("'%s' is not an integer for key '%s'", value.c_str(),
                           key.c_str()));
    }
    // strtoll saturates on overflow; without this check a huge literal would
    // be accepted, then truncated to garbage by the narrowing casts below
    // (found by fuzz_experiment_spec: the saturated value breaks the
    // ToSpec -> ParseExperimentSpec round-trip).
    if (errno == ERANGE) {
      return bad(StrFormat("'%s' is out of range for key '%s'", value.c_str(),
                           key.c_str()));
    }
    *out = v;
    return Status::OK();
  };
  auto parse_int32 = [&](int* out) -> Status {
    int64_t wide = 0;
    EMSIM_RETURN_IF_ERROR(parse_int(&wide));
    if (wide < std::numeric_limits<int>::min() ||
        wide > std::numeric_limits<int>::max()) {
      return bad(StrFormat("'%s' is out of range for key '%s'", value.c_str(),
                           key.c_str()));
    }
    *out = static_cast<int>(wide);
    return Status::OK();
  };
  auto parse_double = [&](double* out) -> Status {
    char* end = nullptr;
    double v = std::strtod(value.c_str(), &end);
    if (end == value.c_str() || *end != '\0') {
      return bad(StrFormat("'%s' is not a number for key '%s'", value.c_str(), key.c_str()));
    }
    // strtod accepts "nan" and "inf"; both slip past Validate's `x < 0`
    // range checks and abort deep inside the simulation.
    if (!std::isfinite(v)) {
      return bad(StrFormat("'%s' is not a finite number for key '%s'", value.c_str(),
                           key.c_str()));
    }
    *out = v;
    return Status::OK();
  };

  core::MergeConfig& cfg = spec->config;
  int64_t v = 0;
  if (key == "runs") {
    EMSIM_RETURN_IF_ERROR(parse_int32(&cfg.num_runs));
  } else if (key == "disks") {
    EMSIM_RETURN_IF_ERROR(parse_int32(&cfg.num_disks));
  } else if (key == "blocks") {
    EMSIM_RETURN_IF_ERROR(parse_int(&v));
    cfg.blocks_per_run = v;
  } else if (key == "n") {
    EMSIM_RETURN_IF_ERROR(parse_int32(&cfg.prefetch_depth));
  } else if (key == "cache") {
    EMSIM_RETURN_IF_ERROR(parse_int(&v));
    cfg.cache_blocks = v;
  } else if (key == "seed") {
    EMSIM_RETURN_IF_ERROR(parse_int(&v));
    cfg.seed = static_cast<uint64_t>(v);
  } else if (key == "trials") {
    EMSIM_RETURN_IF_ERROR(parse_int32(&spec->trials));
    if (spec->trials < 1) {
      return bad("trials must be >= 1");
    }
  } else if (key == "strategy") {
    auto parsed = core::ParseStrategy(value);
    if (!parsed.ok()) {
      return bad(parsed.status().message());
    }
    cfg.strategy = *parsed;
  } else if (key == "sync") {
    auto parsed = core::ParseSyncMode(value);
    if (!parsed.ok()) {
      return bad(parsed.status().message());
    }
    cfg.sync = *parsed;
  } else if (key == "admission") {
    auto parsed = core::ParseAdmissionPolicy(value);
    if (!parsed.ok()) {
      return bad(parsed.status().message());
    }
    cfg.admission = *parsed;
  } else if (key == "victim") {
    auto parsed = core::ParseVictimPolicy(value);
    if (!parsed.ok()) {
      return bad(parsed.status().message());
    }
    cfg.victim = *parsed;
  } else if (key == "depletion") {
    auto parsed = core::ParseDepletionKind(value);
    if (!parsed.ok()) {
      return bad(parsed.status().message());
    }
    if (*parsed == core::DepletionKind::kTrace) {
      return bad("trace depletion cannot be expressed in a spec file");
    }
    cfg.depletion = *parsed;
  } else if (key == "zipf_theta") {
    EMSIM_RETURN_IF_ERROR(parse_double(&cfg.zipf_theta));
  } else if (key == "cpu_ms") {
    EMSIM_RETURN_IF_ERROR(parse_double(&cfg.cpu_ms_per_block));
  } else if (key == "write_traffic") {
    auto parsed = core::ParseWriteTraffic(value);
    if (!parsed.ok()) {
      return bad(parsed.status().message());
    }
    cfg.write_traffic = *parsed;
  } else if (key == "write_disks") {
    EMSIM_RETURN_IF_ERROR(parse_int32(&cfg.num_write_disks));
  } else if (key == "write_batch") {
    EMSIM_RETURN_IF_ERROR(parse_int32(&cfg.write_batch_blocks));
  } else if (key == "fault_media_error_rate") {
    EMSIM_RETURN_IF_ERROR(parse_double(&cfg.fault.media_error_rate));
  } else if (key == "fault_spike_rate") {
    EMSIM_RETURN_IF_ERROR(parse_double(&cfg.fault.latency_spike_rate));
  } else if (key == "fault_spike_ms") {
    EMSIM_RETURN_IF_ERROR(parse_double(&cfg.fault.latency_spike_ms));
  } else if (key == "fault_slow_disk") {
    EMSIM_RETURN_IF_ERROR(parse_int32(&cfg.fault.fail_slow_disk));
  } else if (key == "fault_slow_factor") {
    EMSIM_RETURN_IF_ERROR(parse_double(&cfg.fault.fail_slow_factor));
  } else if (key == "fault_slow_start_ms") {
    EMSIM_RETURN_IF_ERROR(parse_double(&cfg.fault.fail_slow_start_ms));
  } else if (key == "fault_slow_end_ms") {
    EMSIM_RETURN_IF_ERROR(parse_double(&cfg.fault.fail_slow_end_ms));
  } else if (key == "fault_stop_disk") {
    EMSIM_RETURN_IF_ERROR(parse_int32(&cfg.fault.fail_stop_disk));
  } else if (key == "fault_stop_start_ms") {
    EMSIM_RETURN_IF_ERROR(parse_double(&cfg.fault.fail_stop_start_ms));
  } else if (key == "fault_stop_end_ms") {
    EMSIM_RETURN_IF_ERROR(parse_double(&cfg.fault.fail_stop_end_ms));
  } else if (key == "fault_seed") {
    EMSIM_RETURN_IF_ERROR(parse_int(&v));
    cfg.fault.seed = static_cast<uint64_t>(v);
  } else if (key == "fault_max_retries") {
    EMSIM_RETURN_IF_ERROR(parse_int32(&cfg.fault.retry.max_retries));
  } else if (key == "fault_timeout_ms") {
    EMSIM_RETURN_IF_ERROR(parse_double(&cfg.fault.retry.timeout_ms));
  } else if (key == "fault_backoff_ms") {
    EMSIM_RETURN_IF_ERROR(parse_double(&cfg.fault.retry.backoff_base_ms));
  } else if (key == "fault_backoff_mult") {
    EMSIM_RETURN_IF_ERROR(parse_double(&cfg.fault.retry.backoff_multiplier));
  } else {
    return bad(StrFormat("unknown key '%s'", key.c_str()));
  }
  return Status::OK();
}

}  // namespace

namespace {

struct RawKv {
  std::string key;
  std::string value;  // May contain commas: a sweep over values.
  int line;
};

struct RawSection {
  std::string name;
  std::vector<RawKv> kvs;
};

/// Expands a section's sweep keys (comma-separated values) into the cross
/// product of concrete experiments, suffixing names with "/key=value".
Status ExpandSection(const ExperimentSpec& defaults, const RawSection& section,
                     const std::string& source, std::vector<ExperimentSpec>* out) {
  std::vector<std::pair<ExperimentSpec, std::string>> variants;
  variants.emplace_back(defaults, section.name);
  constexpr size_t kMaxVariants = 1024;
  for (const RawKv& kv : section.kvs) {
    std::vector<std::string> values = StrSplit(kv.value, ',');
    for (std::string& v : values) {
      v.erase(0, v.find_first_not_of(" \t"));
      size_t end = v.find_last_not_of(" \t");
      if (end != std::string::npos) {
        v.resize(end + 1);
      }
      if (v.empty()) {
        return Status::InvalidArgument(
            StrFormat("%s: empty value in sweep for key '%s'",
                      Where(source, kv.line).c_str(), kv.key.c_str()));
      }
    }
    std::vector<std::pair<ExperimentSpec, std::string>> next;
    for (const auto& [spec, name] : variants) {
      for (const std::string& v : values) {
        ExperimentSpec candidate = spec;
        EMSIM_RETURN_IF_ERROR(ApplyKey(kv.key, v, &candidate, source, kv.line));
        std::string candidate_name =
            values.size() == 1 ? name : name + "/" + kv.key + "=" + v;
        next.emplace_back(std::move(candidate), std::move(candidate_name));
        if (next.size() > kMaxVariants) {
          return Status::InvalidArgument(
              StrFormat("section [%s] sweeps expand past %zu experiments",
                        section.name.c_str(), kMaxVariants));
        }
      }
    }
    variants = std::move(next);
  }
  for (auto& [spec, name] : variants) {
    spec.name = name;
    out->push_back(std::move(spec));
  }
  return Status::OK();
}

}  // namespace

Result<std::vector<ExperimentSpec>> ParseExperimentSpec(const std::string& text,
                                                        const std::string& source) {
  ExperimentSpec defaults;
  std::vector<RawSection> sections;
  RawSection* current = nullptr;

  int line_number = 0;
  for (const std::string& raw : StrSplit(text, '\n')) {
    ++line_number;
    std::string line = Trim(raw);
    size_t comment = line.find('#');
    if (comment != std::string::npos) {
      line = Trim(line.substr(0, comment));
    }
    if (line.empty()) {
      continue;
    }
    if (line.front() == '[') {
      if (line.back() != ']') {
        return Status::InvalidArgument(
            StrFormat("%s: unterminated section header",
                      Where(source, line_number).c_str()));
      }
      std::string name = Trim(line.substr(1, line.size() - 2));
      if (name.empty()) {
        return Status::InvalidArgument(
            StrFormat("%s: empty section name", Where(source, line_number).c_str()));
      }
      sections.push_back(RawSection{name, {}});
      current = &sections.back();
      continue;
    }
    size_t eq = line.find('=');
    if (eq == std::string::npos) {
      return Status::InvalidArgument(
          StrFormat("%s: expected 'key = value'", Where(source, line_number).c_str()));
    }
    std::string key = Trim(line.substr(0, eq));
    std::string value = Trim(line.substr(eq + 1));
    if (key.empty() || value.empty()) {
      return Status::InvalidArgument(
          StrFormat("%s: empty key or value", Where(source, line_number).c_str()));
    }
    if (current == nullptr) {
      // Defaults: applied immediately; no sweeps here.
      if (value.find(',') != std::string::npos) {
        return Status::InvalidArgument(
            StrFormat("%s: sweeps are only allowed inside sections",
                      Where(source, line_number).c_str()));
      }
      EMSIM_RETURN_IF_ERROR(ApplyKey(key, value, &defaults, source, line_number));
    } else {
      current->kvs.push_back(RawKv{key, value, line_number});
    }
  }
  if (sections.empty()) {
    return Status::InvalidArgument("spec defines no [experiment] sections");
  }
  std::vector<ExperimentSpec> specs;
  for (const RawSection& section : sections) {
    EMSIM_RETURN_IF_ERROR(ExpandSection(defaults, section, source, &specs));
  }
  for (const ExperimentSpec& spec : specs) {
    Status status = spec.config.Validate();
    if (!status.ok()) {
      return Status::InvalidArgument(
          StrFormat("experiment [%s]: %s", spec.name.c_str(), status.message().c_str()));
    }
  }
  return specs;
}

Result<std::vector<ExperimentSpec>> LoadExperimentSpec(const std::string& path) {
  std::FILE* f = std::fopen(path.c_str(), "rb");
  if (f == nullptr) {
    return Status::IoError(StrFormat("cannot open spec file '%s'", path.c_str()));
  }
  std::string text;
  char buffer[4096];
  size_t got;
  while ((got = std::fread(buffer, 1, sizeof(buffer), f)) > 0) {
    text.append(buffer, got);
  }
  std::fclose(f);
  return ParseExperimentSpec(text, path);
}

std::string ToSpec(const ExperimentSpec& spec) {
  const core::MergeConfig& cfg = spec.config;
  std::string out = StrFormat("[%s]\n", spec.name.empty() ? "experiment" : spec.name.c_str());
  out += StrFormat("runs = %d\n", cfg.num_runs);
  out += StrFormat("disks = %d\n", cfg.num_disks);
  out += StrFormat("blocks = %lld\n", static_cast<long long>(cfg.blocks_per_run));
  out += StrFormat("n = %d\n", cfg.prefetch_depth);
  if (cfg.cache_blocks != core::MergeConfig::kAutoCache) {
    out += StrFormat("cache = %lld\n", static_cast<long long>(cfg.cache_blocks));
  }
  out += StrFormat("strategy = %s\n", core::StrategyName(cfg.strategy));
  out += StrFormat("sync = %s\n", core::SyncModeName(cfg.sync));
  out += StrFormat("admission = %s\n", core::AdmissionPolicyName(cfg.admission));
  out += StrFormat("victim = %s\n", core::VictimPolicyName(cfg.victim));
  out += StrFormat("depletion = %s\n", core::DepletionKindName(cfg.depletion));
  if (cfg.depletion == core::DepletionKind::kZipf) {
    out += StrFormat("zipf_theta = %g\n", cfg.zipf_theta);
  }
  if (cfg.cpu_ms_per_block > 0) {
    out += StrFormat("cpu_ms = %g\n", cfg.cpu_ms_per_block);
  }
  if (cfg.write_traffic != core::WriteTraffic::kNone) {
    out += StrFormat("write_traffic = %s\n", core::WriteTrafficName(cfg.write_traffic));
    out += StrFormat("write_disks = %d\n", cfg.num_write_disks);
    out += StrFormat("write_batch = %d\n", cfg.write_batch_blocks);
  }
  if (cfg.fault.InjectionEnabled()) {
    if (cfg.fault.media_error_rate > 0) {
      out += StrFormat("fault_media_error_rate = %g\n", cfg.fault.media_error_rate);
    }
    if (cfg.fault.latency_spike_rate > 0) {
      out += StrFormat("fault_spike_rate = %g\n", cfg.fault.latency_spike_rate);
      out += StrFormat("fault_spike_ms = %g\n", cfg.fault.latency_spike_ms);
    }
    if (cfg.fault.fail_slow_disk >= 0) {
      out += StrFormat("fault_slow_disk = %d\n", cfg.fault.fail_slow_disk);
      out += StrFormat("fault_slow_factor = %g\n", cfg.fault.fail_slow_factor);
      out += StrFormat("fault_slow_start_ms = %g\n", cfg.fault.fail_slow_start_ms);
      out += StrFormat("fault_slow_end_ms = %g\n", cfg.fault.fail_slow_end_ms);
    }
    if (cfg.fault.fail_stop_disk >= 0) {
      out += StrFormat("fault_stop_disk = %d\n", cfg.fault.fail_stop_disk);
      out += StrFormat("fault_stop_start_ms = %g\n", cfg.fault.fail_stop_start_ms);
      out += StrFormat("fault_stop_end_ms = %g\n", cfg.fault.fail_stop_end_ms);
    }
    if (cfg.fault.seed != 0) {
      out += StrFormat("fault_seed = %llu\n",
                       static_cast<unsigned long long>(cfg.fault.seed));
    }
    out += StrFormat("fault_max_retries = %d\n", cfg.fault.retry.max_retries);
    out += StrFormat("fault_timeout_ms = %g\n", cfg.fault.retry.timeout_ms);
    out += StrFormat("fault_backoff_ms = %g\n", cfg.fault.retry.backoff_base_ms);
    out += StrFormat("fault_backoff_mult = %g\n", cfg.fault.retry.backoff_multiplier);
  }
  out += StrFormat("seed = %llu\n", static_cast<unsigned long long>(cfg.seed));
  out += StrFormat("trials = %d\n", spec.trials);
  return out;
}

}  // namespace emsim::workload

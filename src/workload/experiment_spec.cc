#include "workload/experiment_spec.h"

#include <cerrno>
#include <cmath>
#include <cstdint>
#include <cstdlib>
#include <limits>
#include <utility>

#include "fault/fault_plan.h"
#include "util/atomic_file.h"
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

/// ApplyExperimentKey with the error prefixed by its spec location.
Status ApplyKeyAt(const std::string& key, const std::string& value, ExperimentSpec* spec,
                  const std::string& source, int line) {
  Status status = ApplyExperimentKey(key, value, spec);
  if (!status.ok()) {
    return Status::InvalidArgument(
        StrFormat("%s: %s", Where(source, line).c_str(), status.message().c_str()));
  }
  return status;
}

/// Renders a double with %g when that reads back to the same value, and
/// with %.17g (always exact) otherwise, so ToSpec keeps its short form for
/// every value a person would type.
std::string Num(double v) {
  std::string text = StrFormat("%g", v);
  return std::strtod(text.c_str(), nullptr) == v ? text : StrFormat("%.17g", v);
}

}  // namespace

Status ApplyExperimentKey(const std::string& key, const std::string& value,
                          ExperimentSpec* spec) {
  auto bad = [&](const char* what) {
    return Status::InvalidArgument(
        StrFormat("'%s' is %s for key '%s'", value.c_str(), what, key.c_str()));
  };
  auto parse_int = [&](int64_t* out) -> Status {
    char* end = nullptr;
    errno = 0;
    long long v = std::strtoll(value.c_str(), &end, 10);
    if (end == value.c_str() || *end != '\0') {
      return bad("not an integer");
    }
    // strtoll saturates on overflow; without this check a huge literal would
    // be accepted, then truncated to garbage by the narrowing casts below
    // (found by fuzz_experiment_spec: the saturated value breaks the
    // ToSpec -> ParseExperimentSpec round-trip).
    if (errno == ERANGE) {
      return bad("out of range");
    }
    *out = v;
    return Status::OK();
  };
  auto parse_int32 = [&](int* out) -> Status {
    int64_t wide = 0;
    EMSIM_RETURN_IF_ERROR(parse_int(&wide));
    if (wide < std::numeric_limits<int>::min() ||
        wide > std::numeric_limits<int>::max()) {
      return bad("out of range");
    }
    *out = static_cast<int>(wide);
    return Status::OK();
  };
  auto parse_double = [&](double* out) -> Status {
    char* end = nullptr;
    double v = std::strtod(value.c_str(), &end);
    if (end == value.c_str() || *end != '\0') {
      return bad("not a number");
    }
    // strtod accepts "nan" and "inf"; both slip past Validate's `x < 0`
    // range checks and abort deep inside the simulation.
    if (!std::isfinite(v)) {
      return bad("not a finite number");
    }
    *out = v;
    return Status::OK();
  };
  // Seeds span uint64_t, which ToSpec prints unsigned; strtoull also reads
  // a negative literal as its two's-complement seed.
  auto parse_seed = [&](uint64_t* out) -> Status {
    char* end = nullptr;
    errno = 0;
    unsigned long long v = std::strtoull(value.c_str(), &end, 10);
    if (end == value.c_str() || *end != '\0') {
      return bad("not an integer");
    }
    if (errno == ERANGE) {
      return bad("out of range");
    }
    *out = v;
    return Status::OK();
  };
  auto set_enum = [](auto parsed, auto* out) -> Status {
    if (!parsed.ok()) {
      return parsed.status();
    }
    *out = *parsed;
    return Status::OK();
  };

  core::MergeConfig& cfg = spec->config;
  if (key == "runs") {
    return parse_int32(&cfg.num_runs);
  } else if (key == "disks") {
    return parse_int32(&cfg.num_disks);
  } else if (key == "blocks") {
    return parse_int(&cfg.blocks_per_run);
  } else if (key == "n") {
    return parse_int32(&cfg.prefetch_depth);
  } else if (key == "cache") {
    return parse_int(&cfg.cache_blocks);
  } else if (key == "seed") {
    return parse_seed(&cfg.seed);
  } else if (key == "trials") {
    int trials = 0;
    EMSIM_RETURN_IF_ERROR(parse_int32(&trials));
    if (trials < 1) {
      return Status::InvalidArgument("trials must be >= 1");
    }
    spec->trials = trials;
    return Status::OK();
  } else if (key == "strategy") {
    return set_enum(core::ParseStrategy(value), &cfg.strategy);
  } else if (key == "sync") {
    return set_enum(core::ParseSyncMode(value), &cfg.sync);
  } else if (key == "admission") {
    return set_enum(core::ParseAdmissionPolicy(value), &cfg.admission);
  } else if (key == "victim") {
    return set_enum(core::ParseVictimPolicy(value), &cfg.victim);
  } else if (key == "depletion") {
    auto parsed = core::ParseDepletionKind(value);
    if (parsed.ok() && *parsed == core::DepletionKind::kTrace) {
      return Status::InvalidArgument("trace depletion cannot be expressed in a spec file");
    }
    return set_enum(std::move(parsed), &cfg.depletion);
  } else if (key == "zipf_theta") {
    return parse_double(&cfg.zipf_theta);
  } else if (key == "cpu_ms") {
    return parse_double(&cfg.cpu_ms_per_block);
  } else if (key == "write_traffic") {
    return set_enum(core::ParseWriteTraffic(value), &cfg.write_traffic);
  } else if (key == "write_disks") {
    return parse_int32(&cfg.num_write_disks);
  } else if (key == "write_batch") {
    return parse_int32(&cfg.write_batch_blocks);
  } else if (key == "fault_media_error_rate") {
    return parse_double(&cfg.fault.media_error_rate);
  } else if (key == "fault_spike_rate") {
    return parse_double(&cfg.fault.latency_spike_rate);
  } else if (key == "fault_spike_ms") {
    return parse_double(&cfg.fault.latency_spike_ms);
  } else if (key == "fault_slow_disk") {
    return parse_int32(&cfg.fault.fail_slow_disk);
  } else if (key == "fault_slow_factor") {
    return parse_double(&cfg.fault.fail_slow_factor);
  } else if (key == "fault_slow_start_ms") {
    return parse_double(&cfg.fault.fail_slow_start_ms);
  } else if (key == "fault_slow_end_ms") {
    return parse_double(&cfg.fault.fail_slow_end_ms);
  } else if (key == "fault_stop_disk") {
    return parse_int32(&cfg.fault.fail_stop_disk);
  } else if (key == "fault_stop_start_ms") {
    return parse_double(&cfg.fault.fail_stop_start_ms);
  } else if (key == "fault_stop_end_ms") {
    return parse_double(&cfg.fault.fail_stop_end_ms);
  } else if (key == "fault_seed") {
    return parse_seed(&cfg.fault.seed);
  } else if (key == "fault_max_retries") {
    return parse_int32(&cfg.fault.retry.max_retries);
  } else if (key == "fault_timeout_ms") {
    return parse_double(&cfg.fault.retry.timeout_ms);
  } else if (key == "fault_backoff_ms") {
    return parse_double(&cfg.fault.retry.backoff_base_ms);
  } else if (key == "fault_backoff_mult") {
    return parse_double(&cfg.fault.retry.backoff_multiplier);
  } else {
    return Status::InvalidArgument(StrFormat("unknown key '%s'", key.c_str()));
  }
}

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
        EMSIM_RETURN_IF_ERROR(ApplyKeyAt(kv.key, v, &candidate, source, kv.line));
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
      EMSIM_RETURN_IF_ERROR(ApplyKeyAt(key, value, &defaults, source, line_number));
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
  Result<std::string> text = util::ReadFile(path);
  if (!text.ok()) {
    return text.status();
  }
  return ParseExperimentSpec(*text, path);
}

std::string ToSpec(const ExperimentSpec& spec) {
  const core::MergeConfig& cfg = spec.config;
  const fault::FaultConfig& fault = cfg.fault;
  const core::MergeConfig defaults;
  std::string out = StrFormat("[%s]\n", spec.name.empty() ? "experiment" : spec.name.c_str());
  auto put = [&out](const char* key, const std::string& text) {
    out.append(key).append(" = ").append(text).push_back('\n');
  };
  // An optional key is written when it shapes this experiment (`used`) and
  // whenever it differs from its default, so parsing the output restores
  // every field.
  auto put_num = [&](bool used, const char* key, double value, double fallback) {
    if (used || value != fallback) {
      put(key, Num(value));
    }
  };
  auto put_int = [&](bool used, const char* key, int value, int fallback) {
    if (used || value != fallback) {
      put(key, StrFormat("%d", value));
    }
  };
  put("runs", StrFormat("%d", cfg.num_runs));
  put("disks", StrFormat("%d", cfg.num_disks));
  put("blocks", StrFormat("%lld", static_cast<long long>(cfg.blocks_per_run)));
  put("n", StrFormat("%d", cfg.prefetch_depth));
  if (cfg.cache_blocks != core::MergeConfig::kAutoCache) {
    put("cache", StrFormat("%lld", static_cast<long long>(cfg.cache_blocks)));
  }
  put("strategy", core::StrategyName(cfg.strategy));
  put("sync", core::SyncModeName(cfg.sync));
  put("admission", core::AdmissionPolicyName(cfg.admission));
  put("victim", core::VictimPolicyName(cfg.victim));
  put("depletion", core::DepletionKindName(cfg.depletion));
  put_num(cfg.depletion == core::DepletionKind::kZipf, "zipf_theta", cfg.zipf_theta,
          defaults.zipf_theta);
  put_num(false, "cpu_ms", cfg.cpu_ms_per_block, defaults.cpu_ms_per_block);
  const bool writes = cfg.write_traffic != core::WriteTraffic::kNone;
  if (writes) {
    put("write_traffic", core::WriteTrafficName(cfg.write_traffic));
  }
  put_int(writes, "write_disks", cfg.num_write_disks, defaults.num_write_disks);
  put_int(writes, "write_batch", cfg.write_batch_blocks, defaults.write_batch_blocks);
  const fault::FaultConfig& none = defaults.fault;
  put_num(false, "fault_media_error_rate", fault.media_error_rate, none.media_error_rate);
  put_num(false, "fault_spike_rate", fault.latency_spike_rate, none.latency_spike_rate);
  put_num(fault.latency_spike_rate > 0, "fault_spike_ms", fault.latency_spike_ms,
          none.latency_spike_ms);
  const bool slow = fault.fail_slow_disk >= 0;
  put_int(slow, "fault_slow_disk", fault.fail_slow_disk, none.fail_slow_disk);
  put_num(slow, "fault_slow_factor", fault.fail_slow_factor, none.fail_slow_factor);
  put_num(slow, "fault_slow_start_ms", fault.fail_slow_start_ms, none.fail_slow_start_ms);
  put_num(slow, "fault_slow_end_ms", fault.fail_slow_end_ms, none.fail_slow_end_ms);
  const bool stop = fault.fail_stop_disk >= 0;
  put_int(stop, "fault_stop_disk", fault.fail_stop_disk, none.fail_stop_disk);
  put_num(stop, "fault_stop_start_ms", fault.fail_stop_start_ms, none.fail_stop_start_ms);
  put_num(stop, "fault_stop_end_ms", fault.fail_stop_end_ms, none.fail_stop_end_ms);
  if (fault.seed != none.seed) {
    put("fault_seed", StrFormat("%llu", static_cast<unsigned long long>(fault.seed)));
  }
  const bool injecting = fault.InjectionEnabled();
  put_int(injecting, "fault_max_retries", fault.retry.max_retries, none.retry.max_retries);
  put_num(injecting, "fault_timeout_ms", fault.retry.timeout_ms, none.retry.timeout_ms);
  put_num(injecting, "fault_backoff_ms", fault.retry.backoff_base_ms,
          none.retry.backoff_base_ms);
  put_num(injecting, "fault_backoff_mult", fault.retry.backoff_multiplier,
          none.retry.backoff_multiplier);
  put("seed", StrFormat("%llu", static_cast<unsigned long long>(cfg.seed)));
  put("trials", StrFormat("%d", spec.trials));
  return out;
}

}  // namespace emsim::workload

#include "util/flags.h"

#include <cmath>
#include <cstdlib>
#include <limits>
#include <utility>

#include "util/str.h"

namespace emsim {

namespace {

Status ParseInt64(const std::string& text, int64_t* out) {
  char* end = nullptr;
  errno = 0;
  long long v = std::strtoll(text.c_str(), &end, 10);
  if (end == text.c_str() || *end != '\0' || errno == ERANGE) {
    return Status::InvalidArgument(StrFormat("not an integer: '%s'", text.c_str()));
  }
  *out = v;
  return Status::OK();
}

Status ParseDoubleText(const std::string& text, double* out) {
  char* end = nullptr;
  errno = 0;
  double v = std::strtod(text.c_str(), &end);
  if (end == text.c_str() || *end != '\0') {
    return Status::InvalidArgument(StrFormat("not a number: '%s'", text.c_str()));
  }
  // strtod accepts "nan" and "inf", which no flag means and which slip past
  // range checks written as `x < 0`.
  if (!std::isfinite(v)) {
    return Status::InvalidArgument(StrFormat("not a finite number: '%s'", text.c_str()));
  }
  *out = v;
  return Status::OK();
}

}  // namespace

void FlagSet::Register(const std::string& name, Flag flag) { flags_[name] = std::move(flag); }

void FlagSet::AddInt(const std::string& name, int* value, const std::string& help) {
  Flag flag;
  flag.help = help;
  flag.default_value = StrFormat("%d", *value);
  flag.set = [value](const std::string& text) {
    int64_t v = 0;
    EMSIM_RETURN_IF_ERROR(ParseInt64(text, &v));
    if (v < std::numeric_limits<int>::min() || v > std::numeric_limits<int>::max()) {
      return Status::InvalidArgument(StrFormat("out of range for int: '%s'", text.c_str()));
    }
    *value = static_cast<int>(v);
    return Status::OK();
  };
  Register(name, std::move(flag));
}

void FlagSet::AddInt64(const std::string& name, int64_t* value, const std::string& help) {
  Flag flag;
  flag.help = help;
  flag.default_value = StrFormat("%lld", static_cast<long long>(*value));
  flag.set = [value](const std::string& text) { return ParseInt64(text, value); };
  Register(name, std::move(flag));
}

void FlagSet::AddDouble(const std::string& name, double* value, const std::string& help) {
  Flag flag;
  flag.help = help;
  flag.default_value = StrFormat("%g", *value);
  flag.set = [value](const std::string& text) { return ParseDoubleText(text, value); };
  Register(name, std::move(flag));
}

void FlagSet::AddString(const std::string& name, std::string* value,
                        const std::string& help) {
  Flag flag;
  flag.help = help;
  flag.default_value = *value;
  flag.set = [value](const std::string& text) {
    *value = text;
    return Status::OK();
  };
  Register(name, std::move(flag));
}

void FlagSet::AddBool(const std::string& name, bool* value, const std::string& help) {
  Flag flag;
  flag.help = help;
  flag.default_value = *value ? "true" : "false";
  flag.is_bool = true;
  flag.set = [value](const std::string& text) {
    if (text.empty() || text == "true" || text == "1") {
      *value = true;
    } else if (text == "false" || text == "0") {
      *value = false;
    } else {
      return Status::InvalidArgument(StrFormat("not a boolean: '%s'", text.c_str()));
    }
    return Status::OK();
  };
  Register(name, std::move(flag));
}

Status FlagSet::Parse(int argc, const char* const* argv) {
  for (int i = 1; i < argc; ++i) {
    std::string arg = argv[i];
    if (!StartsWith(arg, "--")) {
      positional_.push_back(arg);
      continue;
    }
    std::string name = arg.substr(2);
    std::string value;
    bool has_value = false;
    size_t eq = name.find('=');
    if (eq != std::string::npos) {
      value = name.substr(eq + 1);
      name = name.substr(0, eq);
      has_value = true;
    }
    auto it = flags_.find(name);
    if (it == flags_.end()) {
      return Status::InvalidArgument(StrFormat("unknown flag --%s", name.c_str()));
    }
    Flag& flag = it->second;
    if (!has_value && !flag.is_bool) {
      if (i + 1 >= argc) {
        return Status::InvalidArgument(StrFormat("flag --%s needs a value", name.c_str()));
      }
      value = argv[++i];
    }
    Status set = flag.set(value);
    if (!set.ok()) {
      return Status::InvalidArgument(
          StrFormat("flag --%s: %s", name.c_str(), set.message().c_str()));
    }
    flag.given = true;
  }
  return Status::OK();
}

bool FlagSet::Given(const std::string& name) const {
  auto it = flags_.find(name);
  return it != flags_.end() && it->second.given;
}

std::string FlagSet::Usage() const {
  std::string out = "usage: " + program_ + " [flags]\n";
  for (const auto& [name, flag] : flags_) {
    out += StrFormat("  --%-22s %s (default: %s)\n", name.c_str(), flag.help.c_str(),
                     flag.default_value.empty() ? "\"\"" : flag.default_value.c_str());
  }
  return out;
}

}  // namespace emsim

#ifndef EMSIM_UTIL_FLAGS_H_
#define EMSIM_UTIL_FLAGS_H_

#include <cstdint>
#include <functional>
#include <map>
#include <string>
#include <utility>
#include <vector>

#include "util/status.h"

namespace emsim {

/// Minimal command-line flag parser for the tools and examples:
/// `--name value`, `--name=value`, and bare `--bool_flag`. Unknown flags
/// are errors; remaining positional arguments are collected.
///
///     FlagSet flags("emsim_cli");
///     int runs = 25;
///     flags.AddInt("runs", &runs, "number of sorted runs (k)");
///     EMSIM_RETURN_IF_ERROR(flags.Parse(argc, argv));
class FlagSet {
 public:
  explicit FlagSet(std::string program) : program_(std::move(program)) {}

  void AddInt(const std::string& name, int* value, const std::string& help);
  void AddInt64(const std::string& name, int64_t* value, const std::string& help);
  void AddDouble(const std::string& name, double* value, const std::string& help);
  void AddString(const std::string& name, std::string* value, const std::string& help);
  void AddBool(const std::string& name, bool* value, const std::string& help);

  /// Parses argv[1..); fills registered flags. On error returns
  /// InvalidArgument with a message naming the offending flag.
  Status Parse(int argc, const char* const* argv);

  /// Whether the last Parse set flag `name`, whatever the value.
  bool Given(const std::string& name) const;

  /// Arguments that were not flags, in order.
  const std::vector<std::string>& positional() const { return positional_; }

  /// Human-readable usage text listing every flag with its default.
  std::string Usage() const;

 private:
  struct Flag {
    std::string help;
    std::string default_value;
    bool is_bool = false;
    bool given = false;
    std::function<Status(const std::string&)> set;
  };

  void Register(const std::string& name, Flag flag);

  std::string program_;
  std::map<std::string, Flag> flags_;
  std::vector<std::string> positional_;
};

}  // namespace emsim

#endif  // EMSIM_UTIL_FLAGS_H_

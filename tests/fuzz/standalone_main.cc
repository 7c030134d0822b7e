// Corpus-replay driver for fuzz harnesses built without libFuzzer.
//
// A fuzzing build (EMSIM_FUZZ=ON with Clang) links the harness with
// -fsanitize=fuzzer, which supplies its own main(); every other build links
// this file, whose main() walks the arguments (files or directories of
// corpus inputs), feeds each file to LLVMFuzzerTestOneInput once, and exits
// non-zero only if the harness traps.
// libFuzzer-style flags (anything starting with '-') are ignored so the
// same ctest command line works for both link modes.

#include <algorithm>
#include <cstdint>
#include <cstdio>
#include <filesystem>
#include <fstream>
#include <string>
#include <vector>

extern "C" int LLVMFuzzerTestOneInput(const uint8_t* data, size_t size);

namespace {

int RunFile(const std::filesystem::path& path) {
  std::ifstream in(path, std::ios::binary);
  if (!in) {
    std::fprintf(stderr, "fuzz-replay: cannot read %s\n", path.c_str());
    return 1;
  }
  std::string bytes((std::istreambuf_iterator<char>(in)),
                    std::istreambuf_iterator<char>());
  LLVMFuzzerTestOneInput(reinterpret_cast<const uint8_t*>(bytes.data()),
                         bytes.size());
  return 0;
}

}  // namespace

int main(int argc, char** argv) {
  std::vector<std::filesystem::path> inputs;
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    if (!arg.empty() && arg[0] == '-') {
      continue;  // libFuzzer flag (-runs=..., -max_total_time=...)
    }
    std::error_code ec;
    if (std::filesystem::is_directory(arg, ec)) {
      std::vector<std::filesystem::path> found;
      for (const auto& entry :
           std::filesystem::recursive_directory_iterator(arg, ec)) {
        if (entry.is_regular_file()) {
          found.push_back(entry.path());
        }
      }
      std::sort(found.begin(), found.end());
      inputs.insert(inputs.end(), found.begin(), found.end());
    } else {
      inputs.emplace_back(arg);
    }
  }
  int failures = 0;
  for (const auto& path : inputs) {
    failures += RunFile(path);
  }
  std::printf("fuzz-replay: %zu input(s), %d unreadable\n", inputs.size(),
              failures);
  return failures == 0 ? 0 : 1;
}

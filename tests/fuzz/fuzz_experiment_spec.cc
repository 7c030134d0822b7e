// Fuzz harness for the experiment-spec parser (workload/experiment_spec).
//
// Two properties under fuzz:
//   1. ParseExperimentSpec never crashes, UBs, or hangs on arbitrary bytes —
//      it must reject garbage with a Status, not an abort.
//   2. ToSpec round-trips exactly: any spec the parser accepts re-parses
//      from its own rendering to an equal config, field for field (the
//      --print_spec contract pinned by experiment_spec_test, here driven by
//      fuzz inputs).
//
// Built with -fsanitize=fuzzer under Clang (libFuzzer entry point); under
// other compilers tests/fuzz/standalone_main.cc supplies a main() that
// replays corpus files through the same entry point.

#include <cstddef>
#include <cstdint>
#include <string>

#include "workload/experiment_spec.h"

extern "C" int LLVMFuzzerTestOneInput(const uint8_t* data, size_t size) {
  const std::string text(reinterpret_cast<const char*>(data), size);
  auto parsed = emsim::workload::ParseExperimentSpec(text, "fuzz-input");
  if (!parsed.ok()) {
    return 0;  // rejected cleanly: exactly what garbage should do
  }
  for (const auto& spec : parsed.value()) {
    const std::string rendered = emsim::workload::ToSpec(spec);
    auto reparsed = emsim::workload::ParseExperimentSpec(rendered, "fuzz-round-trip");
    if (!reparsed.ok() || reparsed.value().size() != 1) {
      __builtin_trap();  // accepted spec failed to round-trip
    }
    const auto& back = reparsed.value()[0];
    if (!(back.config == spec.config) || back.trials != spec.trials) {
      __builtin_trap();  // the rendering lost or changed a field
    }
  }
  return 0;
}

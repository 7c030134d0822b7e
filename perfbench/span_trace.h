#ifndef EMSIM_PERFBENCH_SPAN_TRACE_H_
#define EMSIM_PERFBENCH_SPAN_TRACE_H_

// In-memory spans around the harness's calls into each emsim layer, written
// out as Chrome trace-event JSON (chrome://tracing, ui.perfetto.dev) when
// the run ends. Spans nest on the harness thread: each records its parent,
// and a span's self time is its duration minus its children's.

#include <cstddef>
#include <cstdint>
#include <string>
#include <vector>

#include "alloc_ledger.h"

namespace perfbench {

/// Host monotonic clock in nanoseconds.
int64_t NowNs();

struct Span {
  const char* name = "";
  int64_t start_ns = 0;
  int64_t end_ns = 0;
  int64_t child_ns = 0;  ///< Summed durations of direct children.
  int parent = -1;       ///< Index of the enclosing span, -1 at top level.
  int unit = -1;         ///< Sweep unit, -1 when the span covers no single unit.
  int trial = -1;        ///< Trial within the unit, -1 likewise.
  uint64_t seed = 0;     ///< Trial seed, 0 when not tied to one trial.

  int64_t DurationNs() const { return end_ns - start_ns; }
  int64_t SelfNs() const { return DurationNs() - child_ns; }
};

/// Span recorder. Disabled, it records nothing and ScopedSpan only times and
/// tags; enabled, it keeps every span in memory.
class Tracer {
 public:
  explicit Tracer(bool enabled);

  bool enabled() const { return enabled_; }
  const std::vector<Span>& spans() const { return spans_; }

  int Open(const char* name, int unit, int trial, uint64_t seed, int64_t start_ns);
  void Close(int id, int64_t end_ns);

  /// Self times, in ms, of every closed span called `name`.
  std::vector<double> SelfMs(const std::string& name) const;

  /// Writes all spans as a Chrome trace-event document. Returns false when
  /// the file cannot be written.
  bool WriteChromeTrace(const std::string& path) const;

 private:
  bool enabled_;
  std::vector<Span> spans_;
  std::vector<int> open_;  // Stack of open span indices.
};

/// Times one layer call, charges its allocations to `layer`, and records a
/// span when the tracer is enabled.
class ScopedSpan {
 public:
  ScopedSpan(Tracer& tracer, const char* name, Layer layer, int unit = -1, int trial = -1,
             uint64_t seed = 0);
  ~ScopedSpan() { Stop(); }

  ScopedSpan(const ScopedSpan&) = delete;
  ScopedSpan& operator=(const ScopedSpan&) = delete;

  /// Ends the span (idempotent) and returns its duration in ns.
  int64_t Stop();

 private:
  ScopedLayer layer_;
  Tracer& tracer_;
  int id_ = -1;
  int64_t start_ns_;
  int64_t duration_ns_ = -1;
};

}  // namespace perfbench

#endif  // EMSIM_PERFBENCH_SPAN_TRACE_H_

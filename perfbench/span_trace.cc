#include "span_trace.h"

#include <chrono>
#include <cstdio>

namespace perfbench {

int64_t NowNs() {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

Tracer::Tracer(bool enabled) : enabled_(enabled) {
  if (enabled_) {
    // Reserved up front so recording a span does not allocate inside the
    // layer call it brackets.
    spans_.reserve(size_t{1} << 16);
    open_.reserve(64);
  }
}

int Tracer::Open(const char* name, int unit, int trial, uint64_t seed, int64_t start_ns) {
  Span span;
  span.name = name;
  span.start_ns = start_ns;
  span.parent = open_.empty() ? -1 : open_.back();
  span.unit = unit;
  span.trial = trial;
  span.seed = seed;
  spans_.push_back(span);
  int id = static_cast<int>(spans_.size()) - 1;
  open_.push_back(id);
  return id;
}

void Tracer::Close(int id, int64_t end_ns) {
  Span& span = spans_[static_cast<size_t>(id)];
  span.end_ns = end_ns;
  if (span.parent >= 0) {
    spans_[static_cast<size_t>(span.parent)].child_ns += span.DurationNs();
  }
  open_.pop_back();
}

std::vector<double> Tracer::SelfMs(const std::string& name) const {
  std::vector<double> out;
  for (const Span& span : spans_) {
    if (name == span.name) {
      out.push_back(static_cast<double>(span.SelfNs()) / 1e6);
    }
  }
  return out;
}

bool Tracer::WriteChromeTrace(const std::string& path) const {
  std::FILE* f = std::fopen(path.c_str(), "w");
  if (f == nullptr) {
    return false;
  }
  const int64_t origin = spans_.empty() ? 0 : spans_.front().start_ns;
  std::fputs("{\"displayTimeUnit\":\"ms\",\"traceEvents\":[", f);
  for (size_t i = 0; i < spans_.size(); ++i) {
    const Span& s = spans_[i];
    std::fprintf(f,
                 "%s\n{\"name\":\"%s\",\"cat\":\"perfbench\",\"ph\":\"X\",\"pid\":1,\"tid\":1,"
                 "\"ts\":%.3f,\"dur\":%.3f,\"args\":{\"id\":%zu,\"parent\":%d,\"unit\":%d,"
                 "\"trial\":%d,\"seed\":%llu,\"self_us\":%.3f}}",
                 i == 0 ? "" : ",", s.name, static_cast<double>(s.start_ns - origin) / 1e3,
                 static_cast<double>(s.DurationNs()) / 1e3, i, s.parent, s.unit, s.trial,
                 static_cast<unsigned long long>(s.seed), static_cast<double>(s.SelfNs()) / 1e3);
  }
  std::fputs("\n]}\n", f);
  return std::fclose(f) == 0;
}

ScopedSpan::ScopedSpan(Tracer& tracer, const char* name, Layer layer, int unit, int trial,
                       uint64_t seed)
    : layer_(layer), tracer_(tracer), start_ns_(NowNs()) {
  if (tracer_.enabled()) {
    id_ = tracer_.Open(name, unit, trial, seed, start_ns_);
  }
}

int64_t ScopedSpan::Stop() {
  if (duration_ns_ < 0) {
    int64_t end = NowNs();
    duration_ns_ = end - start_ns_;
    if (id_ >= 0) {
      tracer_.Close(id_, end);
    }
  }
  return duration_ns_;
}

}  // namespace perfbench

#include "stats/json_writer.h"

#include <charconv>
#include <cmath>
#include <cstddef>
#include <system_error>

#include "util/check.h"

namespace emsim::stats {

namespace {

// Longest "%.17g" rendering of a double ("-2.2250738585072014e-308") is 24
// characters; the longest 64-bit integer ("-9223372036854775808") is 20.
constexpr size_t kNumberBufSize = 32;

/// Appends the JSON escaping of `s` (quotes not included) to `out`.
void AppendEscaped(std::string* out, std::string_view s) {
  static constexpr char kHex[] = "0123456789abcdef";
  size_t plain = 0;  // Start of the run of bytes that need no escaping.
  for (size_t i = 0; i < s.size(); ++i) {
    const auto c = static_cast<unsigned char>(s[i]);
    const char* esc = nullptr;
    switch (c) {
      case '"':
        esc = "\\\"";
        break;
      case '\\':
        esc = "\\\\";
        break;
      case '\b':
        esc = "\\b";
        break;
      case '\f':
        esc = "\\f";
        break;
      case '\n':
        esc = "\\n";
        break;
      case '\r':
        esc = "\\r";
        break;
      case '\t':
        esc = "\\t";
        break;
      default:
        if (c >= 0x20) {
          continue;
        }
    }
    out->append(s.data() + plain, i - plain);
    plain = i + 1;
    if (esc != nullptr) {
      out->append(esc);
    } else {
      const char u[] = {'\\', 'u', '0', '0', kHex[c >> 4], kHex[c & 0xF]};
      out->append(u, sizeof u);
    }
  }
  out->append(s.data() + plain, s.size() - plain);
}

/// Appends the shortest of the "%.15g", "%.16g" and "%.17g" renderings of
/// finite `v` that parses back to exactly `v`; "null" for non-finite values.
/// The standard specifies to_chars with a precision as if by the C printf
/// family, so the bytes are exactly the C library's "%.*g" renderings.
void AppendDouble(std::string* out, double v) {
  if (!std::isfinite(v)) {
    out->append("null");
    return;
  }
  char buf[kNumberBufSize];
  char* end = buf;
  for (int precision = 15; precision <= 17; ++precision) {
    end = std::to_chars(buf, buf + sizeof buf, v, std::chars_format::general, precision).ptr;
    double back = 0.0;
    std::from_chars(buf, end, back);
    if (back == v) {
      break;  // Shortest form that survives the round trip.
    }
  }
  out->append(buf, end);
}

template <typename Int>
void AppendInt(std::string* out, Int v) {
  char buf[kNumberBufSize];
  out->append(buf, std::to_chars(buf, buf + sizeof buf, v).ptr);
}

}  // namespace

void JsonWriter::NewlineIndent() {
  out_.push_back('\n');
  out_.append(2 * stack_.size(), ' ');
}

void JsonWriter::BeforeValue() {
  if (stack_.empty()) {
    EMSIM_CHECK(out_.empty() && "one top-level value per document");
    return;
  }
  if (key_pending_) {
    // Value follows "key": on the same line.
    key_pending_ = false;
    return;
  }
  EMSIM_CHECK(stack_.back() == Scope::kArray && "object members need a Key()");
  if (counts_.back() > 0) {
    out_.push_back(',');
  }
  ++counts_.back();
  NewlineIndent();
}

void JsonWriter::BeginObject() {
  BeforeValue();
  out_.push_back('{');
  stack_.push_back(Scope::kObject);
  counts_.push_back(0);
}

void JsonWriter::EndObject() {
  EMSIM_CHECK(!stack_.empty() && stack_.back() == Scope::kObject);
  EMSIM_CHECK(!key_pending_);
  bool empty = counts_.back() == 0;
  stack_.pop_back();
  counts_.pop_back();
  if (!empty) {
    NewlineIndent();
  }
  out_.push_back('}');
}

void JsonWriter::BeginArray() {
  BeforeValue();
  out_.push_back('[');
  stack_.push_back(Scope::kArray);
  counts_.push_back(0);
}

void JsonWriter::EndArray() {
  EMSIM_CHECK(!stack_.empty() && stack_.back() == Scope::kArray);
  bool empty = counts_.back() == 0;
  stack_.pop_back();
  counts_.pop_back();
  if (!empty) {
    NewlineIndent();
  }
  out_.push_back(']');
}

void JsonWriter::Key(std::string_view name) {
  EMSIM_CHECK(!stack_.empty() && stack_.back() == Scope::kObject);
  EMSIM_CHECK(!key_pending_);
  if (counts_.back() > 0) {
    out_.push_back(',');
  }
  ++counts_.back();
  NewlineIndent();
  out_.push_back('"');
  AppendEscaped(&out_, name);
  out_.append("\": ");
  key_pending_ = true;
}

void JsonWriter::String(std::string_view value) {
  BeforeValue();
  out_.push_back('"');
  AppendEscaped(&out_, value);
  out_.push_back('"');
}

void JsonWriter::Number(double value) {
  BeforeValue();
  AppendDouble(&out_, value);
}

void JsonWriter::Int(int64_t value) {
  BeforeValue();
  AppendInt(&out_, value);
}

void JsonWriter::UInt(uint64_t value) {
  BeforeValue();
  AppendInt(&out_, value);
}

void JsonWriter::Bool(bool value) {
  BeforeValue();
  out_.append(value ? "true" : "false");
}

void JsonWriter::Null() {
  BeforeValue();
  out_.append("null");
}

std::string JsonWriter::Take() {
  EMSIM_CHECK(stack_.empty() && "unbalanced Begin/End");
  EMSIM_CHECK(!key_pending_);
  out_.push_back('\n');
  std::string doc;
  doc.swap(out_);
  return doc;
}

std::string JsonWriter::Escape(std::string_view s) {
  std::string out;
  out.reserve(s.size());
  AppendEscaped(&out, s);
  return out;
}

std::string JsonWriter::FormatDouble(double v) {
  std::string out;
  AppendDouble(&out, v);
  return out;
}

}  // namespace emsim::stats

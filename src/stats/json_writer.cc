#include "stats/json_writer.h"

#include <algorithm>
#include <bit>
#include <charconv>
#include <cmath>
#include <cstddef>
#include <cstdint>
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

/// The shortest of the "%.15g", "%.16g" and "%.17g" renderings of finite `v`
/// that parses back to exactly `v`, found by trying each precision in turn.
/// The standard specifies to_chars with a precision as if by the C printf
/// family, so the bytes are exactly the C library's "%.*g" renderings.
void AppendDoubleByRoundTrip(std::string* out, double v) {
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

/// Appends the bytes AppendDoubleByRoundTrip would, from one shortest
/// conversion; "null" for non-finite values.
///
/// Let the shortest round-trip form of `v` have n significant digits and
/// decimal exponent X. For a normal `v` its distance from `v` is at most
/// half an ulp, 2^-53 * |v|, which is under half a unit in the 15th digit:
/// so when n <= 15, "%.15g" rounds `v` to exactly those digits. When n is 16
/// or 17, no shorter precision round-trips, and the shortest form (the
/// closest n-digit decimal inside the rounding interval) is the correctly
/// rounded "%.{n}g". Either way the answer is the shortest digits laid out
/// by the %g rules at precision P = max(15, n): scientific when X < -4 or
/// X >= P, fixed otherwise, trailing zeros dropped. The argument needs a
/// rounding interval symmetric about `v` and at least 2^-53 * |v| wide on
/// either side. Subnormals lack the width and exact powers of two (whose
/// interval below is half as wide) the symmetry, so subnormals, and powers
/// of two with n >= 16, take the round-trip loop.
void AppendDouble(std::string* out, double v) {
  if (!std::isfinite(v)) {
    out->append("null");
    return;
  }
  // "[-]d[.ddd]e<sign><two or three digits>" -- already the %g scientific
  // layout, since the shortest digits carry no trailing zeros.
  char sci[kNumberBufSize];
  char* const sci_end =
      std::to_chars(sci, sci + sizeof sci, v, std::chars_format::scientific).ptr;
  const char* p = sci;
  const bool negative = *p == '-';
  p += negative ? 1 : 0;
  char digits[17];
  int n = 0;
  digits[n++] = *p++;
  if (*p == '.') {
    for (++p; *p != 'e'; ++p) {
      digits[n++] = *p;
    }
  }
  const bool negative_exp = p[1] == '-';
  int exp10 = 0;
  for (p += 2; p < sci_end; ++p) {
    exp10 = 10 * exp10 + (*p - '0');
  }
  exp10 = negative_exp ? -exp10 : exp10;

  constexpr uint64_t kMantissaMask = (uint64_t{1} << 52) - 1;
  const bool power_of_two = (std::bit_cast<uint64_t>(v) & kMantissaMask) == 0;
  if (std::fpclassify(v) == FP_SUBNORMAL || (power_of_two && n >= 16)) {
    AppendDoubleByRoundTrip(out, v);
    return;
  }
  const int precision = std::max(15, n);
  if (exp10 < -4 || exp10 >= precision) {
    out->append(sci, sci_end);
    return;
  }
  // Fixed: at most a sign, "0.0000" and 17 digits, or 17 integer digits.
  char buf[kNumberBufSize];
  char* w = buf;
  if (negative) {
    *w++ = '-';
  }
  if (exp10 < 0) {
    *w++ = '0';
    *w++ = '.';
    w = std::fill_n(w, -exp10 - 1, '0');
    w = std::copy(digits, digits + n, w);
  } else if (n <= exp10 + 1) {
    w = std::copy(digits, digits + n, w);
    w = std::fill_n(w, exp10 + 1 - n, '0');
  } else {
    w = std::copy(digits, digits + exp10 + 1, w);
    *w++ = '.';
    w = std::copy(digits + exp10 + 1, digits + n, w);
  }
  out->append(buf, w);
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

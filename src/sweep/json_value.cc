#include "sweep/json_value.h"

#include <algorithm>
#include <charconv>
#include <cstddef>
#include <cstdint>
#include <system_error>

#include "util/str.h"

namespace emsim::sweep {

namespace {

/// Artifacts are machine-written and shallow; a hostile deep document must
/// not overflow the stack. Every value counts, scalars included.
constexpr int kMaxDepth = 64;

/// Sign of the decimal exponent of the leading nonzero digit of a number
/// token that from_chars accepted but found out of range: >= 0 means the
/// value overflowed, < 0 that it underflowed. `p` points past any '-'.
bool OverflowedRange(const char* p, const char* last) {
  int64_t int_digits = 0;  // Digits before the decimal point.
  int64_t lead = -1;       // Digit index of the first nonzero digit.
  int64_t seen = 0;
  bool point = false;
  for (; p < last && *p != 'e' && *p != 'E'; ++p) {
    if (*p == '.') {
      point = true;
      continue;
    }
    if (lead < 0 && *p != '0') {
      lead = seen;
    }
    ++seen;
    if (!point) {
      ++int_digits;
    }
  }
  if (lead < 0) {
    return false;  // All zeros: cannot be out of range.
  }
  int64_t exponent = 0;
  if (p < last) {
    ++p;  // 'e' or 'E'.
    const bool negative = p < last && *p == '-';
    if (p < last && (*p == '-' || *p == '+')) {
      ++p;
    }
    // Exponents too long for 64 bits saturate; the token has < 2^32 digits.
    constexpr int64_t kHuge = int64_t{1} << 40;
    if (std::from_chars(p, last, exponent).ec != std::errc()) {
      exponent = kHuge;
    }
    exponent = negative ? -std::min(exponent, kHuge) : std::min(exponent, kHuge);
  }
  return int_digits - 1 - lead + exponent >= 0;
}

class Parser {
 public:
  Parser(std::string_view text, std::vector<JsonNode>* nodes,
         std::forward_list<std::string>* unescaped)
      : text_(text), nodes_(nodes), unescaped_(unescaped) {}

  Status ParseDocument() {
    EMSIM_RETURN_IF_ERROR(ParseValue(std::string_view()));
    SkipWhitespace();
    if (pos_ != text_.size()) {
      return Error("trailing characters after document");
    }
    return Status::OK();
  }

 private:
  Status Error(const char* what) const {
    return Status::InvalidArgument(StrFormat("json: %s at offset %zu", what, pos_));
  }

  void SkipWhitespace() {
    while (pos_ < text_.size()) {
      char c = text_[pos_];
      if (c != ' ' && c != '\t' && c != '\n' && c != '\r') {
        break;
      }
      ++pos_;
    }
  }

  bool Consume(char c) {
    if (pos_ < text_.size() && text_[pos_] == c) {
      ++pos_;
      return true;
    }
    return false;
  }

  bool ConsumeWord(std::string_view word) {
    if (text_.substr(pos_, word.size()) == word) {
      pos_ += word.size();
      return true;
    }
    return false;
  }

  /// Appends the value at pos_ (and its subtree) as a node named `key`.
  Status ParseValue(std::string_view key) {
    if (++depth_ > kMaxDepth) {
      return Error("nesting too deep");
    }
    SkipWhitespace();
    if (pos_ >= text_.size()) {
      return Error("unexpected end of input");
    }
    const size_t index = nodes_->size();
    // `node` is valid until the next node is appended, so containers fill
    // theirs in by index.
    JsonNode& node = nodes_->emplace_back();
    node.key = key;
    Status status;
    switch (text_[pos_]) {
      case '{':
        status = ParseContainer(index, JsonNode::Kind::kObject, '}');
        break;
      case '[':
        status = ParseContainer(index, JsonNode::Kind::kArray, ']');
        break;
      case '"':
        node.kind = JsonNode::Kind::kString;
        status = ParseString(&node.string);
        break;
      case 't':
      case 'f':
        node.kind = JsonNode::Kind::kBool;
        if (ConsumeWord("true")) {
          node.bool_value = true;
        } else if (!ConsumeWord("false")) {
          status = Error("invalid literal");
        }
        break;
      case 'n':
        if (!ConsumeWord("null")) {
          status = Error("invalid literal");
        }
        break;
      default:
        status = ParseNumber(&node);
        break;
    }
    --depth_;
    return status;
  }

  Status ParseContainer(size_t index, JsonNode::Kind kind, char close) {
    (*nodes_)[index].kind = kind;
    ++pos_;  // '{' or '['
    SkipWhitespace();
    if (!Consume(close)) {
      while (true) {
        std::string_view key;
        if (kind == JsonNode::Kind::kObject) {
          SkipWhitespace();
          if (pos_ >= text_.size() || text_[pos_] != '"') {
            return Error("expected object key");
          }
          EMSIM_RETURN_IF_ERROR(ParseString(&key));
          SkipWhitespace();
          if (!Consume(':')) {
            return Error("expected ':'");
          }
        }
        EMSIM_RETURN_IF_ERROR(ParseValue(key));
        SkipWhitespace();
        if (Consume(',')) {
          continue;
        }
        if (Consume(close)) {
          break;
        }
        return Error(kind == JsonNode::Kind::kObject ? "expected ',' or '}'"
                                                     : "expected ',' or ']'");
      }
    }
    (*nodes_)[index].end = static_cast<uint32_t>(nodes_->size() - index);
    return Status::OK();
  }

  /// A string token without escapes is a view into the text; one with
  /// escapes is unescaped into storage the document owns.
  Status ParseString(std::string_view* out) {
    ++pos_;  // '"'
    const size_t start = pos_;
    while (pos_ < text_.size() && text_[pos_] != '"' && text_[pos_] != '\\') {
      ++pos_;
    }
    if (pos_ >= text_.size()) {
      return Error("unterminated string");
    }
    if (text_[pos_] == '"') {
      *out = text_.substr(start, pos_ - start);
      ++pos_;
      return Status::OK();
    }
    std::string& owned = unescaped_->emplace_front(text_.substr(start, pos_ - start));
    while (pos_ < text_.size()) {
      char c = text_[pos_++];
      if (c == '"') {
        *out = owned;
        return Status::OK();
      }
      if (c != '\\') {
        owned.push_back(c);
        continue;
      }
      if (pos_ >= text_.size()) {
        break;
      }
      char esc = text_[pos_++];
      switch (esc) {
        case '"':
          owned.push_back('"');
          break;
        case '\\':
          owned.push_back('\\');
          break;
        case '/':
          owned.push_back('/');
          break;
        case 'b':
          owned.push_back('\b');
          break;
        case 'f':
          owned.push_back('\f');
          break;
        case 'n':
          owned.push_back('\n');
          break;
        case 'r':
          owned.push_back('\r');
          break;
        case 't':
          owned.push_back('\t');
          break;
        case 'u': {
          if (pos_ + 4 > text_.size()) {
            return Error("truncated \\u escape");
          }
          unsigned code = 0;
          for (int i = 0; i < 4; ++i) {
            char h = text_[pos_++];
            code <<= 4;
            if (h >= '0' && h <= '9') {
              code |= static_cast<unsigned>(h - '0');
            } else if (h >= 'a' && h <= 'f') {
              code |= static_cast<unsigned>(h - 'a' + 10);
            } else if (h >= 'A' && h <= 'F') {
              code |= static_cast<unsigned>(h - 'A' + 10);
            } else {
              return Error("invalid \\u escape");
            }
          }
          // JsonWriter only escapes control characters, so a one-byte
          // reconstruction is exact for everything it emits.
          if (code > 0xFF) {
            return Error("unsupported \\u escape above U+00FF");
          }
          owned.push_back(static_cast<char>(code));
          break;
        }
        default:
          return Error("invalid escape");
      }
    }
    return Error("unterminated string");
  }

  Status ParseNumber(JsonNode* node) {
    const size_t start = pos_;
    node->kind = JsonNode::Kind::kNumber;
    node->is_negative = Consume('-');
    bool integral = true;
    while (pos_ < text_.size()) {
      char c = text_[pos_];
      if (c >= '0' && c <= '9') {
        ++pos_;
      } else if (c == '.' || c == 'e' || c == 'E' || c == '+' || c == '-') {
        integral = false;
        ++pos_;
      } else {
        break;
      }
    }
    const char* first = text_.data() + start;
    const char* digits = first + (node->is_negative ? 1 : 0);
    const char* last = text_.data() + pos_;
    if (digits == last) {
      pos_ = start;
      return Error("invalid number");
    }
    node->is_integral = integral;
    if (integral) {
      // u64 -> double rounds to nearest, exactly as parsing the digits would.
      if (std::from_chars(digits, last, node->magnitude).ec != std::errc()) {
        pos_ = start;
        return Error("integer out of range");
      }
      node->number = static_cast<double>(node->magnitude);
      if (node->is_negative) {
        node->number = -node->number;
      }
      return Status::OK();
    }
    // from_chars takes no leading '+', as JSON requires.
    auto [ptr, ec] = std::from_chars(first, last, node->number);
    if (ptr != last || (ec != std::errc() && ec != std::errc::result_out_of_range)) {
      pos_ = start;
      return Error("invalid number");
    }
    if (ec == std::errc::result_out_of_range) {
      if (OverflowedRange(digits, last)) {
        pos_ = start;
        return Error("number out of range");
      }
      node->number = node->is_negative ? -0.0 : 0.0;  // Underflow reads as ±0.
    }
    return Status::OK();
  }

  std::string_view text_;
  std::vector<JsonNode>* nodes_;
  std::forward_list<std::string>* unescaped_;
  size_t pos_ = 0;
  int depth_ = 0;
};

}  // namespace

const JsonNode* JsonNode::Find(std::string_view name) const {
  if (kind != Kind::kObject) {
    return nullptr;
  }
  for (const JsonNode& member : children()) {
    if (member.key == name) {
      return &member;
    }
  }
  return nullptr;
}

Result<JsonDocument> ParseJson(std::string_view text) {
  if (text.size() >= UINT32_MAX) {
    return Status::InvalidArgument("json: document too large");
  }
  JsonDocument doc;
  // Machine-written documents average well over 32 bytes per value.
  doc.nodes_.reserve(text.size() / 32 + 4);
  EMSIM_RETURN_IF_ERROR(Parser(text, &doc.nodes_, &doc.unescaped_).ParseDocument());
  return doc;
}

}  // namespace emsim::sweep

#ifndef EMSIM_SWEEP_JSON_VALUE_H_
#define EMSIM_SWEEP_JSON_VALUE_H_

#include <cstddef>
#include <cstdint>
#include <forward_list>
#include <string>
#include <string_view>
#include <vector>

#include "util/status.h"

namespace emsim::sweep {

/// One value of a parsed JsonDocument. Design goals are exactness and
/// determinism, not generality: numbers keep both their double value and,
/// when the token is integral, the exact 64-bit magnitude, so every value
/// emitted by stats::JsonWriter round-trips bit-for-bit (JsonWriter's
/// doubles are shortest-form round trips, its integers plain digit
/// strings).
///
/// Nodes are stored flat, in document order: a container's children follow
/// it directly, each child's subtree ahead of the next child. Strings and
/// keys are views into the parsed text (or, for tokens with escapes, into
/// storage the document owns), so a node is only valid while both its
/// document and the text it was parsed from are alive.
struct JsonNode {
  enum class Kind : uint8_t { kNull, kBool, kNumber, kString, kArray, kObject };

  Kind kind = Kind::kNull;
  bool bool_value = false;
  bool is_integral = false;  ///< kNumber token had no '.', 'e' or 'E'.
  bool is_negative = false;  ///< kNumber token began with '-'.
  /// Index one past this node's last descendant, relative to this node:
  /// `this + end` is the next sibling (or the parent's end). 1 for scalars.
  uint32_t end = 1;
  std::string_view key;     ///< Member name when the parent is an object.
  std::string_view string;  ///< kString payload (unescaped).
  double number = 0.0;      ///< Value of the token (kNumber).
  uint64_t magnitude = 0;   ///< |integer| when is_integral (kNumber).

  /// The direct children of an array or object, in document order; empty
  /// for scalars.
  class Children {
   public:
    class Iterator {
     public:
      explicit Iterator(const JsonNode* node) : node_(node) {}
      const JsonNode& operator*() const { return *node_; }
      const JsonNode* operator->() const { return node_; }
      Iterator& operator++() {
        node_ += node_->end;
        return *this;
      }
      bool operator!=(const Iterator& other) const { return node_ != other.node_; }

     private:
      const JsonNode* node_;
    };

    Children(const JsonNode* first, const JsonNode* last) : first_(first), last_(last) {}
    Iterator begin() const { return Iterator(first_); }
    Iterator end() const { return Iterator(last_); }

   private:
    const JsonNode* first_;
    const JsonNode* last_;
  };

  Children children() const { return Children(this + 1, this + end); }

  /// Object member lookup: the first member named `name`; nullptr when
  /// absent or not an object.
  const JsonNode* Find(std::string_view name) const;
};

/// A parsed JSON document: every node in one vector, in document order.
/// Moving the document keeps its nodes and owned strings in place; it is
/// move-only because a copy's nodes would still view the original's strings.
class JsonDocument {
 public:
  JsonDocument() = default;
  JsonDocument(JsonDocument&&) = default;
  JsonDocument& operator=(JsonDocument&&) = default;
  JsonDocument(const JsonDocument&) = delete;
  JsonDocument& operator=(const JsonDocument&) = delete;

  const JsonNode& root() const { return nodes_.front(); }
  size_t size() const { return nodes_.size(); }

 private:
  friend Result<JsonDocument> ParseJson(std::string_view text);

  std::vector<JsonNode> nodes_;
  /// Unescaped copies of the string tokens that contain a backslash; a list
  /// so the nodes' views stay valid as it grows.
  std::forward_list<std::string> unescaped_;
};

/// Parses a complete JSON document (trailing whitespace allowed, anything
/// else is an error). The document's strings view `text`, which must
/// outlive it. Errors carry the byte offset of the offending input. A
/// number that overflows a double, or an integral one that overflows 64
/// bits, is an error; one that underflows reads as ±0.
Result<JsonDocument> ParseJson(std::string_view text);

}  // namespace emsim::sweep

#endif  // EMSIM_SWEEP_JSON_VALUE_H_

#include "core/result_fields.h"

#include <bit>
#include <cstddef>
#include <cstdint>
#include <map>
#include <string>
#include <string_view>
#include <type_traits>
#include <vector>

#include "util/str.h"

namespace emsim::core {

namespace {

/// One leaf of a flattened result: its dotted path, its value as shown, and
/// its exact bits (a double's pattern, an integer's value).
struct Leaf {
  std::string path;
  std::string text;
  uint64_t bits = 0;

  bool operator==(const Leaf&) const = default;
};

/// Flattens a result into its leaves in table order; a vector adds a size
/// leaf under its own key ahead of its elements.
class Flattener {
 public:
  std::vector<Leaf> leaves;

  template <typename T>
  void Field(const char* key, const T& leaf, bool /*on_wire*/ = true) {
    Leaf& out = leaves.emplace_back(Leaf{prefix_ + key, {}, 0});
    if constexpr (std::is_same_v<T, std::string>) {
      out.text = '"' + leaf + '"';
    } else if constexpr (std::is_same_v<T, double>) {
      out.text = StrFormat("%.17g", leaf);
      out.bits = std::bit_cast<uint64_t>(leaf);
    } else {
      out.text = std::is_same_v<T, bool> ? (leaf ? "true" : "false") : std::to_string(leaf);
      out.bits = static_cast<uint64_t>(leaf);
    }
  }
  template <typename S>
  void Object(const char* key, const S& sub) {
    Nest(key, sub);
  }
  template <typename S>
  void Array(const char* key, const std::vector<S>& items) {
    leaves.push_back(Leaf{prefix_ + key, StrFormat("size %zu", items.size()), items.size()});
    for (size_t i = 0; i < items.size(); ++i) {
      Nest(StrFormat("%s[%zu]", key, i), items[i]);
    }
  }

 private:
  template <typename S>
  void Nest(const std::string& key, const S& sub) {
    size_t outer = prefix_.size();
    prefix_ += key + '.';
    VisitFields(sub, *this);
    prefix_.resize(outer);
  }

  std::string prefix_;
};

}  // namespace

std::vector<std::string> DiffFields(const MergeResult& a, const MergeResult& b) {
  Flattener mine;
  Flattener theirs;
  VisitFields(a, mine);
  VisitFields(b, theirs);
  std::map<std::string_view, const Leaf*> by_path;
  for (const Leaf& leaf : theirs.leaves) {
    by_path.emplace(leaf.path, &leaf);
  }
  // A leaf on one side only lies past the end of the other side's vector,
  // whose size line reports it.
  std::vector<std::string> lines;
  for (const Leaf& leaf : mine.leaves) {
    auto it = by_path.find(leaf.path);
    if (it != by_path.end() && !(*it->second == leaf)) {
      lines.push_back(leaf.path + ": " + leaf.text + " vs " + it->second->text);
    }
  }
  return lines;
}

}  // namespace emsim::core

#ifndef EMSIM_STATS_JSON_WRITER_H_
#define EMSIM_STATS_JSON_WRITER_H_

#include <cstdint>
#include <string>
#include <string_view>
#include <vector>

namespace emsim::stats {

/// Streaming JSON document builder with deterministic, schema-stable output:
/// two-space pretty printing, keys emitted in call order, and doubles
/// rendered as the shortest of their %.15g/%.16g/%.17g forms that parses
/// back exactly — so identical data always serializes to identical bytes
/// (the property CI diffs rely on). Numbers and escaped strings are
/// formatted straight into the document buffer; a value allocates nothing
/// once the buffer has grown.
///
/// Usage is push-based and validated by assertions, not a DOM:
///
///     JsonWriter w;
///     w.BeginObject();
///     w.Field("name", "fig32");
///     w.Key("trials"); w.BeginArray(); w.Int(5); w.EndArray();
///     w.EndObject();
///     std::string doc = w.Take();
///
/// Non-finite doubles serialize as null (JSON has no NaN/Inf).
class JsonWriter {
 public:
  JsonWriter() = default;

  void BeginObject();
  void EndObject();
  void BeginArray();
  void EndArray();

  /// Emits an object key; the next value call supplies its value.
  void Key(std::string_view name);

  void String(std::string_view value);
  void Number(double value);
  void Int(int64_t value);
  void UInt(uint64_t value);
  void Bool(bool value);
  void Null();

  /// Key + value in one call.
  void Field(std::string_view key, std::string_view value) { Key(key); String(value); }
  void Field(std::string_view key, const char* value) { Key(key); String(value); }
  void Field(std::string_view key, double value) { Key(key); Number(value); }
  void Field(std::string_view key, int value) { Key(key); Int(value); }
  void Field(std::string_view key, int64_t value) { Key(key); Int(value); }
  void Field(std::string_view key, uint64_t value) { Key(key); UInt(value); }
  void Field(std::string_view key, bool value) { Key(key); Bool(value); }

  /// Finishes the document (must be balanced) and returns it with a trailing
  /// newline. The writer is reset and reusable afterwards.
  std::string Take();

  /// JSON string escaping (quotes not included), as String() emits it.
  static std::string Escape(std::string_view s);

  /// The bytes Number(v) emits: the shortest of the %.15g, %.16g and %.17g
  /// renderings of `v` that parses back to exactly `v`; "null" for
  /// non-finite values.
  static std::string FormatDouble(double v);

 private:
  enum class Scope { kObject, kArray };

  void BeforeValue();
  void NewlineIndent();

  std::string out_;
  std::vector<Scope> stack_;
  std::vector<int> counts_;   // Values emitted in each open scope.
  bool key_pending_ = false;  // A Key() awaits its value (no newline needed).
};

}  // namespace emsim::stats

#endif  // EMSIM_STATS_JSON_WRITER_H_

// Minimal JSON support shared by the benchmark reports, the serving
// protocol (src/server/), and the CLI client.
//
//   JsonWriter — streaming emitter with automatic comma/nesting handling,
//                fixed-precision doubles for the bench reports, and an
//                opt-in pretty mode for human-facing output. Replaces the
//                hand-rolled snprintf emission the bench binaries used to
//                duplicate (whose fixed-size buffers silently truncated —
//                the PR-3 bug class this type exists to retire).
//   JsonValue  — an owning DOM (null/bool/int/double/string/array/object,
//                object key order preserved) with a recursive-descent
//                parser, used to decode protocol requests/responses.
//
// The dialect is RFC 8259 minus exotica: no duplicate-key policing, \uXXXX
// escapes decode to UTF-8 (surrogate pairs supported), parse depth capped.
#ifndef GRAPHITE_UTIL_JSON_H_
#define GRAPHITE_UTIL_JSON_H_

#include <cstdint>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

#include "util/status.h"

namespace graphite {

/// Streaming JSON emitter. Scope calls must nest correctly (checked);
/// values inside objects must be preceded by Key().
///
///   JsonWriter w;
///   w.BeginObject().Key("wall_ms").Fixed(3.25, 3).Key("modes").BeginArray()
///    .Int(1).Int(2).EndArray().EndObject();
///   w.str()  // {"wall_ms": 3.250, "modes": [1, 2]}
class JsonWriter {
 public:
  /// `indent` > 0 pretty-prints with that many spaces per level; 0 emits
  /// the compact one-line form used on the wire (with a space after ':'
  /// and ',' for readability, matching the committed bench reports).
  explicit JsonWriter(int indent = 0) : indent_(indent) {}

  JsonWriter& BeginObject();
  JsonWriter& EndObject();
  JsonWriter& BeginArray();
  JsonWriter& EndArray();
  JsonWriter& Key(std::string_view key);

  JsonWriter& String(std::string_view value);
  JsonWriter& Int(int64_t value);
  JsonWriter& UInt(uint64_t value);
  /// Shortest form that round-trips ("%.17g", trimmed): protocol payloads.
  JsonWriter& Double(double value);
  /// Fixed decimals ("%.*f"): the bench-report style, stable diffs.
  JsonWriter& Fixed(double value, int decimals);
  JsonWriter& Bool(bool value);
  JsonWriter& Null();
  /// Emits an already-serialized JSON fragment verbatim in value position
  /// (e.g. a cached result object). The caller vouches for its validity.
  JsonWriter& Raw(std::string_view json);

  /// The output so far. Valid JSON once every scope is closed.
  const std::string& str() const { return out_; }
  std::string Take() { return std::move(out_); }

 private:
  void BeforeValue();
  void NewlineIndent();

  struct Scope {
    char kind;    // '{' or '['
    int count;    // values emitted so far
  };
  std::string out_;
  std::vector<Scope> stack_;
  bool key_pending_ = false;
  int indent_;
};

/// Escapes `value` per JSON string rules (quotes not included).
void JsonEscape(std::string_view value, std::string* out);

/// An owning JSON document node.
class JsonValue {
 public:
  enum class Type { kNull, kBool, kInt, kDouble, kString, kArray, kObject };
  using Member = std::pair<std::string, JsonValue>;

  JsonValue() = default;  // null
  static JsonValue MakeBool(bool b);
  static JsonValue MakeInt(int64_t i);
  static JsonValue MakeDouble(double d);
  static JsonValue MakeString(std::string s);
  static JsonValue MakeArray();
  static JsonValue MakeObject();

  Type type() const { return type_; }
  bool is_null() const { return type_ == Type::kNull; }
  bool is_bool() const { return type_ == Type::kBool; }
  bool is_number() const {
    return type_ == Type::kInt || type_ == Type::kDouble;
  }
  bool is_string() const { return type_ == Type::kString; }
  bool is_array() const { return type_ == Type::kArray; }
  bool is_object() const { return type_ == Type::kObject; }

  bool AsBool(bool def = false) const;
  int64_t AsInt(int64_t def = 0) const;     // truncates in-range doubles
  double AsDouble(double def = 0.0) const;
  const std::string& AsString() const;      // empty when not a string

  const std::vector<JsonValue>& items() const { return array_; }
  const std::vector<Member>& members() const { return object_; }
  std::vector<JsonValue>* mutable_items() { return &array_; }

  /// Object lookup; null when absent or not an object.
  const JsonValue* Find(std::string_view key) const;
  /// Typed convenience lookups with defaults (absent/mistyped → default).
  bool GetBool(std::string_view key, bool def = false) const;
  int64_t GetInt(std::string_view key, int64_t def = 0) const;
  double GetDouble(std::string_view key, double def = 0.0) const;
  std::string GetString(std::string_view key, std::string def = "") const;

  /// Appends/sets members (object) or items (array).
  void Add(std::string key, JsonValue v);
  void Push(JsonValue v);

  /// Re-serializes through `w` (used by the CLI pretty-printer).
  void WriteTo(JsonWriter* w) const;

 private:
  Type type_ = Type::kNull;
  bool bool_ = false;
  int64_t int_ = 0;
  double double_ = 0;
  std::string string_;
  std::vector<JsonValue> array_;
  std::vector<Member> object_;
};

/// Parses one JSON document; trailing non-whitespace is an error.
Result<JsonValue> ParseJson(std::string_view text);

}  // namespace graphite

#endif  // GRAPHITE_UTIL_JSON_H_

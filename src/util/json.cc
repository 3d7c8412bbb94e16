#include "util/json.h"

#include <cerrno>
#include <charconv>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <cstring>

namespace graphite {

// ---------------------------------------------------------------------
// JsonWriter.
// ---------------------------------------------------------------------

void JsonWriter::NewlineIndent() {
  out_.push_back('\n');
  out_.append(static_cast<size_t>(indent_) * stack_.size(), ' ');
}

void JsonWriter::BeforeValue() {
  if (stack_.empty()) return;
  Scope& top = stack_.back();
  if (top.kind == '{') {
    // Inside an object a value may only follow a Key() (which clears the
    // pending flag itself before writing the separator).
    GRAPHITE_CHECK(key_pending_);
    key_pending_ = false;
    return;
  }
  if (top.count++ > 0) out_.push_back(',');
  if (indent_ > 0) {
    NewlineIndent();
  } else if (top.count > 1) {
    out_.push_back(' ');
  }
}

JsonWriter& JsonWriter::Key(std::string_view key) {
  GRAPHITE_CHECK(!stack_.empty() && stack_.back().kind == '{');
  GRAPHITE_CHECK(!key_pending_);
  Scope& top = stack_.back();
  if (top.count++ > 0) out_.push_back(',');
  if (indent_ > 0) {
    NewlineIndent();
  } else if (top.count > 1) {
    out_.push_back(' ');
  }
  out_.push_back('"');
  JsonEscape(key, &out_);
  out_.append("\": ");
  key_pending_ = true;
  return *this;
}

JsonWriter& JsonWriter::BeginObject() {
  BeforeValue();
  out_.push_back('{');
  stack_.push_back({'{', 0});
  return *this;
}

JsonWriter& JsonWriter::EndObject() {
  GRAPHITE_CHECK(!stack_.empty() && stack_.back().kind == '{');
  GRAPHITE_CHECK(!key_pending_);
  const bool empty = stack_.back().count == 0;
  stack_.pop_back();
  if (indent_ > 0 && !empty) NewlineIndent();
  out_.push_back('}');
  return *this;
}

JsonWriter& JsonWriter::BeginArray() {
  BeforeValue();
  out_.push_back('[');
  stack_.push_back({'[', 0});
  return *this;
}

JsonWriter& JsonWriter::EndArray() {
  GRAPHITE_CHECK(!stack_.empty() && stack_.back().kind == '[');
  const bool empty = stack_.back().count == 0;
  stack_.pop_back();
  if (indent_ > 0 && !empty) NewlineIndent();
  out_.push_back(']');
  return *this;
}

JsonWriter& JsonWriter::String(std::string_view value) {
  BeforeValue();
  out_.push_back('"');
  JsonEscape(value, &out_);
  out_.push_back('"');
  return *this;
}

JsonWriter& JsonWriter::Int(int64_t value) {
  BeforeValue();
  out_.append(std::to_string(value));
  return *this;
}

JsonWriter& JsonWriter::UInt(uint64_t value) {
  BeforeValue();
  out_.append(std::to_string(value));
  return *this;
}

JsonWriter& JsonWriter::Double(double value) {
  BeforeValue();
  if (!std::isfinite(value)) {  // JSON has no inf/nan; emit null.
    out_.append("null");
    return *this;
  }
  // The shortest "%.Pg" that parses back to the value; integral values get
  // a ".0" so the token parses back as a double-typed number. No shorter P
  // can round-trip than the digit count of the shortest round-trip text
  // (one scientific conversion), and that P nearly always does. It can
  // miss where the correctly rounded P digits fall outside the round-trip
  // interval, which is narrower below an exact power of two (2^-44: the
  // shortest text is 5.684341886080802e-14, "%.16g" 5.684341886080801e-14
  // parses to the predecessor), so each candidate is parsed back and P
  // grows until one holds; 17 digits always do.
  char buf[40];
  const std::to_chars_result shortest =
      std::to_chars(buf, buf + sizeof(buf), value, std::chars_format::scientific);
  GRAPHITE_CHECK(shortest.ec == std::errc());
  int digits = 0;
  for (const char* c = buf; c != shortest.ptr && *c != 'e'; ++c) {
    if (*c >= '0' && *c <= '9') ++digits;
  }
  std::to_chars_result general;
  for (;; ++digits) {
    general = std::to_chars(buf, buf + sizeof(buf), value,
                            std::chars_format::general, digits);
    GRAPHITE_CHECK(general.ec == std::errc());
    if (digits >= 17) break;
    double parsed = 0;
    std::from_chars(buf, general.ptr, parsed);
    if (parsed == value) break;
  }
  const std::string_view text(buf, static_cast<size_t>(general.ptr - buf));
  out_.append(text);
  if (text.find_first_of(".eEn") == std::string_view::npos) out_.append(".0");
  return *this;
}

JsonWriter& JsonWriter::Fixed(double value, int decimals) {
  BeforeValue();
  if (!std::isfinite(value)) {
    out_.append("null");
    return *this;
  }
  char buf[64];
  std::snprintf(buf, sizeof(buf), "%.*f", decimals, value);
  out_.append(buf);
  return *this;
}

JsonWriter& JsonWriter::Bool(bool value) {
  BeforeValue();
  out_.append(value ? "true" : "false");
  return *this;
}

JsonWriter& JsonWriter::Null() {
  BeforeValue();
  out_.append("null");
  return *this;
}

JsonWriter& JsonWriter::Raw(std::string_view json) {
  BeforeValue();
  out_.append(json);
  return *this;
}

void JsonEscape(std::string_view value, std::string* out) {
  for (const char c : value) {
    switch (c) {
      case '"': out->append("\\\""); break;
      case '\\': out->append("\\\\"); break;
      case '\b': out->append("\\b"); break;
      case '\f': out->append("\\f"); break;
      case '\n': out->append("\\n"); break;
      case '\r': out->append("\\r"); break;
      case '\t': out->append("\\t"); break;
      default:
        if (static_cast<unsigned char>(c) < 0x20) {
          char buf[8];
          std::snprintf(buf, sizeof(buf), "\\u%04x", c);
          out->append(buf);
        } else {
          out->push_back(c);
        }
    }
  }
}

// ---------------------------------------------------------------------
// JsonValue.
// ---------------------------------------------------------------------

JsonValue JsonValue::MakeBool(bool b) {
  JsonValue v;
  v.type_ = Type::kBool;
  v.bool_ = b;
  return v;
}
JsonValue JsonValue::MakeInt(int64_t i) {
  JsonValue v;
  v.type_ = Type::kInt;
  v.int_ = i;
  return v;
}
JsonValue JsonValue::MakeDouble(double d) {
  JsonValue v;
  v.type_ = Type::kDouble;
  v.double_ = d;
  return v;
}
JsonValue JsonValue::MakeString(std::string s) {
  JsonValue v;
  v.type_ = Type::kString;
  v.string_ = std::move(s);
  return v;
}
JsonValue JsonValue::MakeArray() {
  JsonValue v;
  v.type_ = Type::kArray;
  return v;
}
JsonValue JsonValue::MakeObject() {
  JsonValue v;
  v.type_ = Type::kObject;
  return v;
}

bool JsonValue::AsBool(bool def) const {
  return type_ == Type::kBool ? bool_ : def;
}
int64_t JsonValue::AsInt(int64_t def) const {
  if (type_ == Type::kInt) return int_;
  // Only a double in int64 range converts: casting NaN or one outside it
  // is undefined behaviour.
  if (type_ == Type::kDouble && double_ >= -0x1p63 && double_ < 0x1p63) {
    return static_cast<int64_t>(double_);
  }
  return def;
}
double JsonValue::AsDouble(double def) const {
  if (type_ == Type::kDouble) return double_;
  if (type_ == Type::kInt) return static_cast<double>(int_);
  return def;
}
const std::string& JsonValue::AsString() const { return string_; }

const JsonValue* JsonValue::Find(std::string_view key) const {
  if (type_ != Type::kObject) return nullptr;
  for (const Member& m : object_) {
    if (m.first == key) return &m.second;
  }
  return nullptr;
}

bool JsonValue::GetBool(std::string_view key, bool def) const {
  const JsonValue* v = Find(key);
  return v != nullptr && v->is_bool() ? v->AsBool() : def;
}
int64_t JsonValue::GetInt(std::string_view key, int64_t def) const {
  const JsonValue* v = Find(key);
  return v != nullptr && v->is_number() ? v->AsInt() : def;
}
double JsonValue::GetDouble(std::string_view key, double def) const {
  const JsonValue* v = Find(key);
  return v != nullptr && v->is_number() ? v->AsDouble() : def;
}
std::string JsonValue::GetString(std::string_view key,
                                 std::string def) const {
  const JsonValue* v = Find(key);
  return v != nullptr && v->is_string() ? v->AsString() : std::move(def);
}

void JsonValue::Add(std::string key, JsonValue v) {
  GRAPHITE_CHECK(type_ == Type::kObject);
  object_.emplace_back(std::move(key), std::move(v));
}
void JsonValue::Push(JsonValue v) {
  GRAPHITE_CHECK(type_ == Type::kArray);
  array_.push_back(std::move(v));
}

void JsonValue::WriteTo(JsonWriter* w) const {
  switch (type_) {
    case Type::kNull: w->Null(); break;
    case Type::kBool: w->Bool(bool_); break;
    case Type::kInt: w->Int(int_); break;
    case Type::kDouble: w->Double(double_); break;
    case Type::kString: w->String(string_); break;
    case Type::kArray:
      w->BeginArray();
      for (const JsonValue& v : array_) v.WriteTo(w);
      w->EndArray();
      break;
    case Type::kObject:
      w->BeginObject();
      for (const Member& m : object_) {
        w->Key(m.first);
        m.second.WriteTo(w);
      }
      w->EndObject();
      break;
  }
}

// ---------------------------------------------------------------------
// Parser.
// ---------------------------------------------------------------------

namespace {

constexpr int kMaxDepth = 64;

class Parser {
 public:
  explicit Parser(std::string_view text) : text_(text) {}

  Result<JsonValue> Parse() {
    JsonValue v;
    GRAPHITE_RETURN_NOT_OK(ParseValue(&v, 0));
    SkipWs();
    if (pos_ != text_.size()) return Err("trailing characters");
    return v;
  }

 private:
  // GRAPHITE_RETURN_NOT_OK works on Status; helpers below return Status
  // and the top level converts to Result.
  Status Err(const std::string& what) const {
    return Status::InvalidArgument("json: " + what + " at offset " +
                                   std::to_string(pos_));
  }

  void SkipWs() {
    while (pos_ < text_.size()) {
      const char c = text_[pos_];
      if (c != ' ' && c != '\t' && c != '\n' && c != '\r') break;
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

  bool ConsumeWord(const char* w) {
    const size_t n = std::strlen(w);
    if (text_.substr(pos_, n) == w) {
      pos_ += n;
      return true;
    }
    return false;
  }

  Status ParseValue(JsonValue* out, int depth) {
    if (depth > kMaxDepth) return Err("nesting too deep");
    SkipWs();
    if (pos_ >= text_.size()) return Err("unexpected end of input");
    const char c = text_[pos_];
    if (c == '{') return ParseObject(out, depth);
    if (c == '[') return ParseArray(out, depth);
    if (c == '"') {
      std::string s;
      GRAPHITE_RETURN_NOT_OK(ParseString(&s));
      *out = JsonValue::MakeString(std::move(s));
      return Status::OK();
    }
    if (ConsumeWord("true")) {
      *out = JsonValue::MakeBool(true);
      return Status::OK();
    }
    if (ConsumeWord("false")) {
      *out = JsonValue::MakeBool(false);
      return Status::OK();
    }
    if (ConsumeWord("null")) {
      *out = JsonValue();
      return Status::OK();
    }
    return ParseNumber(out);
  }

  Status ParseObject(JsonValue* out, int depth) {
    ++pos_;  // '{'
    *out = JsonValue::MakeObject();
    SkipWs();
    if (Consume('}')) return Status::OK();
    for (;;) {
      SkipWs();
      if (pos_ >= text_.size() || text_[pos_] != '"') {
        return Err("expected object key");
      }
      std::string key;
      GRAPHITE_RETURN_NOT_OK(ParseString(&key));
      SkipWs();
      if (!Consume(':')) return Err("expected ':'");
      JsonValue v;
      GRAPHITE_RETURN_NOT_OK(ParseValue(&v, depth + 1));
      out->Add(std::move(key), std::move(v));
      SkipWs();
      if (Consume(',')) continue;
      if (Consume('}')) return Status::OK();
      return Err("expected ',' or '}'");
    }
  }

  Status ParseArray(JsonValue* out, int depth) {
    ++pos_;  // '['
    *out = JsonValue::MakeArray();
    SkipWs();
    if (Consume(']')) return Status::OK();
    for (;;) {
      JsonValue v;
      GRAPHITE_RETURN_NOT_OK(ParseValue(&v, depth + 1));
      out->Push(std::move(v));
      SkipWs();
      if (Consume(',')) continue;
      if (Consume(']')) return Status::OK();
      return Err("expected ',' or ']'");
    }
  }

  Status ParseString(std::string* out) {
    ++pos_;  // '"'
    while (pos_ < text_.size()) {
      const char c = text_[pos_++];
      if (c == '"') return Status::OK();
      if (c != '\\') {
        out->push_back(c);
        continue;
      }
      if (pos_ >= text_.size()) break;
      const char e = text_[pos_++];
      switch (e) {
        case '"': out->push_back('"'); break;
        case '\\': out->push_back('\\'); break;
        case '/': out->push_back('/'); break;
        case 'b': out->push_back('\b'); break;
        case 'f': out->push_back('\f'); break;
        case 'n': out->push_back('\n'); break;
        case 'r': out->push_back('\r'); break;
        case 't': out->push_back('\t'); break;
        case 'u': {
          uint32_t cp = 0;
          GRAPHITE_RETURN_NOT_OK(ParseHex4(&cp));
          if (cp >= 0xD800 && cp <= 0xDBFF) {  // high surrogate
            if (!(Consume('\\') && Consume('u'))) {
              return Err("unpaired surrogate");
            }
            uint32_t lo = 0;
            GRAPHITE_RETURN_NOT_OK(ParseHex4(&lo));
            if (lo < 0xDC00 || lo > 0xDFFF) return Err("invalid surrogate");
            cp = 0x10000 + ((cp - 0xD800) << 10) + (lo - 0xDC00);
          }
          AppendUtf8(cp, out);
          break;
        }
        default:
          return Err("bad escape");
      }
    }
    return Err("unterminated string");
  }

  Status ParseHex4(uint32_t* out) {
    if (pos_ + 4 > text_.size()) return Err("bad \\u escape");
    uint32_t v = 0;
    for (int i = 0; i < 4; ++i) {
      const char c = text_[pos_++];
      v <<= 4;
      if (c >= '0' && c <= '9') v |= static_cast<uint32_t>(c - '0');
      else if (c >= 'a' && c <= 'f') v |= static_cast<uint32_t>(c - 'a' + 10);
      else if (c >= 'A' && c <= 'F') v |= static_cast<uint32_t>(c - 'A' + 10);
      else return Err("bad \\u escape");
    }
    *out = v;
    return Status::OK();
  }

  static void AppendUtf8(uint32_t cp, std::string* out) {
    if (cp < 0x80) {
      out->push_back(static_cast<char>(cp));
    } else if (cp < 0x800) {
      out->push_back(static_cast<char>(0xC0 | (cp >> 6)));
      out->push_back(static_cast<char>(0x80 | (cp & 0x3F)));
    } else if (cp < 0x10000) {
      out->push_back(static_cast<char>(0xE0 | (cp >> 12)));
      out->push_back(static_cast<char>(0x80 | ((cp >> 6) & 0x3F)));
      out->push_back(static_cast<char>(0x80 | (cp & 0x3F)));
    } else {
      out->push_back(static_cast<char>(0xF0 | (cp >> 18)));
      out->push_back(static_cast<char>(0x80 | ((cp >> 12) & 0x3F)));
      out->push_back(static_cast<char>(0x80 | ((cp >> 6) & 0x3F)));
      out->push_back(static_cast<char>(0x80 | (cp & 0x3F)));
    }
  }

  Status ParseNumber(JsonValue* out) {
    const size_t begin = pos_;
    if (Consume('-')) {}
    while (pos_ < text_.size() && text_[pos_] >= '0' && text_[pos_] <= '9') {
      ++pos_;
    }
    bool is_double = false;
    if (Consume('.')) {
      is_double = true;
      while (pos_ < text_.size() && text_[pos_] >= '0' &&
             text_[pos_] <= '9') {
        ++pos_;
      }
    }
    if (pos_ < text_.size() && (text_[pos_] == 'e' || text_[pos_] == 'E')) {
      is_double = true;
      ++pos_;
      if (pos_ < text_.size() && (text_[pos_] == '+' || text_[pos_] == '-')) {
        ++pos_;
      }
      while (pos_ < text_.size() && text_[pos_] >= '0' &&
             text_[pos_] <= '9') {
        ++pos_;
      }
    }
    const std::string token(text_.substr(begin, pos_ - begin));
    if (token.empty() || token == "-") return Err("expected a value");
    if (!is_double) {
      // Out-of-int64-range literals fall back to double.
      errno = 0;
      char* end = nullptr;
      const long long v = std::strtoll(token.c_str(), &end, 10);
      if (errno == 0 && end == token.c_str() + token.size()) {
        *out = JsonValue::MakeInt(v);
        return Status::OK();
      }
    }
    char* end = nullptr;
    const double d = std::strtod(token.c_str(), &end);
    if (end != token.c_str() + token.size()) return Err("bad number");
    *out = JsonValue::MakeDouble(d);
    return Status::OK();
  }

  std::string_view text_;
  size_t pos_ = 0;
};

}  // namespace

Result<JsonValue> ParseJson(std::string_view text) {
  return Parser(text).Parse();
}

}  // namespace graphite

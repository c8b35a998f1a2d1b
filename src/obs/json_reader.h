// A strict reader for the JSON subset this repo's artifacts emit: objects,
// arrays, unescaped strings, numbers and booleans. parse_json is the one
// parser behind obs::validate_metrics_json and every BENCH_*.json validator;
// it rejects truncated files, missing separators and trailing garbage, and
// check_keys then holds each object of the tree it builds to a key list.
#pragma once

#include <cstdint>
#include <cstdlib>
#include <span>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

namespace zdc::obs {

/// One parsed value. Objects keep their members in document order.
struct JsonValue {
  enum class Type : std::uint8_t { kString, kNumber, kBool, kArray, kObject };
  Type type = Type::kNumber;
  std::string text{};  ///< a string, or a number / boolean as written
  double number = 0;   ///< a number's value; a boolean's 0 or 1
  std::vector<JsonValue> items{};                            ///< an array's
  std::vector<std::pair<std::string, JsonValue>> members{};  ///< an object's

  /// The member named `key`, or nullptr (also when this is no object).
  [[nodiscard]] const JsonValue* get(std::string_view key) const {
    for (const auto& [name, value] : members) {
      if (name == key) return &value;
    }
    return nullptr;
  }
};

/// A cursor over the text. Every call skips whitespace first; a token that
/// is not there sets `fail`, which sticks.
struct JsonParser {
  const char* p;
  const char* end;
  bool fail = false;

  void skip_ws() {
    while (p < end && (*p == ' ' || *p == '\n' || *p == '\t' || *p == '\r')) {
      ++p;
    }
  }
  bool peek(char c) {
    skip_ws();
    return p < end && *p == c;
  }
  bool consume(char c) {
    const bool there = peek(c);
    if (there) ++p;
    fail = fail || !there;
    return there;
  }
  /// Consumes `word` when the text continues with it.
  bool consume_word(std::string_view word) {
    skip_ws();
    const bool there = std::string_view(p, end - p).starts_with(word);
    if (there) p += word.size();
    return there;
  }
  std::string parse_string() {
    if (!consume('"')) return {};
    const char* start = p;
    while (p < end && *p != '"' && *p != '\\') ++p;  // no escapes emitted
    std::string s(start, p);
    consume('"');
    return s;
  }

  /// Parses the value at the cursor, recursively; false when malformed.
  bool parse_value(JsonValue* v) {
    using Type = JsonValue::Type;
    if (peek('{') || peek('[')) {
      const bool object = peek('{');
      const char close = object ? '}' : ']';
      v->type = object ? Type::kObject : Type::kArray;
      ++p;
      if (!peek(close)) {
        do {
          JsonValue* item = nullptr;
          if (object) {
            std::string key = parse_string();
            consume(':');
            item = &v->members.emplace_back(std::move(key), JsonValue{}).second;
          } else {
            item = &v->items.emplace_back();
          }
          parse_value(item);
        } while (!fail && peek(',') && consume(','));
      }
      return consume(close) && !fail;
    }
    if (peek('"')) {
      v->type = Type::kString;
      v->text = parse_string();
    } else if (peek('t') || peek('f')) {
      const bool b = consume_word("true");
      fail = fail || !(b || consume_word("false"));
      v->type = Type::kBool;
      v->text = b ? "true" : "false";
      v->number = b ? 1 : 0;
    } else {
      char* after = nullptr;
      v->number = std::strtod(p, &after);
      fail = fail || after == p;
      v->text.assign(p, static_cast<std::size_t>(after - p));
      p = after;
    }
    return !fail;
  }
};

/// Parses a whole document into `out`: empty on success, else a one-line
/// diagnostic.
inline std::string parse_json(const std::string& text, JsonValue* out) {
  JsonParser j{text.data(), text.data() + text.size()};
  if (!j.parse_value(out)) return "malformed JSON";
  j.skip_ws();
  return j.p == j.end ? "" : "trailing garbage";
}

/// A required member: its name and type.
struct JsonKey {
  const char* name;
  JsonValue::Type type;
};

/// Checks that `obj` is an object holding exactly `keys`, each once and of
/// its type, with no empty string: empty when it does, else a one-line
/// diagnostic naming `what`.
inline std::string check_keys(const JsonValue& obj,
                              std::span<const JsonKey> keys,
                              const std::string& what) {
  if (obj.type != JsonValue::Type::kObject) return what + " is not an object";
  for (const auto& [name, value] : obj.members) {
    const JsonKey* spec = nullptr;
    for (const JsonKey& k : keys) spec = name == k.name ? &k : spec;
    if (spec == nullptr) return what + " has unknown key '" + name + "'";
    if (value.type != spec->type ||
        (value.type == JsonValue::Type::kString && value.text.empty())) {
      return "bad value for " + what + " key " + name;
    }
  }
  for (const JsonKey& k : keys) {
    std::size_t seen = 0;
    for (const auto& member : obj.members) seen += member.first == k.name;
    if (seen != 1) {
      return what + (seen == 0 ? " missing key " : " repeats key ") + k.name;
    }
  }
  return {};
}

}  // namespace zdc::obs

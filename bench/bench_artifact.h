// One artifact harness for the BENCH_*.json producers (bench_hotpath,
// bench_recovery, bench_service, bench_paper): the writer, the checks over
// obs::parse_json's tree, the --out/--validate flags (plus --quick/--seed
// where a bench has them), and the check of every emitted document before
// it is written. Each bench keeps only its rows, its key lists and its own
// semantic checks.
//
// An artifact is a flat document: top-level scalars (the schema tag first),
// then arrays of flat rows whose values are strings, numbers or booleans.
// Validation rejects a truncated document, trailing garbage, a wrong schema
// tag, a missing, repeated or unknown key at any level, a value of the
// wrong type, an empty string, and a missing or empty required array.
#pragma once

#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <span>
#include <sstream>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

#include "obs/json_reader.h"

namespace zdc::bench {

using Value = obs::JsonValue;
using Kind = Value::Type;
/// An object's members, in document order.
using Object = std::vector<std::pair<std::string, Value>>;
/// An array of row objects.
using Rows = std::vector<Value>;

// Values as the writer emits them. A number keeps the text its producer
// formatted, and the value a reader parses from that text.
inline Value str(std::string s) { return {Kind::kString, std::move(s)}; }
/// A number printed with a fixed count of decimals ("%.*f").
inline Value fixed(double v, int decimals) {
  char buf[64];
  std::snprintf(buf, sizeof buf, "%.*f", decimals, v);
  return {Kind::kNumber, buf, std::strtod(buf, nullptr)};
}
inline Value integer(std::uint64_t v) {
  return {Kind::kNumber, std::to_string(v), static_cast<double>(v)};
}
inline Value boolean(bool b) {
  return {Kind::kBool, b ? "true" : "false", b ? 1.0 : 0.0};
}
inline Value object(Object members) {
  Value v{Kind::kObject};
  v.members = std::move(members);
  return v;
}
inline Value list(Rows items) {
  Value v{Kind::kArray};
  v.items = std::move(items);
  return v;
}

/// Scalars one per line, then each array with one row per line.
inline std::string to_json(const Value& doc) {
  const auto render = [](const Value& v) {
    return v.type == Kind::kString ? "\"" + v.text + "\"" : v.text;
  };
  std::string out = "{\n";
  for (std::size_t m = 0; m < doc.members.size(); ++m) {
    const auto& [key, value] = doc.members[m];
    out += "  \"" + key + "\": ";
    if (value.type != Kind::kArray) out += render(value);
    for (std::size_t r = 0; r < value.items.size(); ++r) {
      const Object& row = value.items[r].members;
      out += r == 0 ? "[\n    {" : "},\n    {";
      for (std::size_t i = 0; i < row.size(); ++i) {
        out += (i == 0 ? "\"" : ", \"") + row[i].first +
               "\": " + render(row[i].second);
      }
    }
    if (value.type == Kind::kArray) {
      out += value.items.empty() ? "[\n  ]" : "}\n  ]";
    }
    out += m + 1 == doc.members.size() ? "\n" : ",\n";
  }
  return out + "}\n";
}

using Key = obs::JsonKey;
using obs::check_keys;

struct ArraySpec {
  const char* name;
  std::span<const Key> keys;  ///< empty: the artifact's check reads the rows
  bool required;              ///< must be present and non-empty
};

struct Artifact {
  const char* bench;        ///< the binary, for the usage line
  const char* schema;       ///< the value of the "schema" scalar
  const char* default_out;  ///< --out's default
  bool quick_and_seed;      ///< the bench takes --quick and --seed
  std::span<const Key> scalars;  ///< every top-level scalar, "schema" too
  std::span<const ArraySpec> arrays;
  /// The bench's own semantic checks, run once the key checks pass.
  std::string (*check)(const Value&) = nullptr;
};

/// Parses `text` into `doc` and checks it against `art`: empty when it
/// conforms, else a one-line diagnostic.
inline std::string validate(const Artifact& art, const std::string& text,
                            Value* doc) {
  std::string err = obs::parse_json(text, doc);
  if (!err.empty()) return err;
  if (doc->type != Kind::kObject) return "not a JSON object";
  const Value* schema = doc->get("schema");
  if (schema == nullptr) return "missing schema";
  if (schema->text != art.schema) {
    return "unknown schema '" + schema->text + "'";
  }
  Value scalars{Kind::kObject};
  for (const auto& [name, value] : doc->members) {
    if (value.type != Kind::kArray) {
      scalars.members.emplace_back(name, value);
      continue;
    }
    const ArraySpec* spec = nullptr;
    for (const ArraySpec& a : art.arrays) spec = name == a.name ? &a : spec;
    if (spec == nullptr) return "unknown key '" + name + "'";
    if (doc->get(name) != &value) return "repeated key '" + name + "'";
    for (const Value& row : value.items) {
      if (spec->keys.empty() && row.type == Kind::kObject) continue;
      err = check_keys(row, spec->keys, name + " row");
      if (!err.empty()) return err;
    }
  }
  err = check_keys(scalars, art.scalars, "document");
  if (!err.empty()) return err;
  for (const ArraySpec& a : art.arrays) {
    const Value* rows = doc->get(a.name);
    if (a.required && (rows == nullptr || rows->items.empty())) {
      return std::string(a.name) + " is empty";
    }
  }
  return art.check == nullptr ? std::string() : art.check(*doc);
}

/// Reads and validates the file at `path`; returns the exit status.
inline int validate_file(const Artifact& art, const char* path) {
  std::ifstream in(path, std::ios::binary);
  std::ostringstream text;
  text << in.rdbuf();
  Value doc;
  const std::string err =
      in ? validate(art, text.str(), &doc) : std::string("cannot open");
  if (!err.empty()) {
    std::fprintf(stderr, "validate: %s: %s\n", path, err.c_str());
    return 1;
  }
  std::printf("validate: %s conforms to %s\n", path, art.schema);
  return 0;
}

struct Options {
  bool quick = false;
  std::uint64_t seed = 1;
  const char* out = nullptr;
};

/// Parses the command line. Returns -1 when the bench should run with
/// `*opts`, else the exit status: --validate's, or 2 on a usage error.
inline int parse_flags(const Artifact& art, int argc, char** argv,
                       Options* opts) {
  opts->out = art.default_out;
  for (int i = 1; i < argc; ++i) {
    const std::string_view arg = argv[i];
    if (arg == "--out" && i + 1 < argc) {
      opts->out = argv[++i];
    } else if (arg == "--validate" && i + 1 < argc) {
      return validate_file(art, argv[++i]);
    } else if (art.quick_and_seed && arg == "--quick") {
      opts->quick = true;
    } else if (art.quick_and_seed && arg == "--seed" && i + 1 < argc) {
      opts->seed = std::strtoull(argv[++i], nullptr, 10);
    } else {
      std::fprintf(stderr, "usage: %s%s [--out FILE]%s | --validate FILE\n",
                   art.bench, art.quick_and_seed ? " [--quick]" : "",
                   art.quick_and_seed ? " [--seed N]" : "");
      return 2;
    }
  }
  return -1;
}

/// Checks the document as a reader will see it, then writes it to `path`;
/// returns the exit status.
inline int write_artifact(const Artifact& art, const Value& doc,
                          const char* path) {
  const std::string json = to_json(doc);
  Value reread;
  const std::string err = validate(art, json, &reread);
  if (!err.empty()) {
    std::fprintf(stderr, "emitted JSON fails own validation: %s\n",
                 err.c_str());
    return 1;
  }
  std::ofstream out(path, std::ios::binary);
  if (!(out << json)) {
    std::fprintf(stderr, "cannot write %s\n", path);
    return 1;
  }
  std::printf("wrote %s (%zu rows)\n", path, reread.get("rows")->items.size());
  return 0;
}

}  // namespace zdc::bench

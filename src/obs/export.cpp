#include "obs/export.h"

#include <cmath>
#include <cstdio>

#include "obs/json_reader.h"

namespace zdc::obs {
namespace {

// %.9g: exact for every bucket bound we emit, deterministic for everything
// else (same double, same text — the byte-identity contract only needs
// determinism, not round-tripping).
std::string fmt_double(double v) {
  char buf[64];
  std::snprintf(buf, sizeof(buf), "%.9g", v);
  return buf;
}

std::string fmt_u64(std::uint64_t v) {
  char buf[32];
  std::snprintf(buf, sizeof(buf), "%llu", static_cast<unsigned long long>(v));
  return buf;
}

void append_labels_json(std::string* out, const Labels& labels) {
  *out += "{";
  for (std::size_t i = 0; i < labels.size(); ++i) {
    if (i != 0) *out += ", ";
    *out += "\"" + labels[i].first + "\": \"" + labels[i].second + "\"";
  }
  *out += "}";
}

}  // namespace

std::string to_json(const MetricsRegistry::Snapshot& snap) {
  std::string out = "{\n  \"schema\": \"zdc-metrics-v1\",\n  \"families\": [\n";
  for (std::size_t fi = 0; fi < snap.size(); ++fi) {
    const auto& fam = snap[fi];
    out += "    {\"name\": \"" + fam.name + "\", \"type\": \"";
    out += metric_kind_name(fam.kind);
    out += "\", \"points\": [\n";
    for (std::size_t pi = 0; pi < fam.points.size(); ++pi) {
      const auto& pt = fam.points[pi];
      out += "      {\"labels\": ";
      append_labels_json(&out, pt.labels);
      switch (fam.kind) {
        case MetricKind::kCounter:
          out += ", \"value\": " + fmt_u64(pt.counter);
          break;
        case MetricKind::kGauge:
          out += ", \"value\": " + fmt_double(pt.gauge);
          break;
        case MetricKind::kHistogram: {
          out += ", \"count\": " + fmt_u64(pt.count);
          out += ", \"sum\": " + fmt_double(pt.sum);
          out += ", \"bounds\": [";
          for (std::size_t i = 0; i < pt.bounds.size(); ++i) {
            if (i != 0) out += ", ";
            out += fmt_double(pt.bounds[i]);
          }
          out += "], \"buckets\": [";
          for (std::size_t i = 0; i < pt.buckets.size(); ++i) {
            if (i != 0) out += ", ";
            out += fmt_u64(pt.buckets[i]);
          }
          out += "]";
          break;
        }
      }
      out += pi + 1 == fam.points.size() ? "}\n" : "},\n";
    }
    out += fi + 1 == snap.size() ? "    ]}\n" : "    ]},\n";
  }
  out += "  ]\n}\n";
  return out;
}

std::string to_prometheus(const MetricsRegistry::Snapshot& snap) {
  std::string out;
  auto render_labels = [](const Labels& labels,
                          const std::string& extra) -> std::string {
    if (labels.empty() && extra.empty()) return "";
    std::string s = "{";
    for (std::size_t i = 0; i < labels.size(); ++i) {
      if (i != 0) s += ",";
      s += labels[i].first + "=\"" + labels[i].second + "\"";
    }
    if (!extra.empty()) {
      if (!labels.empty()) s += ",";
      s += extra;
    }
    s += "}";
    return s;
  };

  for (const auto& fam : snap) {
    out += "# TYPE " + fam.name + " ";
    out += metric_kind_name(fam.kind);
    out += "\n";
    for (const auto& pt : fam.points) {
      switch (fam.kind) {
        case MetricKind::kCounter:
          out += fam.name + render_labels(pt.labels, "") + " " +
                 fmt_u64(pt.counter) + "\n";
          break;
        case MetricKind::kGauge:
          out += fam.name + render_labels(pt.labels, "") + " " +
                 fmt_double(pt.gauge) + "\n";
          break;
        case MetricKind::kHistogram: {
          std::uint64_t cumulative = 0;
          for (std::size_t i = 0; i < pt.buckets.size(); ++i) {
            cumulative += pt.buckets[i];
            const std::string le =
                i < pt.bounds.size() ? fmt_double(pt.bounds[i]) : "+Inf";
            out += fam.name + "_bucket" +
                   render_labels(pt.labels, "le=\"" + le + "\"") + " " +
                   fmt_u64(cumulative) + "\n";
          }
          out += fam.name + "_sum" + render_labels(pt.labels, "") + " " +
                 fmt_double(pt.sum) + "\n";
          out += fam.name + "_count" + render_labels(pt.labels, "") + " " +
                 fmt_u64(pt.count) + "\n";
          break;
        }
      }
    }
  }
  return out;
}

// ---------------------------------------------------------------------------
// Validation: parse_json and check_keys (json_reader.h, the reader behind
// every BENCH_*.json artifact too) catch malformed text and missing,
// unknown or mistyped keys; the checks below add the value rules and the
// histogram arity.

namespace {

using Type = JsonValue::Type;

constexpr JsonKey kDocumentKeys[] = {{"schema", Type::kString},
                                     {"families", Type::kArray}};
constexpr JsonKey kFamilyKeys[] = {{"name", Type::kString},
                                   {"type", Type::kString},
                                   {"points", Type::kArray}};
constexpr JsonKey kValuePointKeys[] = {{"labels", Type::kObject},
                                       {"value", Type::kNumber}};
constexpr JsonKey kHistogramPointKeys[] = {
    {"labels", Type::kObject}, {"count", Type::kNumber},
    {"sum", Type::kNumber},    {"bounds", Type::kArray},
    {"buckets", Type::kArray}};

bool is_nonneg_integer(double v) {
  return v >= 0.0 && v == std::floor(v);
}

// Appends the elements of a number array; false when one is no number.
bool numbers(const JsonValue& v, std::vector<double>* out) {
  for (const JsonValue& item : v.items) {
    if (item.type != Type::kNumber) return false;
    out->push_back(item.number);
  }
  return true;
}

std::string validate_point(const JsonValue& pt, const std::string& type) {
  const bool histogram = type == "histogram";
  const std::string err = check_keys(
      pt, histogram ? std::span<const JsonKey>(kHistogramPointKeys)
                    : std::span<const JsonKey>(kValuePointKeys),
      "point");
  if (!err.empty()) return err;
  for (const auto& [name, label] : pt.get("labels")->members) {
    if (name.empty() || label.type != Type::kString) {
      return "malformed labels object";
    }
  }
  if (!histogram) {
    if (type == "counter" && !is_nonneg_integer(pt.get("value")->number)) {
      return "counter value is not a non-negative integer";
    }
    return {};
  }
  const double count = pt.get("count")->number;
  if (!is_nonneg_integer(count)) return "count is not an integer";
  std::vector<double> bounds;
  std::vector<double> buckets;
  if (!numbers(*pt.get("bounds"), &bounds)) return "malformed bounds array";
  if (!numbers(*pt.get("buckets"), &buckets)) return "malformed buckets array";
  if (buckets.size() != bounds.size() + 1) return "buckets arity != bounds + 1";
  for (std::size_t i = 1; i < bounds.size(); ++i) {
    if (!(bounds[i - 1] < bounds[i])) return "bounds not ascending";
  }
  double total = 0.0;
  for (double b : buckets) {
    if (!is_nonneg_integer(b)) return "bucket count is not an integer";
    total += b;
  }
  if (total != count) return "bucket counts do not sum to count";
  return {};
}

std::string validate_family(const JsonValue& fam) {
  std::string err = check_keys(fam, kFamilyKeys, "family");
  if (!err.empty()) return err;
  const std::string& type = fam.get("type")->text;
  if (type != "counter" && type != "gauge" && type != "histogram") {
    return "unknown family type '" + type + "'";
  }
  for (const auto& member : fam.members) {
    if (member.first == "type") break;
    if (member.first == "points") return "points before type";
  }
  for (const JsonValue& pt : fam.get("points")->items) {
    err = validate_point(pt, type);
    if (!err.empty()) return err;
  }
  return {};
}

}  // namespace

std::string validate_metrics_json(const std::string& text) {
  JsonValue doc;
  std::string err = parse_json(text, &doc);
  if (err.empty()) err = check_keys(doc, kDocumentKeys, "document");
  if (!err.empty()) return err;
  const std::string& schema = doc.get("schema")->text;
  if (schema != "zdc-metrics-v1") return "unknown schema '" + schema + "'";
  const std::vector<JsonValue>& families = doc.get("families")->items;
  if (families.empty()) return "families is empty";
  for (const JsonValue& fam : families) {
    err = validate_family(fam);
    if (!err.empty()) return err;
  }
  return {};
}

}  // namespace zdc::obs

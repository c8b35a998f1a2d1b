// Metric snapshot exporters: schema-validated JSON ("zdc-metrics-v1",
// checked by the same reader as the BENCH_*.json artifacts, json_reader.h)
// and Prometheus text exposition format.
//
// Both serializers are pure functions of a MetricsRegistry::Snapshot, whose
// family and point ordering is deterministic — a fixed-seed sim run therefore
// exports byte-identical text across runs (the contract scripts/check.sh's
// metrics stage enforces with cmp).
#pragma once

#include <string>

#include "obs/metrics.h"

namespace zdc::obs {

/// Serializes a snapshot as a "zdc-metrics-v1" JSON document.
std::string to_json(const MetricsRegistry::Snapshot& snap);

/// Serializes a snapshot in Prometheus text exposition format (# TYPE
/// comments, cumulative _bucket{le=...}/_sum/_count histogram triples).
std::string to_prometheus(const MetricsRegistry::Snapshot& snap);

/// Validates a "zdc-metrics-v1" document: schema tag, per-family name/type/
/// points, histogram bucket/bound arity and count consistency. Returns an
/// empty string when `text` conforms, else a one-line diagnostic.
std::string validate_metrics_json(const std::string& text);

}  // namespace zdc::obs

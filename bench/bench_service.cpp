// Service-layer throughput: the session/read-index stack driven through
// the deterministic service simulation, read-index ON vs OFF.
//
// What the rows price: with read-index OFF every linearizable read is a
// consensus-ordered envelope (one full broadcast round); with read-index ON
// the lease gate serves reads straight from the leader's applied state and
// only downgraded reads pay a round. The per-path counters make the claim
// auditable in the artifact itself: `consensus_read_rounds` equals
// `ordered_reads` by construction, so a read-index-on row with
// fast_reads == reads and consensus_read_rounds == 0 is the zero-consensus
// read path, proven, not asserted. The validator enforces the invariant:
// read-index-off rows must show fast_reads == 0 and one round per read;
// read-index-on rows must show a live fast path with fewer rounds than
// reads.
//
// The numbers are modelled, not measured: service_sim runs the real session
// and durability classes over a modelled ordering core, so the rates are per
// *simulated* second and the latencies simulated milliseconds. The artifact
// says so ("model": "service_sim", "timebase": "simulated") and the
// validator requires both keys.
//
// Emits machine-readable BENCH_service.json (schema zdc-bench-service-v1);
// --validate schema-checks an artifact.
//
// Usage:
//   bench_service [--quick] [--out FILE] [--seed N]   # run + emit JSON
//   bench_service --validate FILE                     # schema-check a JSON
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <string>
#include <vector>

#include "service/service_sim.h"

namespace zdc::bench {
namespace {

struct ServiceRow {
  std::string mode;  ///< "read-index-on" | "read-index-off"
  std::uint64_t sessions = 0;
  std::uint64_t writes = 0;
  std::uint64_t reads = 0;
  std::uint64_t fast_reads = 0;
  std::uint64_t ordered_reads = 0;
  /// Consensus rounds spent on reads — exactly the ordered (downgraded)
  /// reads; fast reads never enter the broadcast at all.
  std::uint64_t consensus_read_rounds = 0;
  std::uint64_t one_step = 0;
  std::uint64_t two_step = 0;
  double writes_per_s = 0;  ///< simulated-time rates
  double reads_per_s = 0;
  double write_mean_ms = 0;
  double fast_read_mean_ms = 0;
  double ordered_read_mean_ms = 0;
  std::uint64_t seed = 0;
};

ServiceRow run_mode(bool read_index, bool quick, std::uint64_t seed) {
  rsm::ServiceSimConfig cfg;
  cfg.sessions = quick ? 2'000 : 100'000;
  cfg.concurrency = 256;
  cfg.read_index = read_index;
  cfg.seed = seed;
  const rsm::ServiceSimReport r = rsm::run_service_sim(cfg);
  if (!r.completed || r.double_applies != 0 || r.lin_violations != 0 ||
      !r.digests_converged) {
    std::fprintf(stderr, "service sim failed its own oracles: %s\n",
                 r.first_violation.c_str());
    std::exit(1);
  }

  ServiceRow row;
  row.mode = read_index ? "read-index-on" : "read-index-off";
  row.sessions = r.sessions_completed;
  row.writes = r.writes_acked;
  row.reads = r.reads_acked;
  row.fast_reads = r.fast_reads;
  row.ordered_reads = r.ordered_reads;
  row.consensus_read_rounds = r.ordered_reads;
  row.one_step = r.one_step_commits;
  row.two_step = r.two_step_commits;
  row.writes_per_s = static_cast<double>(r.writes_acked) / r.sim_ms * 1e3;
  row.reads_per_s = static_cast<double>(r.reads_acked) / r.sim_ms * 1e3;
  row.write_mean_ms = r.write_mean_ms;
  row.fast_read_mean_ms = r.fast_read_mean_ms;
  row.ordered_read_mean_ms = r.ordered_read_mean_ms;
  row.seed = seed;
  return row;
}

void print_table(const std::vector<ServiceRow>& rows) {
  std::printf("=== Service layer: sessions + linearizable reads, read-index "
              "on vs off (service_sim model, simulated time) ===\n");
  std::printf("%-16s %10s %10s %10s %10s %12s %10s %10s\n", "mode", "writes/s",
              "reads/s", "fast", "ordered", "cons.rounds", "wr ms", "rd ms");
  for (const ServiceRow& r : rows) {
    const double read_ms =
        r.fast_reads >= r.ordered_reads ? r.fast_read_mean_ms
                                        : r.ordered_read_mean_ms;
    std::printf("%-16s %10.0f %10.0f %10llu %10llu %12llu %10.3f %10.3f\n",
                r.mode.c_str(), r.writes_per_s, r.reads_per_s,
                static_cast<unsigned long long>(r.fast_reads),
                static_cast<unsigned long long>(r.ordered_reads),
                static_cast<unsigned long long>(r.consensus_read_rounds),
                r.write_mean_ms, read_ms);
  }
  std::printf(
      "\n# consensus_read_rounds == ordered_reads by construction: a fast "
      "read is served from\n"
      "# the lease holder's applied state and never enters the broadcast. "
      "With read-index off\n"
      "# every read pays a full round; with it on the rounds collapse to "
      "the (rare) downgrades.\n");
}

// ---------------------------------------------------------------------------
// JSON emission + validation (same shape as bench_recovery's artifact).

std::string to_json(const std::vector<ServiceRow>& rows, bool quick,
                    std::uint64_t seed) {
  std::string out =
      "{\n  \"schema\": \"zdc-bench-service-v1\",\n"
      "  \"model\": \"service_sim\",\n  \"timebase\": \"simulated\",\n";
  char buf[768];
  std::snprintf(buf, sizeof(buf), "  \"quick\": %s,\n  \"seed_base\": %llu,\n",
                quick ? "true" : "false",
                static_cast<unsigned long long>(seed));
  out += buf;
  out += "  \"rows\": [\n";
  for (std::size_t i = 0; i < rows.size(); ++i) {
    const ServiceRow& r = rows[i];
    std::snprintf(
        buf, sizeof(buf),
        "    {\"mode\": \"%s\", \"sessions\": %llu, \"writes\": %llu, "
        "\"reads\": %llu, \"fast_reads\": %llu, \"ordered_reads\": %llu, "
        "\"consensus_read_rounds\": %llu, \"one_step\": %llu, "
        "\"two_step\": %llu, \"writes_per_s\": %.1f, \"reads_per_s\": %.1f, "
        "\"write_mean_ms\": %.4f, \"fast_read_mean_ms\": %.4f, "
        "\"ordered_read_mean_ms\": %.4f, \"seed\": %llu}%s\n",
        r.mode.c_str(), static_cast<unsigned long long>(r.sessions),
        static_cast<unsigned long long>(r.writes),
        static_cast<unsigned long long>(r.reads),
        static_cast<unsigned long long>(r.fast_reads),
        static_cast<unsigned long long>(r.ordered_reads),
        static_cast<unsigned long long>(r.consensus_read_rounds),
        static_cast<unsigned long long>(r.one_step),
        static_cast<unsigned long long>(r.two_step), r.writes_per_s,
        r.reads_per_s, r.write_mean_ms, r.fast_read_mean_ms,
        r.ordered_read_mean_ms, static_cast<unsigned long long>(r.seed),
        i + 1 == rows.size() ? "" : ",");
    out += buf;
  }
  out += "  ]\n}\n";
  return out;
}

/// Minimal strict parser for the subset this bench emits — catches truncated
/// files, missing keys and type confusion.
struct JsonParser {
  const char* p;
  const char* end;
  bool fail = false;

  void skip_ws() {
    while (p < end && (*p == ' ' || *p == '\n' || *p == '\t' || *p == '\r')) {
      ++p;
    }
  }
  bool consume(char c) {
    skip_ws();
    if (p < end && *p == c) {
      ++p;
      return true;
    }
    fail = true;
    return false;
  }
  bool peek(char c) {
    skip_ws();
    return p < end && *p == c;
  }
  std::string parse_string() {
    skip_ws();
    if (p >= end || *p != '"') {
      fail = true;
      return {};
    }
    ++p;
    std::string s;
    while (p < end && *p != '"') {
      if (*p == '\\') {
        fail = true;  // the bench never emits escapes
        return {};
      }
      s += *p++;
    }
    if (!consume('"')) return {};
    return s;
  }
  double parse_number() {
    skip_ws();
    char* after = nullptr;
    const double v = std::strtod(p, &after);
    if (after == p) {
      fail = true;
      return 0;
    }
    p = after;
    return v;
  }
  bool parse_bool() {
    skip_ws();
    if (end - p >= 4 && std::strncmp(p, "true", 4) == 0) {
      p += 4;
      return true;
    }
    if (end - p >= 5 && std::strncmp(p, "false", 5) == 0) {
      p += 5;
      return false;
    }
    fail = true;
    return false;
  }
};

constexpr const char* kRowKeys[15] = {
    "mode",          "sessions",          "writes",
    "reads",         "fast_reads",        "ordered_reads",
    "consensus_read_rounds", "one_step",  "two_step",
    "writes_per_s",  "reads_per_s",       "write_mean_ms",
    "fast_read_mean_ms", "ordered_read_mean_ms", "seed"};

/// Returns an empty string when `text` conforms, else a one-line diagnostic.
/// Conformance includes the per-path semantics: read-index-off rows must
/// order every read (fast_reads == 0, one consensus round per read), and
/// read-index-on rows must show a live fast path with fewer rounds than
/// reads — the artifact itself proves fast reads skip consensus.
std::string validate_json(const std::string& text) {
  JsonParser j{text.data(), text.data() + text.size()};
  if (!j.consume('{')) return "not a JSON object";

  bool saw_schema = false;
  bool saw_model = false;
  bool saw_timebase = false;
  bool saw_rows = false;
  bool saw_on_mode = false;
  bool saw_off_mode = false;
  std::size_t row_count = 0;
  for (;;) {
    const std::string key = j.parse_string();
    if (j.fail) return "bad key";
    if (!j.consume(':')) return "missing ':' after " + key;
    if (key == "schema") {
      const std::string v = j.parse_string();
      if (v != "zdc-bench-service-v1") return "unknown schema '" + v + "'";
      saw_schema = true;
    } else if (key == "model") {
      const std::string v = j.parse_string();
      if (v != "service_sim") return "unknown model '" + v + "'";
      saw_model = true;
    } else if (key == "timebase") {
      const std::string v = j.parse_string();
      if (v != "simulated") return "timebase '" + v + "' is not simulated";
      saw_timebase = true;
    } else if (key == "quick") {
      j.parse_bool();
    } else if (key == "seed_base") {
      j.parse_number();
    } else if (key == "rows") {
      saw_rows = true;
      if (!j.consume('[')) return "rows is not an array";
      while (!j.peek(']')) {
        if (!j.consume('{')) return "row is not an object";
        bool has[15] = {};
        std::string mode;
        double fast_reads = 0;
        double reads = 0;
        double rounds = 0;
        while (!j.peek('}')) {
          const std::string rk = j.parse_string();
          if (!j.consume(':')) return "row missing ':'";
          if (rk == "mode") {
            mode = j.parse_string();
            if (mode != "read-index-on" && mode != "read-index-off") {
              return "unknown mode '" + mode + "'";
            }
          } else {
            const double v = j.parse_number();
            if (rk == "fast_reads") fast_reads = v;
            if (rk == "reads") reads = v;
            if (rk == "consensus_read_rounds") rounds = v;
          }
          if (j.fail) return "bad value for row key " + rk;
          for (int i = 0; i < 15; ++i) {
            if (rk == kRowKeys[i]) has[i] = true;
          }
          if (!j.peek('}')) {
            if (!j.consume(',')) return "row missing ','";
          }
        }
        j.consume('}');
        for (int i = 0; i < 15; ++i) {
          if (!has[i]) return std::string("row missing key ") + kRowKeys[i];
        }
        if (mode == "read-index-off") {
          saw_off_mode = true;
          if (fast_reads != 0) return "read-index-off row has fast reads";
          if (rounds != reads) {
            return "read-index-off row must pay one round per read";
          }
        } else {
          saw_on_mode = true;
          if (fast_reads <= 0) return "read-index-on row has no fast reads";
          if (rounds >= reads) {
            return "read-index-on row shows no consensus-free reads";
          }
        }
        ++row_count;
        if (!j.peek(']')) {
          if (!j.consume(',')) return "rows missing ','";
        }
      }
      j.consume(']');
    } else {
      return "unknown key '" + key + "'";
    }
    if (j.fail) return "parse failure after key " + key;
    if (j.peek('}')) break;
    if (!j.consume(',')) return "missing ',' between keys";
  }
  j.consume('}');
  j.skip_ws();
  if (j.p != j.end) return "trailing garbage";
  if (!saw_schema) return "missing schema";
  if (!saw_model || !saw_timebase) {
    return "missing model/timebase: the rates are modelled, per simulated "
           "second";
  }
  if (!saw_rows) return "missing rows";
  if (row_count == 0) return "rows is empty";
  if (!saw_on_mode || !saw_off_mode) return "missing a read-index mode row";
  return {};
}

int validate_file(const char* path) {
  std::FILE* f = std::fopen(path, "rb");
  if (f == nullptr) {
    std::fprintf(stderr, "validate: cannot open %s\n", path);
    return 1;
  }
  std::string text;
  char buf[4096];
  std::size_t got = 0;
  while ((got = std::fread(buf, 1, sizeof(buf), f)) > 0) text.append(buf, got);
  std::fclose(f);
  const std::string err = validate_json(text);
  if (!err.empty()) {
    std::fprintf(stderr, "validate: %s: %s\n", path, err.c_str());
    return 1;
  }
  std::printf("validate: %s conforms to zdc-bench-service-v1\n", path);
  return 0;
}

// ---------------------------------------------------------------------------

int run(int argc, char** argv) {
  bool quick = false;
  const char* out_path = "BENCH_service.json";
  std::uint64_t seed = 1;
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    if (arg == "--quick") {
      quick = true;
    } else if (arg == "--out" && i + 1 < argc) {
      out_path = argv[++i];
    } else if (arg == "--seed" && i + 1 < argc) {
      seed = std::strtoull(argv[++i], nullptr, 10);
    } else if (arg == "--validate" && i + 1 < argc) {
      return validate_file(argv[++i]);
    } else {
      std::fprintf(stderr,
                   "usage: bench_service [--quick] [--out FILE] [--seed N] | "
                   "--validate FILE\n");
      return 2;
    }
  }

  std::vector<ServiceRow> rows;
  rows.push_back(run_mode(/*read_index=*/true, quick, seed));
  rows.push_back(run_mode(/*read_index=*/false, quick, seed));
  print_table(rows);

  const std::string json = to_json(rows, quick, seed);
  const std::string err = validate_json(json);
  if (!err.empty()) {
    std::fprintf(stderr, "emitted JSON fails own validation: %s\n",
                 err.c_str());
    return 1;
  }
  std::FILE* f = std::fopen(out_path, "wb");
  if (f == nullptr) {
    std::fprintf(stderr, "cannot write %s\n", out_path);
    return 1;
  }
  std::fwrite(json.data(), 1, json.size(), f);
  std::fclose(f);
  std::printf("wrote %s (%zu rows)\n", out_path, rows.size());
  return 0;
}

}  // namespace
}  // namespace zdc::bench

int main(int argc, char** argv) { return zdc::bench::run(argc, argv); }

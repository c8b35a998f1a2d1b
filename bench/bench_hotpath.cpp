// bench_hotpath — the hot-path perf-regression harness (docs/PERF.md).
//
// Three measurements, one machine-readable JSON artifact:
//
//   1. codec: encode_msg_set-shaped frames through the allocation-lean
//      Encoder — reports encoded MB/s;
//   2. event-queue: schedule/run churn through the pooled event store —
//      reports events/s;
//   3. end-to-end: a small latency-vs-throughput sweep of the batched
//      C-Abcast and Paxos-Abcast stacks — reports mean/p95 latency and
//      simulated events per wall second.
//
// Usage:
//   bench_hotpath [--quick] [--out FILE] [--seed N]   # run + emit JSON
//   bench_hotpath --validate FILE                     # schema-check a JSON
//
// The perf trajectory lives in the committed BENCH_hotpath.json history;
// compare rows from runs on the same machine.
#include <chrono>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <functional>
#include <memory>
#include <string>
#include <vector>

#include "common/codec.h"
#include "common/rng.h"
#include "sim/abcast_world.h"
#include "sim/event_queue.h"

namespace zdc::bench {
namespace {

double now_s() {
  return std::chrono::duration<double>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

// ---------------------------------------------------------------------------
// Micro 1: codec throughput on consensus-batch-shaped frames.

struct BatchFixture {
  std::vector<std::pair<std::uint64_t, std::string>> msgs;  ///< (seq, payload)
  std::size_t frame_bytes = 0;
};

BatchFixture make_batch(std::size_t batch_size, std::size_t payload_bytes) {
  BatchFixture fx;
  for (std::size_t i = 0; i < batch_size; ++i) {
    fx.msgs.emplace_back(i + 1, std::string(payload_bytes, 'x'));
  }
  fx.frame_bytes = 4 + batch_size * (16 + payload_bytes);
  return fx;
}

double bench_codec(const BatchFixture& fx, std::uint64_t iters) {
  const auto encode = [&fx] {
    common::Encoder enc(fx.frame_bytes);
    enc.put_u32(static_cast<std::uint32_t>(fx.msgs.size()));
    for (const auto& [seq, payload] : fx.msgs) {
      enc.put_u32(1);
      enc.put_u64(seq);
      enc.put_string(payload);
    }
    return enc.take();
  };
  // Untimed warmup iteration (first-touch allocations).
  volatile std::size_t sink = encode().size();
  const double t0 = now_s();
  for (std::uint64_t i = 0; i < iters; ++i) sink = encode().size();
  const double dt = now_s() - t0;
  (void)sink;
  const double bytes = static_cast<double>(fx.frame_bytes) *
                       static_cast<double>(iters);
  return bytes / dt / 1e6;
}

// ---------------------------------------------------------------------------
// Micro 2: event-queue schedule/run churn with simulator-shaped handlers.
//
// Each handler captures what a transport-delivery event captures: an object
// pointer, two ids and a shared_ptr payload (~32 bytes) — over std::function's
// inline buffer, under InlineAction's. Handlers reschedule themselves so the
// queue stays at a realistic depth, like a sim run in steady state.

double measure_events_per_s(std::uint64_t total_events, std::size_t width) {
  sim::EventQueue q;
  auto payload = std::make_shared<const std::string>(64, 'x');
  std::uint64_t executed = 0;
  struct Ctx {
    sim::EventQueue* q;
    std::uint64_t* executed;
    std::uint64_t total;
    std::shared_ptr<const std::string> payload;
  };
  Ctx ctx{&q, &executed, total_events, payload};
  std::function<void(double)> schedule = [&ctx, &schedule](double t) {
    ctx.q->at(t, [&ctx, &schedule, payload = ctx.payload, a = 7u, b = 9u] {
      (void)a;
      (void)b;
      (void)payload;
      ++*ctx.executed;
      if (*ctx.executed + 1000 <= ctx.total) {
        schedule(ctx.q->now() + 1.0);
      }
    });
  };
  const double t0 = now_s();
  for (std::size_t i = 0; i < width; ++i) {
    schedule(static_cast<double>(i) * 0.001);
  }
  while (q.run_next()) {
  }
  const double dt = now_s() - t0;
  return static_cast<double>(executed) / dt;
}

// ---------------------------------------------------------------------------
// End-to-end sweep rows.

struct Row {
  std::string protocol;
  double throughput = 0;
  double mean_latency_ms = 0;
  double p95_latency_ms = 0;
  double events_per_s = 0;
  double encoded_mb_per_s = 0;
  std::uint64_t seed = 0;
};

Row run_e2e(const std::string& protocol, double throughput,
            std::uint32_t message_count, std::uint64_t seed_base) {
  sim::AbcastRunConfig cfg;
  cfg.with_group(GroupParams{4, 1}).with_net(sim::calibrated_lan_2006());
  cfg.with_seed(common::mix_seed(seed_base, protocol, throughput, 0));
  cfg.throughput_per_s = throughput;
  cfg.message_count = message_count;
  // The batched hot path under test: bounded leader pipeline for Paxos,
  // whole-estimate rounds for C-Abcast (its native batching).
  cfg.batching.paxos_pipeline_window = 4;
  if (protocol == "paxos") {
    for (ProcessId p = 1; p < cfg.group.n; ++p) {
      cfg.workload_senders.push_back(p);
    }
  }
  const double t0 = now_s();
  auto r = sim::run_abcast(cfg, sim::abcast_factory_by_name(protocol));
  const double dt = now_s() - t0;
  Row row;
  row.protocol = protocol;
  row.throughput = throughput;
  row.mean_latency_ms = r.latency_ms.mean();
  row.p95_latency_ms = r.latency_ms.percentile(95);
  row.events_per_s = static_cast<double>(r.events_executed) / dt;
  row.seed = cfg.seed;
  if (!r.safe() || !r.agreement_ok) {
    std::fprintf(stderr, "UNSAFE/INCOMPLETE run: %s @ %.0f msg/s seed %llu\n",
                 protocol.c_str(), throughput,
                 static_cast<unsigned long long>(cfg.seed));
    std::exit(1);
  }
  return row;
}

// ---------------------------------------------------------------------------
// JSON emission.

void append_json_row(std::string* out, const Row& row, bool last) {
  char buf[512];
  std::snprintf(buf, sizeof(buf),
                "    {\"protocol\": \"%s\", \"throughput\": %.1f, "
                "\"mean_latency_ms\": %.4f, \"p95_latency_ms\": %.4f, "
                "\"events_per_s\": %.1f, \"encoded_mb_per_s\": %.2f, "
                "\"seed\": %llu}%s\n",
                row.protocol.c_str(), row.throughput, row.mean_latency_ms,
                row.p95_latency_ms, row.events_per_s, row.encoded_mb_per_s,
                static_cast<unsigned long long>(row.seed), last ? "" : ",");
  *out += buf;
}

std::string to_json(const std::vector<Row>& rows, bool quick,
                    std::uint64_t seed_base) {
  std::string out = "{\n  \"schema\": \"zdc-bench-hotpath-v1\",\n";
  char buf[128];
  std::snprintf(buf, sizeof(buf), "  \"quick\": %s,\n  \"seed_base\": %llu,\n",
                quick ? "true" : "false",
                static_cast<unsigned long long>(seed_base));
  out += buf;
  out += "  \"rows\": [\n";
  for (std::size_t i = 0; i < rows.size(); ++i) {
    append_json_row(&out, rows[i], i + 1 == rows.size());
  }
  out += "  ]\n}\n";
  return out;
}

// ---------------------------------------------------------------------------
// JSON validation: a minimal parser for the subset this bench emits, strict
// enough to catch truncated files, missing keys and type confusion.

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

/// Returns an empty string when `text` conforms to the schema, else a
/// one-line diagnostic.
std::string validate_json(const std::string& text) {
  JsonParser j{text.data(), text.data() + text.size()};
  if (!j.consume('{')) return "not a JSON object";

  bool saw_schema = false;
  bool saw_rows = false;
  std::size_t row_count = 0;
  for (;;) {
    const std::string key = j.parse_string();
    if (j.fail) return "bad key";
    if (!j.consume(':')) return "missing ':' after " + key;
    if (key == "schema") {
      const std::string v = j.parse_string();
      if (v != "zdc-bench-hotpath-v1") return "unknown schema '" + v + "'";
      saw_schema = true;
    } else if (key == "quick") {
      j.parse_bool();
    } else if (key == "seed_base") {
      j.parse_number();
    } else if (key == "rows") {
      saw_rows = true;
      if (!j.consume('[')) return "rows is not an array";
      while (!j.peek(']')) {
        if (!j.consume('{')) return "row is not an object";
        bool has[7] = {};
        static const char* kKeys[7] = {
            "protocol",     "throughput",       "mean_latency_ms",
            "p95_latency_ms", "events_per_s",   "encoded_mb_per_s",
            "seed"};
        while (!j.peek('}')) {
          const std::string rk = j.parse_string();
          if (!j.consume(':')) return "row missing ':'";
          if (rk == "protocol") {
            if (j.parse_string().empty()) return "empty protocol";
          } else {
            j.parse_number();
          }
          if (j.fail) return "bad value for row key " + rk;
          for (int i = 0; i < 7; ++i) {
            if (rk == kKeys[i]) has[i] = true;
          }
          if (!j.peek('}')) {
            if (!j.consume(',')) return "row missing ','";
          }
        }
        j.consume('}');
        for (int i = 0; i < 7; ++i) {
          if (!has[i]) return std::string("row missing key ") + kKeys[i];
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
  if (!saw_rows) return "missing rows";
  if (row_count == 0) return "rows is empty";
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
  std::printf("validate: %s conforms to zdc-bench-hotpath-v1\n", path);
  return 0;
}

// ---------------------------------------------------------------------------

int run(int argc, char** argv) {
  bool quick = false;
  const char* out_path = "BENCH_hotpath.json";
  std::uint64_t seed_base = 1;
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    if (arg == "--quick") {
      quick = true;
    } else if (arg == "--out" && i + 1 < argc) {
      out_path = argv[++i];
    } else if (arg == "--seed" && i + 1 < argc) {
      seed_base = std::strtoull(argv[++i], nullptr, 10);
    } else if (arg == "--validate" && i + 1 < argc) {
      return validate_file(argv[++i]);
    } else {
      std::fprintf(stderr,
                   "usage: bench_hotpath [--quick] [--out FILE] [--seed N] | "
                   "--validate FILE\n");
      return 2;
    }
  }

  std::vector<Row> rows;

  // Micro 1: codec. Batch of 16 x 64B payloads (a loaded consensus proposal).
  {
    const BatchFixture fx = make_batch(16, 64);
    const std::uint64_t iters = quick ? 20'000 : 400'000;
    const double mb_per_s = bench_codec(fx, iters);
    std::printf("codec          %8.1f MB/s\n", mb_per_s);
    rows.push_back(Row{"codec", 0, 0, 0, 0, mb_per_s, seed_base});
  }

  // Micro 2: event queue.
  {
    const std::uint64_t events = quick ? 200'000 : 4'000'000;
    const std::size_t width = 1000;  // steady-state queue depth
    const double events_per_s = measure_events_per_s(events, width);
    std::printf("event-queue    %8.0f ev/s\n", events_per_s);
    rows.push_back(Row{"event-queue", 0, 0, 0, events_per_s, 0, seed_base});
  }

  // End-to-end sweep: batched stacks under load.
  {
    const std::vector<double> throughputs =
        quick ? std::vector<double>{200} : std::vector<double>{100, 300, 500};
    const std::uint32_t message_count = quick ? 80 : 400;
    for (const std::string protocol : {"c-l", "paxos"}) {
      for (const double tp : throughputs) {
        Row row = run_e2e(protocol, tp, message_count, seed_base);
        std::printf(
            "%-8s @%4.0f msg/s   mean %7.3f ms   p95 %7.3f ms   %.0f ev/s\n",
            row.protocol.c_str(), row.throughput, row.mean_latency_ms,
            row.p95_latency_ms, row.events_per_s);
        rows.push_back(row);
      }
    }
  }

  const std::string json = to_json(rows, quick, seed_base);
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

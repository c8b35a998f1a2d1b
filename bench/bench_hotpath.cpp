// bench_hotpath — the hot-path perf-regression harness (docs/PERF.md).
//
// Four measurements, one machine-readable JSON artifact:
//
//   1. codec: encode_msg_set-shaped frames through the allocation-lean
//      Encoder — reports encoded MB/s;
//   2. crc32c: common::crc32c over a 1 MiB buffer, the checksum every WAL
//      frame, snapshot file and wire seal carries — reports MB/s in the
//      encoded_mb_per_s column;
//   3. event-queue: schedule/run churn through the pooled event store —
//      reports events/s;
//   4. end-to-end: a small latency-vs-throughput sweep of the batched
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
#include <functional>
#include <memory>
#include <string>
#include <vector>

#include "bench_artifact.h"
#include "common/codec.h"
#include "common/crc32.h"
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
// Micro 2: CRC32C throughput over one large buffer (a checkpoint-sized pass).

double bench_crc32c(std::size_t bytes, std::uint64_t iters) {
  std::string buf(bytes, '\0');
  common::Rng rng(7);
  for (char& c : buf) c = static_cast<char>(rng.next_u64());
  // Each pass continues from the last result, so no pass can be skipped.
  std::uint32_t crc = common::crc32c(buf);  // untimed warmup (first touch)
  const double t0 = now_s();
  for (std::uint64_t i = 0; i < iters; ++i) crc = common::crc32c(buf, crc);
  const double dt = now_s() - t0;
  volatile std::uint32_t sink = crc;
  (void)sink;
  return static_cast<double>(bytes) * static_cast<double>(iters) / dt / 1e6;
}

// ---------------------------------------------------------------------------
// Micro 3: event-queue schedule/run churn with simulator-shaped handlers.
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
// The artifact.

Value to_object(const Row& row) {
  return object({{"protocol", str(row.protocol)},
                 {"throughput", fixed(row.throughput, 1)},
                 {"mean_latency_ms", fixed(row.mean_latency_ms, 4)},
                 {"p95_latency_ms", fixed(row.p95_latency_ms, 4)},
                 {"events_per_s", fixed(row.events_per_s, 1)},
                 {"encoded_mb_per_s", fixed(row.encoded_mb_per_s, 2)},
                 {"seed", integer(row.seed)}});
}

constexpr Key kScalars[] = {{"schema", Kind::kString},
                            {"quick", Kind::kBool},
                            {"seed_base", Kind::kNumber}};
constexpr Key kRowKeys[] = {
    {"protocol", Kind::kString},        {"throughput", Kind::kNumber},
    {"mean_latency_ms", Kind::kNumber}, {"p95_latency_ms", Kind::kNumber},
    {"events_per_s", Kind::kNumber},    {"encoded_mb_per_s", Kind::kNumber},
    {"seed", Kind::kNumber}};
constexpr ArraySpec kArrays[] = {{"rows", kRowKeys, true}};
const Artifact kArtifact{"bench_hotpath", "zdc-bench-hotpath-v1",
                         "BENCH_hotpath.json", true, kScalars, kArrays};

// ---------------------------------------------------------------------------

int run(int argc, char** argv) {
  Options opts;
  const int status = parse_flags(kArtifact, argc, argv, &opts);
  if (status >= 0) return status;
  const bool quick = opts.quick;
  const std::uint64_t seed_base = opts.seed;

  std::vector<Row> rows;

  // Micro 1: codec. Batch of 16 x 64B payloads (a loaded consensus proposal).
  {
    const BatchFixture fx = make_batch(16, 64);
    const std::uint64_t iters = quick ? 20'000 : 400'000;
    const double mb_per_s = bench_codec(fx, iters);
    std::printf("codec          %8.1f MB/s\n", mb_per_s);
    rows.push_back(Row{"codec", 0, 0, 0, 0, mb_per_s, seed_base});
  }

  // Micro 2: CRC32C over 1 MiB.
  {
    const std::uint64_t iters = quick ? 20 : 400;
    const double mb_per_s = bench_crc32c(1 << 20, iters);
    std::printf("crc32c         %8.1f MB/s\n", mb_per_s);
    rows.push_back(Row{"crc32c", 0, 0, 0, 0, mb_per_s, seed_base});
  }

  // Micro 3: event queue.
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

  Rows out;
  for (const Row& row : rows) out.push_back(to_object(row));
  const Value doc = object({{"schema", str(kArtifact.schema)},
                            {"quick", boolean(quick)},
                            {"seed_base", integer(seed_base)},
                            {"rows", list(std::move(out))}});
  return write_artifact(kArtifact, doc, opts.out);
}

}  // namespace
}  // namespace zdc::bench

int main(int argc, char** argv) { return zdc::bench::run(argc, argv); }

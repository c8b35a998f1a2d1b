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
#include <string>
#include <vector>

#include "bench_artifact.h"
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
// The artifact.

Value to_object(const ServiceRow& r) {
  return object({{"mode", str(r.mode)},
                 {"sessions", integer(r.sessions)},
                 {"writes", integer(r.writes)},
                 {"reads", integer(r.reads)},
                 {"fast_reads", integer(r.fast_reads)},
                 {"ordered_reads", integer(r.ordered_reads)},
                 {"consensus_read_rounds", integer(r.consensus_read_rounds)},
                 {"one_step", integer(r.one_step)},
                 {"two_step", integer(r.two_step)},
                 {"writes_per_s", fixed(r.writes_per_s, 1)},
                 {"reads_per_s", fixed(r.reads_per_s, 1)},
                 {"write_mean_ms", fixed(r.write_mean_ms, 4)},
                 {"fast_read_mean_ms", fixed(r.fast_read_mean_ms, 4)},
                 {"ordered_read_mean_ms", fixed(r.ordered_read_mean_ms, 4)},
                 {"seed", integer(r.seed)}});
}

constexpr Key kScalars[] = {{"schema", Kind::kString},
                            {"model", Kind::kString},
                            {"timebase", Kind::kString},
                            {"quick", Kind::kBool},
                            {"seed_base", Kind::kNumber}};
constexpr Key kRowKeys[] = {
    {"mode", Kind::kString},          {"sessions", Kind::kNumber},
    {"writes", Kind::kNumber},        {"reads", Kind::kNumber},
    {"fast_reads", Kind::kNumber},    {"ordered_reads", Kind::kNumber},
    {"consensus_read_rounds", Kind::kNumber},
    {"one_step", Kind::kNumber},      {"two_step", Kind::kNumber},
    {"writes_per_s", Kind::kNumber},  {"reads_per_s", Kind::kNumber},
    {"write_mean_ms", Kind::kNumber}, {"fast_read_mean_ms", Kind::kNumber},
    {"ordered_read_mean_ms", Kind::kNumber}, {"seed", Kind::kNumber}};
constexpr ArraySpec kArrays[] = {{"rows", kRowKeys, true}};

/// The per-path semantics: read-index-off rows must order every read
/// (fast_reads == 0, one consensus round per read), and read-index-on rows
/// must show a live fast path with fewer rounds than reads — the artifact
/// itself proves fast reads skip consensus. The rates are modelled, so the
/// document must say so.
std::string check_paths(const Value& doc) {
  if (doc.get("model")->text != "service_sim") {
    return "unknown model '" + doc.get("model")->text + "'";
  }
  if (doc.get("timebase")->text != "simulated") {
    return "timebase '" + doc.get("timebase")->text + "' is not simulated";
  }
  bool saw_on = false;
  bool saw_off = false;
  for (const Value& row : doc.get("rows")->items) {
    const std::string& mode = row.get("mode")->text;
    const double fast_reads = row.get("fast_reads")->number;
    const double reads = row.get("reads")->number;
    const double rounds = row.get("consensus_read_rounds")->number;
    if (mode == "read-index-off") {
      saw_off = true;
      if (fast_reads != 0) return "read-index-off row has fast reads";
      if (rounds != reads) {
        return "read-index-off row must pay one round per read";
      }
    } else if (mode == "read-index-on") {
      saw_on = true;
      if (fast_reads <= 0) return "read-index-on row has no fast reads";
      if (rounds >= reads) {
        return "read-index-on row shows no consensus-free reads";
      }
    } else {
      return "unknown mode '" + mode + "'";
    }
  }
  if (!saw_on || !saw_off) return "missing a read-index mode row";
  return {};
}

const Artifact kArtifact{"bench_service", "zdc-bench-service-v1",
                         "BENCH_service.json", true, kScalars, kArrays,
                         check_paths};

// ---------------------------------------------------------------------------

int run(int argc, char** argv) {
  Options opts;
  const int status = parse_flags(kArtifact, argc, argv, &opts);
  if (status >= 0) return status;

  std::vector<ServiceRow> rows;
  rows.push_back(run_mode(/*read_index=*/true, opts.quick, opts.seed));
  rows.push_back(run_mode(/*read_index=*/false, opts.quick, opts.seed));
  print_table(rows);

  Rows out;
  for (const ServiceRow& row : rows) out.push_back(to_object(row));
  const Value doc = object({{"schema", str(kArtifact.schema)},
                            {"model", str("service_sim")},
                            {"timebase", str("simulated")},
                            {"quick", boolean(opts.quick)},
                            {"seed_base", integer(opts.seed)},
                            {"rows", list(std::move(out))}});
  return write_artifact(kArtifact, doc, opts.out);
}

}  // namespace
}  // namespace zdc::bench

int main(int argc, char** argv) { return zdc::bench::run(argc, argv); }

// The benchmark's workloads and what a run reports. README.md explains
// why each workload exists and how to read a traced run.
#pragma once

#include <cstdint>
#include <map>
#include <memory>
#include <string>
#include <vector>

#include "obs/metrics.h"
#include "runtime/runtime_node.h"
#include "stats.h"

namespace zdc::perfbench {

struct Options {
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = 10.0;  ///< length of the timed phase
  bool trace = false;     ///< traced run: report per-layer metrics
};

struct MetricSpec {
  const char* name;
  const char* unit;
};

/// Printed by an untraced run, on every workload (BENCHMARK.json
/// "end_to_end").
const std::vector<MetricSpec>& end_to_end_metrics();
/// Printed by a traced run, on every workload; a layer a workload does not
/// exercise reads 0 (BENCHMARK.json "per_layer").
const std::vector<MetricSpec>& per_layer_metrics();

struct Report {
  bool correct = true;
  OpCounts ops;
  std::map<std::string, double> values;  ///< metric name -> value
  std::vector<std::string> notes;        ///< printed before the result

  void fail(const std::string& why) {
    correct = false;
    notes.push_back("CHECK FAILED: " + why);
  }
};

/// Runs one workload; throws std::invalid_argument for an unknown name.
Report run_workload(const Options& opts);
const std::vector<std::string>& workload_names();

// The four workloads (abcast_workloads.cpp, kv_workloads.cpp).
Report run_abcast_window(const Options& opts);
Report run_abcast_udp(const Options& opts);
Report run_kv_durable(const Options& opts);
Report run_kv_failover(const Options& opts);

// ---- Shared by the workloads (workloads.cpp) ---------------------------

/// Untimed warm-up before the timed phase: lazy set-up and allocator growth
/// settle before anything is measured.
inline constexpr double kWarmupMs = 500.0;
/// How long a run waits for outstanding requests to commit once the load
/// stops; anything still uncommitted then counts as failed.
inline constexpr double kDrainMs = 10000.0;
/// Requests issued this close to the end of a traced stretch are left out
/// of the decomposition: their later spans may fall after tracing stopped.
inline constexpr double kSettleMs = 100.0;

/// Sleeps until now_ms() reaches `t`.
void sleep_until_ms(double t);

/// Sum of every point of a counter family.
std::uint64_t counter_total(const obs::MetricsRegistry& reg,
                            const std::string& family);

/// The runtime layer's registry counters per operation: mailbox messages,
/// UDP datagrams and retransmissions, and failure-detector suspicions.
void report_runtime_counters(Report& rep, const obs::MetricsRegistry& reg,
                             double ops);

/// abcast.ops_per_instance and consensus.rounds_per_decision, summed over
/// replicas' protocol metrics.
class ProtocolCounts {
 public:
  /// Reads RuntimeNode::metrics(), so only once `cluster` has shut down.
  void add(runtime::RuntimeCluster& cluster,
           const std::vector<ProcessId>& replicas);
  void report(Report& rep) const;

 private:
  double deliveries_ = 0.0;
  double instances_ = 0.0;
  double rounds_ = 0.0;
  double decisions_ = 0.0;
};

/// Sorts `v` and reports its p50 and p99 into `rep` as `<prefix>_p50_ms`
/// and `<prefix>_p99_ms`; an unsupported p99 is noted.
void report_p50_p99(Report& rep, const std::string& prefix,
                    std::vector<double> v);

/// The timed phase cut into `count` equal windows. A run reports the
/// median over its windows of each window's commit p50, commit p99 and
/// throughput, so that a burst of outside load on the shared host moves one
/// window rather than the result.
class Windows {
 public:
  Windows(double start_ms, double seconds, int count);
  /// Latency sample of a request due at `due`, if that is in the phase.
  void add_commit(double due, double latency_ms);
  /// An operation completed at `done`, if that is in the phase.
  void add_completion(double done);
  /// commit_p50_ms, commit_p99_ms and throughput_ops_s; fails the run when a
  /// window's p99 has fewer than kMinBeyond samples beyond it.
  void report(Report& rep);

 private:
  [[nodiscard]] int index(double t) const;

  double start_;
  double length_;
  std::vector<std::vector<double>> latency_;
  std::vector<double> completed_;
};

/// The traced segments of a traced run: the timed phase is cut into four
/// equal segments and the second and fourth are traced, so the untraced
/// ones measure the tracing overhead on the same cluster. A request counts
/// as traced when it was issued in a traced segment, early enough that its
/// spans were recorded before tracing switched off again.
class TraceSegments {
 public:
  TraceSegments(bool trace_run, double start_ms, double seconds);
  /// Blocks, switching tracing on and off at the segment boundaries, until
  /// the timed phase ends (run it on an otherwise idle thread).
  void drive() const;
  [[nodiscard]] bool traced(double issue_ms) const;
  [[nodiscard]] bool untraced(double issue_ms) const;

 private:
  [[nodiscard]] int segment(double t) const;

  bool on_;
  double start_;
  double length_;
};

/// Samples the in-process mailbox depth gauges every millisecond while it
/// lives (traced runs only) and keeps the maximum.
class DepthSampler {
 public:
  DepthSampler(obs::MetricsRegistry& reg, std::uint32_t n, bool on);
  ~DepthSampler();
  DepthSampler(const DepthSampler&) = delete;
  DepthSampler& operator=(const DepthSampler&) = delete;
  /// Stops sampling; returns the deepest queue seen.
  double stop();

 private:
  struct State;
  std::unique_ptr<State> state_;
};

/// Accumulates the decomposition of traced requests: each layer's self time
/// and the part of each root span that no child span covers.
class SelfTimes {
 public:
  void add_request(double root_ms, double uncovered_ms);
  void add(const std::string& layer, double self_ms);
  /// Writes `<layer>.self_ms` (mean per traced request) for every layer of
  /// the catalogue, trace.uncovered_ms and trace.uncovered_share.
  void report(Report& rep) const;

 private:
  std::uint64_t requests_ = 0;
  double root_ms_ = 0.0;
  double uncovered_ms_ = 0.0;
  std::map<std::string, double> self_ms_;
};

/// trace.overhead_pct: commit p50 of traced requests over that of untraced
/// ones, as a percentage change.
void report_overhead(Report& rep, std::vector<double> traced,
                     std::vector<double> untraced);

}  // namespace zdc::perfbench

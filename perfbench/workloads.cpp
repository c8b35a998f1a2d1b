#include "workloads.h"

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cmath>
#include <stdexcept>
#include <thread>

#include "probes.h"

namespace zdc::perfbench {

const std::vector<MetricSpec>& end_to_end_metrics() {
  static const std::vector<MetricSpec> specs = {
      {"setup_s", "s"},
      {"commit_p50_ms", "ms"},
      {"commit_p99_ms", "ms"},
      {"throughput_ops_s", "1/s"},
  };
  return specs;
}

const std::vector<MetricSpec>& per_layer_metrics() {
  static const std::vector<MetricSpec> specs = {
      {"load.late_max_ms", "ms"},
      {"load.self_ms", "ms"},
      {"runtime.msgs_per_op", "msgs/op"},
      {"runtime.queue_depth_max", "count"},
      {"runtime.udp_datagrams_per_op", "datagrams/op"},
      {"runtime.udp_retransmits_per_kop", "count/kop"},
      {"runtime.fd_detect_ms", "ms"},
      {"runtime.omega_switch_ms", "ms"},
      {"runtime.fd_suspicions", "count"},
      {"runtime.self_ms", "ms"},
      {"abcast.order_p50_ms", "ms"},
      {"abcast.order_p99_ms", "ms"},
      {"abcast.replica_lag_p50_ms", "ms"},
      {"abcast.replica_lag_p99_ms", "ms"},
      {"abcast.ops_per_instance", "ops/instance"},
      {"abcast.self_ms", "ms"},
      {"consensus.rounds_per_decision", "rounds/decision"},
      {"recovery.write_ahead_p50_ms", "ms"},
      {"recovery.write_ahead_p99_ms", "ms"},
      {"recovery.checkpoint_p50_ms", "ms"},
      {"recovery.checkpoint_p99_ms", "ms"},
      {"recovery.checkpoints_per_kop", "count/kop"},
      {"recovery.recover_ms", "ms"},
      {"recovery.self_ms", "ms"},
      {"storage.syncs_per_op", "syncs/op"},
      {"storage.bytes_per_op", "B/op"},
      {"storage.compactions", "count"},
      {"storage.self_ms", "ms"},
      {"core.apply_us", "us"},
      {"core.serialize_ms", "ms"},
      {"core.read_us", "us"},
      {"core.self_ms", "ms"},
      {"service.reply_wait_p50_ms", "ms"},
      {"service.reply_wait_p99_ms", "ms"},
      {"service.retries_per_kop", "count/kop"},
      {"service.read_p99_ms", "ms"},
      {"service.self_ms", "ms"},
      {"read_p50_ms", "ms"},
      {"failover_gap_ms", "ms"},
      {"trace.requests", "count"},
      {"trace.uncovered_ms", "ms"},
      {"trace.uncovered_share", "ratio"},
      {"trace.overhead_pct", "%"},
  };
  return specs;
}

const std::vector<std::string>& workload_names() {
  static const std::vector<std::string> names = {
      "abcast-window", "abcast-udp", "kv-durable", "kv-failover"};
  return names;
}

Report run_workload(const Options& opts) {
  if (opts.workload == "abcast-window") return run_abcast_window(opts);
  if (opts.workload == "abcast-udp") return run_abcast_udp(opts);
  if (opts.workload == "kv-durable") return run_kv_durable(opts);
  if (opts.workload == "kv-failover") return run_kv_failover(opts);
  throw std::invalid_argument("unknown workload: " + opts.workload);
}

void sleep_until_ms(double t) {
  const double wait = t - now_ms();
  if (wait > 0.0) {
    std::this_thread::sleep_for(std::chrono::duration<double, std::milli>(wait));
  }
}

std::uint64_t counter_total(const obs::MetricsRegistry& reg,
                            const std::string& family) {
  std::uint64_t total = 0;
  for (const auto& fam : reg.snapshot()) {
    if (fam.name != family) continue;
    for (const auto& point : fam.points) total += point.counter;
  }
  return total;
}

void report_runtime_counters(Report& rep, const obs::MetricsRegistry& reg,
                             double ops) {
  const double per_op = ops > 0.0 ? 1.0 / ops : 0.0;
  rep.values["runtime.msgs_per_op"] =
      per_op * static_cast<double>(
                   counter_total(reg, "zdc_inproc_messages_total"));
  rep.values["runtime.udp_datagrams_per_op"] =
      per_op * static_cast<double>(
                   counter_total(reg, "zdc_udp_datagrams_sent_total"));
  rep.values["runtime.udp_retransmits_per_kop"] =
      1000.0 * per_op *
      static_cast<double>(counter_total(reg, "zdc_udp_retransmissions_total"));
  rep.values["runtime.fd_suspicions"] =
      static_cast<double>(counter_total(reg, "zdc_fd_suspicions_total"));
}

void ProtocolCounts::add(runtime::RuntimeCluster& cluster,
                         const std::vector<ProcessId>& replicas) {
  for (const ProcessId p : replicas) {
    const abcast::AbcastMetrics& m = cluster.node(p).metrics();
    deliveries_ += static_cast<double>(m.a_deliveries);
    instances_ += static_cast<double>(m.consensus_instances);
    // Consensus accounting of pruned instances (all but the last few).
    rounds_ += static_cast<double>(m.transport.rounds_started);
    decisions_ += static_cast<double>(m.transport.decisions);
  }
}

void ProtocolCounts::report(Report& rep) const {
  rep.values["abcast.ops_per_instance"] =
      instances_ > 0.0 ? deliveries_ / instances_ : 0.0;
  rep.values["consensus.rounds_per_decision"] =
      decisions_ > 0.0 ? rounds_ / decisions_ : 0.0;
}

void report_p50_p99(Report& rep, const std::string& prefix,
                    std::vector<double> v) {
  std::sort(v.begin(), v.end());
  rep.values[prefix + "_p50_ms"] = percentile(v, 50.0).value;
  const Percentile p99 = percentile(v, 99.0);
  rep.values[prefix + "_p99_ms"] = p99.value;
  if (!v.empty() && !p99.supported()) {
    rep.notes.push_back("note: " + prefix + "_p99_ms rests on " +
                        std::to_string(v.size()) + " samples, " +
                        std::to_string(p99.beyond) + " beyond it");
  }
}

// ---- Windows -----------------------------------------------------------

Windows::Windows(double start_ms, double seconds, int count)
    : start_(start_ms),
      length_(seconds * 1000.0 / std::max(1, count)),
      latency_(static_cast<std::size_t>(std::max(1, count))),
      completed_(latency_.size(), 0.0) {}

int Windows::index(double t) const {
  if (t < start_) return -1;
  const auto i = static_cast<std::size_t>((t - start_) / length_);
  return i < latency_.size() ? static_cast<int>(i) : -1;
}

void Windows::add_commit(double due, double latency_ms) {
  const int i = index(due);
  if (i >= 0) latency_[i].push_back(latency_ms);
}

void Windows::add_completion(double done) {
  const int i = index(done);
  if (i >= 0) completed_[i] += 1.0;
}

void Windows::report(Report& rep) {
  std::vector<double> p50, p99, throughput;
  for (std::size_t i = 0; i < latency_.size(); ++i) {
    std::vector<double>& v = latency_[i];
    std::sort(v.begin(), v.end());
    const Percentile tail = percentile(v, 99.0);
    if (!tail.supported()) {
      rep.fail("window " + std::to_string(i) + " has too few commits (" +
               std::to_string(v.size()) + ") for a p99");
    }
    p50.push_back(percentile(v, 50.0).value);
    p99.push_back(tail.value);
    throughput.push_back(completed_[i] * 1000.0 / length_);
  }
  rep.values["commit_p50_ms"] = median(p50);
  rep.values["commit_p99_ms"] = median(p99);
  rep.values["throughput_ops_s"] = median(throughput);
}

// ---- TraceSegments -----------------------------------------------------

TraceSegments::TraceSegments(bool trace_run, double start_ms, double seconds)
    : on_(trace_run), start_(start_ms), length_(seconds * 1000.0 / 4.0) {}

void TraceSegments::drive() const {
  if (!on_) return;
  for (int seg = 0; seg < 4; ++seg) {
    sleep_until_ms(start_ + seg * length_);
    set_tracing(seg % 2 == 1);
  }
  sleep_until_ms(start_ + 4 * length_);
  set_tracing(false);
}

int TraceSegments::segment(double t) const {
  if (t < start_) return -1;
  const int seg = static_cast<int>((t - start_) / length_);
  return seg < 4 ? seg : -1;
}

bool TraceSegments::traced(double issue_ms) const {
  const int seg = segment(issue_ms);
  if (!on_ || seg % 2 != 1) return false;
  const double settle = std::min(kSettleMs, length_ / 4.0);
  return issue_ms < start_ + (seg + 1) * length_ - settle;
}

bool TraceSegments::untraced(double issue_ms) const {
  const int seg = segment(issue_ms);
  return on_ && (seg == 0 || seg == 2);
}

// ---- DepthSampler ------------------------------------------------------

struct DepthSampler::State {
  std::vector<obs::Gauge*> gauges;
  std::atomic<bool> stop{false};
  double max = 0.0;  // sampler thread only until joined
  std::thread thread;
};

DepthSampler::DepthSampler(obs::MetricsRegistry& reg, std::uint32_t n,
                           bool on)
    : state_(std::make_unique<State>()) {
  if (!on) return;
  for (ProcessId p = 0; p < n; ++p) {
    state_->gauges.push_back(
        &reg.gauge("zdc_inproc_queue_depth", obs::process_label(p)));
  }
  State* s = state_.get();
  s->thread = std::thread([s] {
    while (!s->stop.load(std::memory_order_relaxed)) {
      for (const obs::Gauge* g : s->gauges) s->max = std::max(s->max, g->value());
      std::this_thread::sleep_for(std::chrono::milliseconds(1));
    }
  });
}

DepthSampler::~DepthSampler() { stop(); }

double DepthSampler::stop() {
  state_->stop.store(true, std::memory_order_relaxed);
  if (state_->thread.joinable()) state_->thread.join();
  return state_->max;
}

// ---- SelfTimes ---------------------------------------------------------

void SelfTimes::add_request(double root_ms, double uncovered_ms) {
  ++requests_;
  root_ms_ += root_ms;
  uncovered_ms_ += uncovered_ms;
}

void SelfTimes::add(const std::string& layer, double self_ms) {
  self_ms_[layer] += self_ms;
}

void SelfTimes::report(Report& rep) const {
  const double n = requests_ == 0 ? 1.0 : static_cast<double>(requests_);
  for (const char* layer :
       {"load", "runtime", "abcast", "recovery", "storage", "core",
        "service"}) {
    const auto it = self_ms_.find(layer);
    rep.values[std::string(layer) + ".self_ms"] =
        it == self_ms_.end() ? 0.0 : it->second / n;
  }
  rep.values["trace.requests"] = static_cast<double>(requests_);
  rep.values["trace.uncovered_ms"] = uncovered_ms_ / n;
  rep.values["trace.uncovered_share"] =
      root_ms_ > 0.0 ? uncovered_ms_ / root_ms_ : 0.0;
}

void report_overhead(Report& rep, std::vector<double> traced,
                     std::vector<double> untraced) {
  std::sort(traced.begin(), traced.end());
  std::sort(untraced.begin(), untraced.end());
  const double base = percentile(untraced, 50.0).value;
  if (traced.empty() || base <= 0.0) return;
  rep.values["trace.overhead_pct"] =
      100.0 * (percentile(traced, 50.0).value / base - 1.0);
}

}  // namespace zdc::perfbench

// abcast-window and abcast-udp: raw atomic broadcast on RuntimeCluster,
// driven through RuntimeNode::a_broadcast. The deliver callback is the only
// probe: it checks the total order and times each request at the replica
// that submitted it.
#include <algorithm>
#include <array>
#include <atomic>
#include <chrono>
#include <cmath>
#include <condition_variable>
#include <cstring>
#include <memory>
#include <mutex>
#include <thread>
#include <utility>
#include <vector>

#include "common/rng.h"
#include "probes.h"
#include "runtime/runtime_node.h"
#include "workloads.h"

namespace zdc::perfbench {

namespace {

using TransportKind = runtime::RuntimeCluster::TransportKind;

constexpr std::uint32_t kN = 4;
/// Clusters whose set-up is timed in one run (the measured one included):
/// a bare set-up takes a millisecond or two and is bimodal, so a run
/// reports the median of many.
constexpr int kSetupSamples = 25;
/// abcast-window keeps this many messages outstanding: enough to keep
/// about two of four cores busy ordering, so CPU saved shows as throughput,
/// while the host has room left. At 256 the loop needs about 2.6 cores and
/// moves three times as much when another process takes one.
constexpr std::uint64_t kWindow = 128;
/// abcast-udp's Poisson arrival rate.
constexpr double kUdpRatePerS = 2000.0;

runtime::RuntimeCluster::Config cluster_config(TransportKind transport,
                                               std::uint64_t seed) {
  runtime::RuntimeCluster::Config cfg;
  cfg.group = GroupParams{kN, 1};
  cfg.transport = transport;
  cfg.kind = runtime::ProtocolKind::kCAbcastL;
  cfg.net.seed = seed;
  cfg.udp.seed = seed;
  return cfg;
}

/// One request. The generator writes due/called/returned around the
/// a_broadcast call; deliver callbacks write done and at[] (distinct
/// objects, so no race); the analysis reads it all after shutdown.
struct Request {
  double due = 0.0;       ///< due time (closed loop: issue time)
  double called = 0.0;    ///< a_broadcast entered
  double returned = 0.0;  ///< a_broadcast returned
  double done = 0.0;      ///< a-delivered at the submitter; 0 = never
  std::array<float, kN> at{};  ///< traced: a-delivery per replica, ms after due
};

/// Grows in fixed chunks, so the generator can extend it while callbacks on
/// the worker threads address entries it handed out earlier.
class RequestLog {
 public:
  RequestLog() : chunks_(kMaxChunks) {}

  /// Generator thread only, before request `id` reaches the cluster.
  Request& add(std::uint64_t id) {
    auto& chunk = chunks_.at(id / kChunk);
    if (!chunk) chunk = std::make_unique<Request[]>(kChunk);
    return chunk[id % kChunk];
  }
  Request& operator[](std::uint64_t id) {
    return chunks_[id / kChunk][id % kChunk];
  }

 private:
  static constexpr std::uint64_t kChunk = 1 << 16;
  static constexpr std::size_t kMaxChunks = 1 << 12;
  std::vector<std::unique_ptr<Request[]>> chunks_;
};

class AbcastRun {
 public:
  AbcastRun(runtime::RuntimeCluster::Config cfg, std::uint64_t seed)
      : seed_(seed), build_start_(now_ms()) {
    cluster_ = std::make_unique<runtime::RuntimeCluster>(
        std::move(cfg), [this](ProcessId p, const abcast::AppMessage& m) {
          on_deliver(p, m);
        });
    cluster_->start();
    // Bounds every wait on wake_ even if the cluster stops delivering.
    ticker_ = std::thread([this] {
      std::unique_lock<std::mutex> lock(ticker_mu_);
      while (!ticker_cv_.wait_for(lock, std::chrono::milliseconds(20),
                                  [this] { return stopping_; })) {
        poke();
      }
    });
  }
  ~AbcastRun() { shutdown(); }
  AbcastRun(const AbcastRun&) = delete;
  AbcastRun& operator=(const AbcastRun&) = delete;

  /// Hands the next request to replica `sender` (generator thread only).
  void issue(ProcessId sender, double due) {
    const std::uint64_t id = issued_.load(std::memory_order_relaxed);
    Request& r = log_.add(id);
    r.due = due;
    std::string payload = tagged_payload(seed_, id, kAbcastPayloadBytes);
    issued_.store(id + 1, std::memory_order_release);
    r.called = now_ms();
    cluster_->node(sender).a_broadcast(std::move(payload));
    r.returned = now_ms();
  }

  /// Set-up time: from the start of the constructor until a first request
  /// committed at its submitter. Call first, once.
  double first_commit_ms() {
    issue(0, now_ms());
    if (!wait_completed(1, now_ms() + kDrainMs)) return -1.0;
    return now_ms() - build_start_;
  }

  [[nodiscard]] std::uint64_t issued() const {
    return issued_.load(std::memory_order_acquire);
  }
  [[nodiscard]] std::uint64_t completed() const {
    return completed_.load(std::memory_order_acquire);
  }
  [[nodiscard]] std::uint32_t wake_token() const {
    return wake_.load(std::memory_order_acquire);
  }
  /// Blocks until a completion (or the ticker) moves the token on.
  void wait_wake(std::uint32_t token) const {
    wake_.wait(token, std::memory_order_acquire);
  }

  bool wait_completed(std::uint64_t count, double deadline_ms) {
    while (completed() < count) {
      if (now_ms() >= deadline_ms) return false;
      const std::uint32_t token = wake_token();
      if (completed() < count) wait_wake(token);
    }
    return true;
  }

  /// Waits until every request committed at its submitter and every
  /// replica delivered all of them.
  bool drain(double timeout_ms) {
    return runtime::RuntimeCluster::wait_until(
        [this] {
          const std::uint64_t n = issued();
          if (completed() != n) return false;
          for (const Replica& r : replicas_) {
            if (r.delivered.load(std::memory_order_acquire) != n) return false;
          }
          return true;
        },
        timeout_ms);
  }

  void shutdown() {
    {
      std::lock_guard<std::mutex> lock(ticker_mu_);
      stopping_ = true;
    }
    ticker_cv_.notify_all();
    if (ticker_.joinable()) ticker_.join();
    cluster_->shutdown();
  }

  /// After shutdown: every replica delivered every request, in one order.
  [[nodiscard]] bool same_total_order() const {
    for (const Replica& r : replicas_) {
      if (r.delivered.load() != issued() || r.order != replicas_[0].order) {
        return false;
      }
    }
    return !unknown_.load();
  }

  Request& request(std::uint64_t id) { return log_[id]; }
  runtime::RuntimeCluster& cluster() { return *cluster_; }

 private:
  struct alignas(64) Replica {
    std::uint64_t order = 0;  ///< hash of the delivery sequence (worker only)
    std::atomic<std::uint64_t> delivered{0};
  };

  void poke() {
    wake_.fetch_add(1, std::memory_order_release);
    wake_.notify_all();
  }

  void on_deliver(ProcessId p, const abcast::AppMessage& m) {
    const auto id = payload_id(m.payload);
    if (!id.has_value() || *id >= issued()) {
      unknown_.store(true);
      return;
    }
    const double t = now_ms();
    Replica& rep = replicas_[p];
    rep.order = common::splitmix64(rep.order ^ *id);
    Request& r = log_[*id];
    if (tracing()) r.at[p] = static_cast<float>(t - r.due);
    if (m.id.sender == p) {
      r.done = t;
      completed_.fetch_add(1, std::memory_order_release);
      poke();
    }
    rep.delivered.store(rep.delivered.load(std::memory_order_relaxed) + 1,
                        std::memory_order_release);
  }

  const std::uint64_t seed_;
  const double build_start_;
  RequestLog log_;
  std::array<Replica, kN> replicas_;
  std::atomic<std::uint64_t> issued_{0};
  std::atomic<std::uint64_t> completed_{0};
  mutable std::atomic<std::uint32_t> wake_{0};
  std::atomic<bool> unknown_{false};
  std::unique_ptr<runtime::RuntimeCluster> cluster_;
  std::mutex ticker_mu_;
  std::condition_variable ticker_cv_;
  bool stopping_ = false;  // guarded by ticker_mu_
  std::thread ticker_;
};

/// Closed loop: one generator keeps kWindow messages outstanding,
/// round-robin over the senders.
void window_load(AbcastRun& run, double end) {
  ProcessId next = 0;
  for (;;) {
    const std::uint32_t token = run.wake_token();
    const double now = now_ms();
    if (now >= end) return;
    if (run.issued() - run.completed() >= kWindow) {
      run.wait_wake(token);
      continue;
    }
    run.issue(next, now);
    next = (next + 1) % kN;
  }
}

/// Open loop: seeded Poisson arrivals at seeded senders; each request is
/// timed from its due time, however late the generator gets to it.
void poisson_load(AbcastRun& run, common::Rng& rng, double end) {
  double due = now_ms();
  for (;;) {
    due += rng.exponential(1000.0 / kUdpRatePerS);
    if (due >= end) return;
    const auto sender = static_cast<ProcessId>(rng.next_below(kN));
    sleep_until_ms(due);
    run.issue(sender, due);
  }
}

Report run_abcast(const Options& o, TransportKind transport) {
  const bool open_loop = transport == TransportKind::kUdp;
  Report rep;
  const auto base = cluster_config(transport, o.seed);

  std::vector<double> setups;
  for (int i = 0; i + 1 < kSetupSamples; ++i) {
    obs::MetricsRegistry reg;
    auto cfg = base;
    cfg.metrics = &reg;
    AbcastRun fresh(cfg, common::mix_seed(o.seed, "setup", 0.0, i));
    setups.push_back(fresh.first_commit_ms());
  }

  obs::MetricsRegistry reg;
  auto cfg = base;
  cfg.metrics = &reg;
  AbcastRun run(cfg, o.seed);
  setups.push_back(run.first_commit_ms());
  if (*std::min_element(setups.begin(), setups.end()) < 0.0) {
    rep.fail("a set-up request never committed");
  }

  const double t0 = now_ms() + kWarmupMs;
  const double t1 = t0 + o.seconds * 1000.0;
  TraceSegments segments(o.trace, t0, o.seconds);
  DepthSampler depth(reg, kN, o.trace && !open_loop);
  std::thread switcher([&segments] { segments.drive(); });
  common::Rng rng(common::mix_seed(o.seed, o.workload, 0.0, 0));
  if (open_loop) {
    poisson_load(run, rng, t1);
  } else {
    window_load(run, t1);
  }
  switcher.join();
  rep.values["runtime.queue_depth_max"] = depth.stop();
  const bool drained = run.drain(kDrainMs);
  run.shutdown();

  if (!drained) rep.fail("requests still uncommitted after the drain");
  if (!run.same_total_order()) {
    rep.fail("replicas did not deliver the same sequence");
  }

  // End to end over one-second windows, and the decomposition of traced
  // requests.
  Windows windows(t0, o.seconds, static_cast<int>(std::lround(o.seconds)));
  std::vector<double> traced_commit, untraced_commit, order, lag;
  double late_max = 0.0;
  SelfTimes self;
  const std::uint64_t n = run.issued();
  for (std::uint64_t id = 0; id < n; ++id) {
    const Request& r = run.request(id);
    const bool ok = r.done > 0.0;
    rep.ops.add(ok);
    if (!ok) continue;
    windows.add_completion(r.done);
    if (r.due < t0 || r.due >= t1) continue;
    const double latency = r.done - r.due;
    windows.add_commit(r.due, latency);
    if (open_loop) late_max = std::max(late_max, r.called - r.due);
    if (segments.untraced(r.due)) untraced_commit.push_back(latency);
    if (!segments.traced(r.due)) continue;
    traced_commit.push_back(latency);
    order.push_back(r.done - r.returned);
    const float first = *std::min_element(r.at.begin(), r.at.end());
    if (first > 0.0F) {
      bool skipped_first = false;
      for (const float at : r.at) {
        if (at == first && !skipped_first) {
          skipped_first = true;
          continue;
        }
        lag.push_back(static_cast<double>(at - first));
      }
    }
    self.add("load", r.called - r.due);
    self.add("runtime", r.returned - r.called);
    self.add("abcast", r.done - r.returned);
    self.add_request(latency,
                     latency - covered(r.due, r.done,
                                       {{r.due, r.called},
                                        {r.called, r.returned},
                                        {r.returned, r.done}}));
  }

  rep.values["setup_s"] = median(setups) / 1000.0;
  windows.report(rep);

  rep.values["load.late_max_ms"] = late_max;
  report_runtime_counters(rep, reg, static_cast<double>(n));
  ProtocolCounts protocol;
  protocol.add(run.cluster(), {0, 1, 2, 3});
  protocol.report(rep);
  report_p50_p99(rep, "abcast.order", std::move(order));
  report_p50_p99(rep, "abcast.replica_lag", std::move(lag));
  self.report(rep);
  report_overhead(rep, std::move(traced_commit), std::move(untraced_commit));
  return rep;
}

}  // namespace

Report run_abcast_window(const Options& opts) {
  return run_abcast(opts, TransportKind::kInproc);
}

Report run_abcast_udp(const Options& opts) {
  return run_abcast(opts, TransportKind::kUdp);
}

}  // namespace zdc::perfbench

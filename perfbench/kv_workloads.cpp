// kv-durable and kv-failover: rsm::ServiceGroup driven through rsm::Client,
// over DurableStableStorage on one MemEnv per replica. The probes sit under
// the storage factory and the inner state-machine factory (probes.h).
#include <algorithm>
#include <array>
#include <map>
#include <memory>
#include <string>
#include <thread>
#include <unordered_map>
#include <utility>
#include <vector>

#include "common/assert.h"
#include "common/rng.h"
#include "core/kv_store.h"
#include "probes.h"
#include "recovery/durable_rsm.h"
#include "service/service_group.h"
#include "service/session.h"
#include "storage/durable_storage.h"
#include "workloads.h"

namespace zdc::perfbench {

namespace {

constexpr std::uint32_t kN = 4;
/// Bounds a client call on a stalled service to five 1 s attempts, so the
/// run still ends; the stall then shows as error:timeout failures.
constexpr int kClientAttempts = 5;
/// Every replica's WAL compacts once this many bytes accumulate.
constexpr std::uint64_t kCompactBytes = 4ULL << 20;
constexpr char kDir[] = "db";

// kv-durable.
constexpr std::uint32_t kDurableKeys = 5000;
constexpr int kDurableClients = 3;
/// Set-ups timed per run, the measured cluster's included.
constexpr int kDurableSetupSamples = 5;

// kv-failover.
constexpr std::uint32_t kFailoverKeys = 64;
constexpr std::size_t kFailoverValueBytes = 32;
constexpr double kTrialMs = 800.0;
/// The crash comes this long into a trial, plus up to kCrashJitterMs drawn
/// from the seed: long enough for the failure detector's estimates to warm
/// up, and not in phase with its heartbeats.
constexpr double kCrashAfterMs = 300.0;
constexpr double kCrashJitterMs = 100.0;
constexpr double kFailoverRatePerS = 500.0;  // both clients together
/// Trials pooled for one p99: a trial alone has too few samples beyond its
/// p99, and pooling every trial lets one bad trial move the result.
constexpr int kTrialsPerP99 = 3;
constexpr ProcessId kVictim = 0;  // the Ω leader: the lowest live id
constexpr std::array<ProcessId, 2> kFailoverHomes = {1, 2};

/// One client operation as its issuer saw it.
struct Op {
  std::uint64_t id = 0;  ///< PUT: request id, carried in its value
  std::uint32_t key = 0;
  bool write = false;
  bool ok = false;     ///< the expected reply
  bool wrong = false;  ///< neither the expected reply nor an error: reply
  std::uint64_t seen = 0;  ///< GET: value id of the value read
  double due = 0.0;        ///< when it was due (closed loop: when sent)
  double called = 0.0;     ///< when the client call started
  double done = 0.0;       ///< when it returned
};

storage::DurableStorageOptions storage_options() {
  storage::DurableStorageOptions opts;
  opts.compact_after_bytes = kCompactBytes;
  return opts;
}

/// The kv-durable image: kDurableKeys keys of kKvValueBytes, as the session
/// layer serializes them.
std::string preload_image(std::uint64_t seed) {
  auto kv = std::make_unique<core::KvStateMachine>();
  for (std::uint32_t k = 0; k < kDurableKeys; ++k) {
    static_cast<void>(kv->apply(core::kv_put(
        kv_key(k), tagged_payload(seed, kPreloadTag | k, kKvValueBytes))));
  }
  return rsm::SessionStateMachine(std::move(kv)).serialize();
}

/// Writes `image` into `disk` the way a replica that applied it would have
/// checkpointed it.
void install(storage::Env& disk, const std::string& image) {
  std::unique_ptr<storage::DurableStableStorage> store;
  ZDC_ASSERT_MSG(storage::DurableStableStorage::open(disk, kDir,
                                                     storage_options(), &store)
                     .is_ok(),
                 "preload: storage open failed");
  recovery::DurableRsm durable(
      std::make_unique<rsm::SessionStateMachine>(
          std::make_unique<core::KvStateMachine>()),
      store.get());
  ZDC_ASSERT_MSG(durable.install_snapshot(1, image),
                 "preload: image rejected");
}

/// One ServiceGroup over fresh MemEnv disks, started. Members are declared
/// so that the group goes before the disks and probes it uses.
class KvCluster {
 public:
  KvCluster(std::uint64_t seed, const std::string& image,
            obs::MetricsRegistry* reg) {
    for (ProcessId p = 0; p < kN; ++p) {
      disks_.push_back(std::make_unique<storage::MemEnv>());
      if (!image.empty()) install(*disks_[p], image);
      envs_.push_back(std::make_unique<ProbedEnv>(*disks_[p], probes_[p]));
    }
    const auto opts =
        zdc::RunOptions{}
            .with_group(kN, 1)
            .with_seed(seed)
            .with_metrics(reg)
            .with_storage([this](ProcessId p) { return open_storage(p); })
            .with_sessions();
    rsm::ServiceGroup::Config cfg;
    cfg.client_max_attempts = kClientAttempts;
    // Set-up starts here: storage open, WAL replay and checkpoint restore
    // happen inside the constructor.
    build_start_ = now_ms();
    svc_ = std::make_unique<rsm::ServiceGroup>(
        opts, [this] { return make_machine(); }, cfg);
    recover_ms_ = now_ms() - build_start_;
    svc_->start();
  }

  /// Set-up time: until a first PUT is acknowledged to its client.
  double first_ack_ms(Report& rep) {
    rsm::Client client = svc_->client(1);
    const std::string reply = client.execute(core::kv_put("setup", "x"));
    const double ms = now_ms() - build_start_;
    rep.ops.add(reply == "ok");
    if (reply != "ok") rep.fail("set-up request answered " + reply);
    return ms;
  }

  /// Waits until `live` replicas applied the same prefix, and it held for
  /// a few polls (nothing is left in flight).
  bool settle(const std::vector<ProcessId>& live) {
    int stable_polls = 0;
    std::uint64_t last = 0;
    return runtime::RuntimeCluster::wait_until(
        [&] {
          const std::uint64_t a = svc_->replicas().applied(live[0]);
          for (const ProcessId p : live) {
            if (svc_->replicas().applied(p) != a) return false;
          }
          stable_polls = a == last ? stable_polls + 1 : 0;
          last = a;
          return stable_polls >= 5;
        },
        kDrainMs);
  }

  /// After shutdown: the live replicas hold equal state.
  bool digests_equal(const std::vector<ProcessId>& live) {
    for (const ProcessId p : live) {
      if (svc_->replicas().digest(p) != svc_->replicas().digest(live[0])) {
        return false;
      }
    }
    return true;
  }

  rsm::ServiceGroup& svc() { return *svc_; }
  const ReplicaProbe& probe(ProcessId p) const { return probes_[p]; }
  [[nodiscard]] double recover_ms() const { return recover_ms_; }

  /// Sum of every replica's StableStorage syncs (after shutdown).
  double syncs() {
    double total = 0.0;
    for (ProcessId p = 0; p < kN; ++p) {
      total += static_cast<double>(
          svc_->replicas().cluster().storage(p)->sync_count());
    }
    return total;
  }

 private:
  std::unique_ptr<common::StableStorage> open_storage(ProcessId p) {
    std::unique_ptr<storage::DurableStableStorage> store;
    ZDC_ASSERT_MSG(storage::DurableStableStorage::open(*envs_[p], kDir,
                                                       storage_options(), &store)
                       .is_ok(),
                   "storage open failed");
    return std::make_unique<ProbedStorage>(std::move(store), probes_[p]);
  }

  std::unique_ptr<core::StateMachine> make_machine() {
    // ReplicaGroup builds replica 0..n-1's machine in order while it is
    // constructed; no replica restarts in these workloads.
    ZDC_ASSERT(next_machine_ < kN);
    return std::make_unique<ProbedKv>(probes_[next_machine_++]);
  }

  std::array<ReplicaProbe, kN> probes_;
  std::vector<std::unique_ptr<storage::MemEnv>> disks_;
  std::vector<std::unique_ptr<ProbedEnv>> envs_;
  std::uint32_t next_machine_ = 0;
  double build_start_ = 0.0;
  double recover_ms_ = 0.0;
  std::unique_ptr<rsm::ServiceGroup> svc_;
};

/// "value:<bytes>" of exactly `bytes` bytes; stores its value id.
bool read_value_id(const std::string& reply, std::size_t bytes,
                   std::uint64_t* id) {
  constexpr std::string_view kPrefix = "value:";
  if (reply.size() != kPrefix.size() + bytes ||
      reply.compare(0, kPrefix.size(), kPrefix) != 0) {
    return false;
  }
  *id = payload_id(std::string_view(reply).substr(kPrefix.size())).value();
  return true;
}

/// kv-durable's client: closed loop, half PUTs and half GETs over the
/// preloaded keys.
void closed_client(rsm::ServiceGroup& svc, ProcessId home,
                   std::uint64_t value_seed, std::uint64_t rng_seed,
                   std::uint64_t first_id, double end, std::vector<Op>* ops) {
  common::Rng rng(rng_seed);
  rsm::Client client = svc.client(home);
  std::uint64_t next_id = first_id;
  while (now_ms() < end) {
    Op op;
    op.write = rng.chance(0.5);
    op.key = static_cast<std::uint32_t>(rng.next_below(kDurableKeys));
    if (op.write) {
      op.id = next_id;
      next_id += kDurableClients;
      std::string command = core::kv_put(
          kv_key(op.key), tagged_payload(value_seed, op.id, kKvValueBytes));
      op.due = op.called = now_ms();
      const std::string reply = client.execute(std::move(command));
      op.ok = reply == "ok";
      op.wrong = !op.ok && !is_error_reply(reply);
    } else {
      std::string query = core::kv_get(kv_key(op.key));
      op.due = op.called = now_ms();
      const std::string reply = client.read(std::move(query));
      op.ok = read_value_id(reply, kKvValueBytes, &op.seen);
      op.wrong = !op.ok && !is_error_reply(reply);
    }
    op.done = now_ms();
    ops->push_back(op);
  }
}

struct Planned {
  double due = 0.0;
  std::uint32_t key = 0;
  std::uint64_t id = 0;
};

/// kv-failover's client: PUTs on a seeded open-loop schedule. The client
/// blocks on each call, so a request due during an outage is sent late and
/// timed from its due time.
void open_client(rsm::ServiceGroup& svc, ProcessId home,
                 std::uint64_t value_seed, const std::vector<Planned>& plan,
                 std::vector<Op>* ops) {
  rsm::Client client = svc.client(home);
  for (const Planned& planned : plan) {
    std::string command =
        core::kv_put(kv_key(planned.key),
                     tagged_payload(value_seed, planned.id, kFailoverValueBytes));
    sleep_until_ms(planned.due);
    Op op;
    op.write = true;
    op.key = planned.key;
    op.id = planned.id;
    op.due = planned.due;
    op.called = now_ms();
    const std::string reply = client.execute(std::move(command));
    op.ok = reply == "ok";
    op.wrong = !op.ok && !is_error_reply(reply);
    op.done = now_ms();
    ops->push_back(op);
  }
}

/// Every reply is the expected one or an error: reply (a failure), and GETs
/// read a value some PUT to that key wrote (sent before the GET returned) or
/// the preloaded one.
void check_replies(Report& rep, const std::vector<Op>& ops) {
  std::unordered_map<std::uint64_t, const Op*> puts;
  std::uint64_t wrong = 0;
  for (const Op& op : ops) {
    if (op.write) puts.emplace(op.id, &op);
    wrong += op.wrong ? 1 : 0;
  }
  if (wrong != 0) rep.fail(std::to_string(wrong) + " unexpected replies");
  std::uint64_t bad = 0;
  for (const Op& op : ops) {
    if (op.write || !op.ok) continue;
    if ((op.seen & kPreloadTag) != 0) {
      bad += op.seen != (kPreloadTag | op.key) ? 1 : 0;
      continue;
    }
    const auto it = puts.find(op.seen);
    bad += it == puts.end() || it->second->key != op.key ||
                   it->second->called > op.done
               ? 1
               : 0;
  }
  if (bad != 0) rep.fail(std::to_string(bad) + " GETs read a value never written");
}

/// Reads every key the run wrote from a replica's state once the group has
/// shut down (the digests show every replica holds the same state), and
/// checks that the final value is one a linearizable store can end with: an
/// acknowledged PUT that no other acknowledged PUT followed in real time, or
/// a failed PUT (it may have applied), or the preloaded value when no PUT
/// succeeded.
void check_final_reads(Report& rep, const core::StateMachine& machine,
                       const std::vector<Op>& ops, bool preloaded,
                       std::size_t value_bytes, std::uint64_t value_seed) {
  std::map<std::uint32_t, std::vector<const Op*>> by_key;
  for (const Op& op : ops) {
    if (op.write) by_key[op.key].push_back(&op);
  }
  std::uint64_t bad = 0;
  for (const auto& [key, writes] : by_key) {
    const std::string reply = machine.apply_read(core::kv_get(kv_key(key)));
    bool acked = false;
    for (const Op* w : writes) acked = acked || w->ok;
    if (reply == "not_found") {
      bad += acked || preloaded ? 1 : 0;
      continue;
    }
    std::uint64_t id = 0;
    if (!read_value_id(reply, value_bytes, &id) ||
        reply.compare(6, std::string::npos,
                      tagged_payload(value_seed, id, value_bytes)) != 0) {
      ++bad;
      continue;
    }
    bool allowed = !acked && preloaded && id == (kPreloadTag | key);
    for (const Op* w : writes) {
      if (w->id != id) continue;
      bool superseded = false;
      for (const Op* other : writes) {
        superseded = superseded || (other != w && other->ok && w->ok &&
                                    other->called > w->done);
      }
      allowed = allowed || !superseded;
    }
    bad += allowed ? 0 : 1;
  }
  if (bad != 0) {
    rep.fail(std::to_string(bad) + " keys lost an acknowledged PUT");
  }
}

/// Per-layer samples pooled over replicas (and trials).
struct LayerSamples {
  std::vector<double> write_ahead_ms, checkpoint_ms, serialize_ms, apply_us,
      read_us;
  double checkpoints = 0.0;
  double bytes = 0.0;
  double compactions = 0.0;
  double syncs = 0.0;

  void add(KvCluster& c) {
    for (ProcessId p = 0; p < kN; ++p) {
      const ReplicaProbe& probe = c.probe(p);
      auto append = [](std::vector<double>& to, const std::vector<double>& v) {
        to.insert(to.end(), v.begin(), v.end());
      };
      append(write_ahead_ms, probe.write_ahead_ms);
      append(checkpoint_ms, probe.checkpoint_ms);
      append(serialize_ms, probe.serialize_ms);
      append(apply_us, probe.apply_us);
      append(read_us, probe.read_us);
      checkpoints += static_cast<double>(probe.checkpoints);
      bytes += static_cast<double>(probe.bytes_appended);
      compactions += static_cast<double>(probe.compactions);
    }
    syncs += c.syncs();
  }

  void report(Report& rep, double ops) {
    report_p50_p99(rep, "recovery.write_ahead", write_ahead_ms);
    report_p50_p99(rep, "recovery.checkpoint", checkpoint_ms);
    rep.values["recovery.checkpoints_per_kop"] =
        1000.0 * checkpoints / kN / ops;
    rep.values["storage.syncs_per_op"] = syncs / ops;
    rep.values["storage.bytes_per_op"] = bytes / ops;
    rep.values["storage.compactions"] = compactions;
    auto p50 = [](std::vector<double> v) {
      std::sort(v.begin(), v.end());
      return percentile(v, 50.0).value;
    };
    rep.values["core.apply_us"] = p50(apply_us);
    rep.values["core.serialize_ms"] = p50(serialize_ms);
    rep.values["core.read_us"] = p50(read_us);
  }
};

/// Splits a traced request along the spans of the replica that answered
/// it: load [due, sent], abcast [sent, write-ahead start], recovery and
/// storage (the write-ahead record), core (the apply), service [apply end,
/// return].
void decompose(const Op& op, const ReplicaProbe::Apply& a, SelfTimes& self,
               std::vector<double>& order, std::vector<double>& reply_wait) {
  const double storage_ms = a.put_ms + a.sync_ms;
  self.add("load", op.called - op.due);
  self.add("abcast", a.write_ahead.start - op.called);
  self.add("recovery", a.write_ahead.ms() - storage_ms);
  self.add("storage", storage_ms);
  self.add("core", a.apply.ms());
  self.add("service", op.done - a.apply.end);
  const double root = op.done - op.due;
  self.add_request(root, root - covered(op.due, op.done,
                                        {{op.due, op.called},
                                         {op.called, a.write_ahead.start},
                                         {a.write_ahead.start, a.write_ahead.end},
                                         {a.apply.start, a.apply.end},
                                         {a.apply.end, op.done}}));
  order.push_back(a.write_ahead.start - op.called);
  reply_wait.push_back(op.done - a.apply.end);
}

/// Decomposes each traced request along the first replica to apply it:
/// PUTs are matched by request id, GETs by key inside the GET's interval.
void decompose_all(const std::vector<const Op*>& traced, KvCluster& c,
                   SelfTimes& self, std::vector<double>& order,
                   std::vector<double>& reply_wait, std::uint64_t* missing) {
  std::unordered_map<std::uint64_t, const ReplicaProbe::Apply*> puts;
  std::unordered_map<std::uint32_t, std::vector<const ReplicaProbe::Apply*>>
      gets;
  for (ProcessId p = 0; p < kN; ++p) {
    for (const ReplicaProbe::Apply& a : c.probe(p).writes) {
      auto [it, fresh] = puts.emplace(a.id, &a);
      if (!fresh && a.apply.end < it->second->apply.end) it->second = &a;
    }
    for (const ReplicaProbe::Apply& a : c.probe(p).reads) {
      gets[a.key].push_back(&a);
    }
  }
  for (const Op* op : traced) {
    const ReplicaProbe::Apply* found = nullptr;
    if (op->write) {
      const auto it = puts.find(op->id);
      if (it != puts.end()) found = it->second;
    } else {
      for (const ReplicaProbe::Apply* a : gets[op->key]) {
        if (a->write_ahead.start >= op->called && a->apply.end <= op->done &&
            (found == nullptr || a->apply.end < found->apply.end)) {
          found = a;
        }
      }
    }
    if (found == nullptr) {
      ++*missing;
      continue;
    }
    decompose(*op, *found, self, order, reply_wait);
  }
}

void report_missing(Report& rep, std::uint64_t missing) {
  if (missing != 0) {
    rep.notes.push_back("note: " + std::to_string(missing) +
                        " traced requests had no spans and were left out");
  }
}

}  // namespace

Report run_kv_durable(const Options& o) {
  Report rep;
  const std::string image = preload_image(o.seed);
  std::vector<double> setups;
  for (int i = 0; i + 1 < kDurableSetupSamples; ++i) {
    obs::MetricsRegistry reg;
    KvCluster fresh(common::mix_seed(o.seed, "setup", 0.0, i), image, &reg);
    setups.push_back(fresh.first_ack_ms(rep));
  }
  obs::MetricsRegistry reg;
  KvCluster c(o.seed, image, &reg);
  setups.push_back(c.first_ack_ms(rep));

  const double t0 = now_ms() + kWarmupMs;
  const double t1 = t0 + o.seconds * 1000.0;
  TraceSegments segments(o.trace, t0, o.seconds);
  DepthSampler depth(reg, kN, o.trace);
  std::vector<std::vector<Op>> logs(kDurableClients);
  std::vector<std::thread> clients;
  for (int t = 0; t < kDurableClients; ++t) {
    clients.emplace_back([&, t] {
      closed_client(c.svc(), static_cast<ProcessId>(t), o.seed,
                    common::mix_seed(o.seed, "client", 0.0, t),
                    static_cast<std::uint64_t>(t) + 1, t1, &logs[t]);
    });
  }
  segments.drive();
  for (std::thread& t : clients) t.join();
  rep.values["runtime.queue_depth_max"] = depth.stop();

  std::vector<Op> ops;
  for (const auto& log : logs) ops.insert(ops.end(), log.begin(), log.end());
  const rsm::ServiceGroup::PathStats stats = c.svc().stats();
  check_replies(rep, ops);
  if (!c.settle({0, 1, 2, 3})) rep.fail("replicas did not settle");
  c.svc().shutdown();
  if (!c.digests_equal({0, 1, 2, 3})) rep.fail("replica digests differ");
  check_final_reads(rep, *c.svc().replicas().machine(0), ops, true,
                    kKvValueBytes, o.seed);

  // One window: at about a thousand PUTs a second a shorter window leaves
  // too few samples beyond its p99.
  Windows windows(t0, o.seconds, 1);
  std::vector<double> reads, traced_commit, untraced_commit;
  std::vector<const Op*> traced_ops;
  for (const Op& op : ops) {
    rep.ops.add(op.ok);
    if (!op.ok) continue;
    windows.add_completion(op.done);
    if (op.due < t0 || op.due >= t1) continue;
    const double latency = op.done - op.due;
    if (op.write) {
      windows.add_commit(op.due, latency);
    } else {
      reads.push_back(latency);
    }
    if (op.write && segments.untraced(op.due)) untraced_commit.push_back(latency);
    if (op.write && segments.traced(op.due)) traced_commit.push_back(latency);
    if (segments.traced(op.due)) traced_ops.push_back(&op);
  }
  std::sort(reads.begin(), reads.end());
  rep.values["setup_s"] = median(setups) / 1000.0;
  windows.report(rep);
  rep.values["read_p50_ms"] = percentile(reads, 50.0).value;
  rep.values["service.read_p99_ms"] = percentile(reads, 99.0).value;

  const double main_ops = static_cast<double>(ops.size() + 1);
  SelfTimes self;
  std::vector<double> order, reply_wait;
  std::uint64_t missing = 0;
  decompose_all(traced_ops, c, self, order, reply_wait, &missing);
  report_missing(rep, missing);
  self.report(rep);
  report_overhead(rep, std::move(traced_commit), std::move(untraced_commit));
  report_p50_p99(rep, "abcast.order", std::move(order));
  report_p50_p99(rep, "service.reply_wait", std::move(reply_wait));
  LayerSamples layers;
  layers.add(c);
  layers.report(rep, main_ops);
  rep.values["recovery.recover_ms"] = c.recover_ms();
  rep.values["service.retries_per_kop"] =
      1000.0 * static_cast<double>(stats.retries) / main_ops;
  report_runtime_counters(rep, reg, main_ops);
  ProtocolCounts protocol;
  protocol.add(c.svc().replicas().cluster(), {0, 1, 2, 3});
  protocol.report(rep);
  return rep;
}

Report run_kv_failover(const Options& o) {
  Report rep;
  const int trials =
      std::max(3, static_cast<int>(o.seconds * 1000.0 / kTrialMs));
  const std::vector<ProcessId> live = {1, 2, 3};
  obs::MetricsRegistry reg;  // counters add up over the trials
  DepthSampler depth(reg, kN, o.trace);
  std::vector<double> setups, gaps, detects, switches;
  std::vector<std::vector<double>> trial_latencies;
  std::vector<double> trial_p50, trial_throughput;
  std::vector<double> traced_commit, untraced_commit;
  std::vector<double> order, reply_wait;
  double late_max = 0.0;
  double trial_ops = 0.0;
  std::uint64_t missing = 0;
  SelfTimes self;
  LayerSamples layers;
  ProtocolCounts protocol;

  for (int k = 0; k < trials; ++k) {
    // Odd trials of a traced run are traced; even ones measure overhead.
    const bool traced = o.trace && k % 2 == 1;
    common::Rng rng(common::mix_seed(o.seed, "trial", 0.0, k));
    KvCluster c(rng.next_u64(), "", &reg);
    setups.push_back(c.first_ack_ms(rep));

    const double base = now_ms();
    const double end = base + kTrialMs;
    const double crash_at =
        base + kCrashAfterMs + rng.uniform(0.0, kCrashJitterMs);
    std::array<std::vector<Planned>, kFailoverHomes.size()> plans;
    for (std::size_t h = 0; h < plans.size(); ++h) {
      double due = base;
      std::uint64_t id = h + 1;
      for (;;) {
        due += rng.exponential(1000.0 * plans.size() / kFailoverRatePerS);
        if (due >= end) break;
        const auto key = static_cast<std::uint32_t>(rng.next_below(kFailoverKeys));
        plans[h].push_back({due, key, id});
        id += plans.size();
      }
    }
    std::array<std::vector<Op>, kFailoverHomes.size()> logs;
    set_tracing(traced);
    std::vector<std::thread> clients;
    for (std::size_t h = 0; h < plans.size(); ++h) {
      clients.emplace_back([&, h] {
        open_client(c.svc(), kFailoverHomes[h], o.seed, plans[h], &logs[h]);
      });
    }

    sleep_until_ms(crash_at);
    c.svc().crash(kVictim);
    const double crashed = now_ms();
    // Failure detection, from outside: every live replica suspects the
    // victim, and every live replica's Ω names someone else.
    double detect = -1.0;
    double omega = -1.0;
    auto& cluster = c.svc().replicas().cluster();
    while ((detect < 0.0 || omega < 0.0) && now_ms() < end) {
      bool all_suspect = true;
      bool all_switched = true;
      for (const ProcessId p : live) {
        const auto& fd = cluster.node(p).failure_detector();
        all_suspect = all_suspect && fd.suspects(kVictim);
        const ProcessId leader = fd.omega().leader();
        all_switched = all_switched && leader != kVictim && leader != kNoProcess;
      }
      const double t = now_ms();
      if (detect < 0.0 && all_suspect) detect = t - crashed;
      if (omega < 0.0 && all_switched) omega = t - crashed;
      std::this_thread::sleep_for(std::chrono::microseconds(50));
    }
    sleep_until_ms(end);
    for (std::thread& t : clients) t.join();
    set_tracing(false);
    if (detect < 0.0 || omega < 0.0) rep.fail("the crash went undetected");
    detects.push_back(detect);
    switches.push_back(omega);

    std::vector<Op> ops;
    for (const auto& log : logs) ops.insert(ops.end(), log.begin(), log.end());
    check_replies(rep, ops);
    if (!c.settle(live)) rep.fail("live replicas did not settle");
    c.svc().shutdown();
    if (!c.digests_equal(live)) rep.fail("live replica digests differ");
    check_final_reads(rep, *c.svc().replicas().machine(live[0]), ops, false,
                      kFailoverValueBytes, o.seed);

    std::vector<double> replies, latencies;
    std::vector<const Op*> traced_ops;
    for (const Op& op : ops) {
      rep.ops.add(op.ok);
      late_max = std::max(late_max, op.called - op.due);
      if (!op.ok) continue;
      replies.push_back(op.done);
      const double latency = op.done - op.due;
      latencies.push_back(latency);
      (traced ? traced_commit : untraced_commit).push_back(latency);
      if (traced && op.due < end - kSettleMs) traced_ops.push_back(&op);
    }
    trial_throughput.push_back(
        static_cast<double>(std::count_if(replies.begin(), replies.end(),
                                          [end](double t) { return t < end; })) *
        1000.0 / kTrialMs);
    std::sort(latencies.begin(), latencies.end());
    trial_p50.push_back(percentile(latencies, 50.0).value);
    trial_latencies.push_back(std::move(latencies));
    gaps.push_back(failover_gap(std::move(replies), crashed, end));
    decompose_all(traced_ops, c, self, order, reply_wait, &missing);
    layers.add(c);
    protocol.add(cluster, live);
    trial_ops += static_cast<double>(ops.size() + 1);
  }
  rep.values["runtime.queue_depth_max"] = depth.stop();

  // The p99 of each group of kTrialsPerP99 trials (the last group takes
  // the remainder), then the median over groups.
  std::vector<double> group_p99;
  for (int g = 0; g + kTrialsPerP99 <= trials; g += kTrialsPerP99) {
    const int last = g + 2 * kTrialsPerP99 > trials ? trials : g + kTrialsPerP99;
    std::vector<double> pooled;
    for (int k = g; k < last; ++k) {
      pooled.insert(pooled.end(), trial_latencies[k].begin(),
                    trial_latencies[k].end());
    }
    std::sort(pooled.begin(), pooled.end());
    const Percentile p99 = percentile(pooled, 99.0);
    if (!p99.supported()) rep.fail("too few commits for a p99");
    group_p99.push_back(p99.value);
  }
  rep.values["setup_s"] = median(setups) / 1000.0;
  rep.values["commit_p50_ms"] = median(trial_p50);
  rep.values["commit_p99_ms"] = median(group_p99);
  rep.values["throughput_ops_s"] = median(trial_throughput);
  rep.values["failover_gap_ms"] = median(gaps);
  rep.values["runtime.fd_detect_ms"] = median(detects);
  rep.values["runtime.omega_switch_ms"] = median(switches);
  rep.values["load.late_max_ms"] = late_max;

  report_missing(rep, missing);
  self.report(rep);
  report_overhead(rep, std::move(traced_commit), std::move(untraced_commit));
  report_p50_p99(rep, "abcast.order", std::move(order));
  report_p50_p99(rep, "service.reply_wait", std::move(reply_wait));
  layers.report(rep, trial_ops);
  report_runtime_counters(rep, reg, trial_ops);
  protocol.report(rep);
  return rep;
}

}  // namespace zdc::perfbench

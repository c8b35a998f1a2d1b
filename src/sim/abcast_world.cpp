#include "sim/abcast_world.h"

#include <algorithm>
#include <map>
#include <set>
#include <utility>

#include "abcast/batching.h"
#include "abcast/c_abcast.h"
#include "abcast/paxos_abcast.h"
#include "common/assert.h"

namespace zdc::sim {

namespace {

/// The paper's cluster workload on the process shell: Poisson a-broadcasts
/// in, delivery histories recorded, the abcast properties checked at the end.
class AbcastWorld {
 public:
  AbcastWorld(const AbcastRunConfig& cfg, const SimAbcastFactory& factory)
      : cfg_(cfg),
        rng_(cfg.seed),
        shell_(cfg, rng_.fork(0x22),
               {[this](ProcessId p, const abcast::AppMessage& m) {
                  record_delivery(p, m);
                }}),
        workload_rng_(rng_.fork(0x33)),
        nodes_(cfg.group.n) {
    build(factory);
  }

  AbcastRunResult run();

 private:
  struct Node {
    std::vector<abcast::MsgId> history;  ///< delivery order
    std::set<abcast::MsgId> delivered;
    bool duplicate_delivery = false;
  };

  void build(const SimAbcastFactory& factory);
  void schedule_workload();
  void record_delivery(ProcessId p, const abcast::AppMessage& m);
  [[nodiscard]] bool workload_complete() const;

  const AbcastRunConfig& cfg_;
  common::Rng rng_;
  ProcessShell<abcast::AtomicBroadcast> shell_;
  common::Rng workload_rng_;
  std::vector<Node> nodes_;
  /// Processes crashed by either CrashSpec or the fault plan — such senders'
  /// messages are not owed to everyone unless actually delivered somewhere.
  std::vector<bool> ever_crashes_;

  struct Tracked {
    TimePoint broadcast_time = 0.0;
    TimePoint first_delivery = -1.0;
    TimePoint sender_delivery = -1.0;
    std::uint32_t index = 0;  ///< submission index, for warmup filtering
  };
  std::map<abcast::MsgId, Tracked> tracked_;
  /// Messages every correct process must eventually deliver: everything sent
  /// by a process that never crashes, plus everything delivered anywhere.
  std::set<abcast::MsgId> expected_;
  std::uint32_t submitted_ = 0;
};

void AbcastWorld::build(const SimAbcastFactory& factory) {
  ever_crashes_.assign(cfg_.group.n, false);
  for (const CrashSpec& c : cfg_.crashes) {
    ZDC_ASSERT_MSG(c.truncate_broadcast_index == 0 && c.restart_time < 0.0,
                   "AbcastWorld is crash-stop; no truncation or restart");
    ZDC_ASSERT(c.p < cfg_.group.n);
    ever_crashes_[c.p] = true;
  }
  for (const fault::FaultAction& a : cfg_.fault_plan.actions) {
    ZDC_ASSERT_MSG(a.kind != fault::FaultKind::kRestart,
                   "AbcastWorld is crash-stop; no restart support");
    ZDC_ASSERT_MSG(a.kind != fault::FaultKind::kFlip &&
                       a.kind != fault::FaultKind::kStateCorrupt &&
                       a.kind != fault::FaultKind::kEquivocate,
                   "AbcastWorld runs no corruption faults");
    if (a.kind == fault::FaultKind::kCrash) ever_crashes_[a.p] = true;
  }

  shell_.start_fd(cfg_.crashes);
  // Protocols are created after the FD holds its t=0 output: Paxos-Abcast
  // reads Ω in its constructor.
  shell_.build_protocols(factory);
  for (ProcessId p = 0; p < cfg_.group.n; ++p) {
    // Batching knobs: the factory signature is protocol-agnostic, so the
    // world applies them via the concrete types (defaults = legacy).
    abcast::configure_batching(shell_.protocol(p), cfg_.batching);
  }
  shell_.schedule_crashes(cfg_.crashes);
  shell_.schedule_plan(cfg_.fault_plan);
  schedule_workload();
}

void AbcastWorld::schedule_workload() {
  const double mean_gap_ms = 1000.0 / cfg_.throughput_per_s;
  TimePoint t = 1.0;  // small offset so FD initialization settles first
  for (std::uint32_t i = 0; i < cfg_.message_count; ++i) {
    t += workload_rng_.exponential(mean_gap_ms);
    const std::uint32_t index = i;
    shell_.events().at(t, [this, index] {
      // Uniform random sender among the currently-alive eligible processes
      // (paused processes cannot execute, so they cannot originate either).
      const auto eligible = [this](ProcessId p) {
        return p < shell_.size() && !shell_.crashed(p) && !shell_.paused(p);
      };
      std::vector<ProcessId> alive;
      if (cfg_.workload_senders.empty()) {
        for (ProcessId p = 0; p < shell_.size(); ++p) {
          if (eligible(p)) alive.push_back(p);
        }
      } else {
        for (ProcessId p : cfg_.workload_senders) {
          if (eligible(p)) alive.push_back(p);
        }
      }
      if (alive.empty()) return;
      const ProcessId sender =
          alive[workload_rng_.next_below(alive.size())];
      std::string payload(cfg_.payload_bytes, 'x');
      shell_.trace(TraceKind::kPropose, sender, kNoProcess,
                   "#" + std::to_string(index));
      const abcast::MsgId id =
          shell_.protocol(sender).a_broadcast(std::move(payload));
      Tracked tr;
      tr.broadcast_time = shell_.now();
      tr.index = index;
      tracked_.emplace(id, tr);
      ++submitted_;
      // The sender is alive now; if it never crashes the message is owed to
      // every correct process. Senders with a scheduled future crash (spec or
      // fault plan) are handled by the "delivered anywhere" rule in
      // record_delivery.
      if (!ever_crashes_[sender]) expected_.insert(id);
    });
  }
}

void AbcastWorld::record_delivery(ProcessId p, const abcast::AppMessage& m) {
  Node& node = nodes_[p];
  if (!node.delivered.insert(m.id).second) {
    node.duplicate_delivery = true;  // Integrity violation
    return;
  }
  node.history.push_back(m.id);
  shell_.trace(TraceKind::kDecide, p, m.id.sender,
               "s" + std::to_string(m.id.sender) + "/" +
                   std::to_string(m.id.seq));
  expected_.insert(m.id);  // agreement: once delivered anywhere, owed to all

  auto it = tracked_.find(m.id);
  if (it != tracked_.end()) {
    Tracked& tr = it->second;
    if (tr.first_delivery < 0.0) tr.first_delivery = shell_.now();
    if (m.id.sender == p) tr.sender_delivery = shell_.now();
  }
}

bool AbcastWorld::workload_complete() const {
  if (submitted_ < cfg_.message_count) return false;
  for (ProcessId p = 0; p < shell_.size(); ++p) {
    if (shell_.crashed(p)) continue;
    // delivered ⊆ expected always holds, so size equality means coverage.
    if (nodes_[p].delivered.size() < expected_.size()) return false;
  }
  return true;
}

AbcastRunResult AbcastWorld::run() {
  AbcastRunResult result;
  result.events_executed = shell_.run(cfg_.time_limit_ms, cfg_.event_limit,
                                      [this] { return workload_complete(); });
  result.duration_ms = shell_.now();

  // Latency samples (post-warmup messages that were delivered).
  const auto warmup_cutoff = static_cast<std::uint32_t>(
      cfg_.warmup_fraction * static_cast<double>(cfg_.message_count));
  obs::Histogram* latency_hist =
      cfg_.metrics == nullptr
          ? nullptr
          : &cfg_.metrics->histogram("zdc_sim_delivery_latency_ms", {});
  for (const auto& [id, tr] : tracked_) {
    if (tr.index < warmup_cutoff) continue;
    if (tr.first_delivery >= 0.0) {
      result.latency_ms.add(tr.first_delivery - tr.broadcast_time);
      // tracked_ is an ordered map, so histogram sums accumulate in a
      // deterministic order — part of the byte-identical-export contract.
      if (latency_hist != nullptr) {
        latency_hist->observe(tr.first_delivery - tr.broadcast_time);
      }
    }
    if (tr.sender_delivery >= 0.0) {
      result.sender_latency_ms.add(tr.sender_delivery - tr.broadcast_time);
    }
  }

  // Property checks over the complete histories.
  std::set<abcast::MsgId> delivered_union;
  for (Node& node : nodes_) {
    if (node.duplicate_delivery) result.integrity_ok = false;
    for (const abcast::MsgId& id : node.history) {
      if (tracked_.find(id) == tracked_.end()) result.integrity_ok = false;
      delivered_union.insert(id);
    }
  }
  result.delivered_unique = delivered_union.size();

  // Total order: pairwise prefix consistency of delivery histories.
  for (std::size_t a = 0; a < nodes_.size(); ++a) {
    for (std::size_t b = a + 1; b < nodes_.size(); ++b) {
      const auto& ha = nodes_[a].history;
      const auto& hb = nodes_[b].history;
      const std::size_t common_len = std::min(ha.size(), hb.size());
      for (std::size_t i = 0; i < common_len; ++i) {
        if (ha[i] != hb[i]) {
          result.total_order_ok = false;
          break;
        }
      }
    }
  }

  // Agreement / validity: every correct process holds every expected message.
  for (ProcessId p = 0; p < shell_.size(); ++p) {
    if (shell_.crashed(p)) continue;
    for (const abcast::MsgId& id : expected_) {
      if (nodes_[p].delivered.find(id) == nodes_[p].delivered.end()) {
        ++result.undelivered;
        result.agreement_ok = false;
      }
    }
  }

  for (ProcessId p = 0; p < shell_.size(); ++p) {
    abcast::AtomicBroadcast& protocol = shell_.protocol(p);
    protocol.finalize_metrics();
    const abcast::AbcastMetrics& m = protocol.metrics();
    result.totals.a_broadcasts += m.a_broadcasts;
    result.totals.a_deliveries += m.a_deliveries;
    result.totals.w_broadcasts += m.w_broadcasts;
    result.totals.consensus_instances += m.consensus_instances;
    result.totals.transport += m.transport;
    if (cfg_.metrics != nullptr) {
      cfg_.metrics->counter("zdc_sim_rounds_total", obs::process_label(p))
          .inc(m.consensus_instances);
    }
  }
  result.histories.reserve(nodes_.size());
  for (Node& node : nodes_) result.histories.push_back(std::move(node.history));
  return result;
}

}  // namespace

SimAbcastFactory abcast_factory_by_name(const std::string& name) {
  if (name == "c-l") {
    return [](ProcessId self, GroupParams group, abcast::AbcastHost& host,
              const fd::OmegaView& omega, const fd::SuspectView&) {
      return abcast::make_c_abcast_l(self, group, host, omega);
    };
  }
  if (name == "c-p") {
    return [](ProcessId self, GroupParams group, abcast::AbcastHost& host,
              const fd::OmegaView&, const fd::SuspectView& suspects) {
      return abcast::make_c_abcast_p(self, group, host, suspects);
    };
  }
  if (name == "wabcast") {
    return [](ProcessId self, GroupParams group, abcast::AbcastHost& host,
              const fd::OmegaView&, const fd::SuspectView&) {
      return abcast::make_wabcast(self, group, host);
    };
  }
  if (name == "paxos") {
    return [](ProcessId self, GroupParams group, abcast::AbcastHost& host,
              const fd::OmegaView& omega, const fd::SuspectView&) {
      return std::make_unique<abcast::PaxosAbcast>(self, group, host, omega);
    };
  }
  ZDC_ASSERT_MSG(false, "unknown abcast protocol name");
  return {};
}

AbcastRunResult run_abcast(const AbcastRunConfig& cfg,
                           const SimAbcastFactory& factory) {
  AbcastWorld world(cfg, factory);
  return world.run();
}

}  // namespace zdc::sim

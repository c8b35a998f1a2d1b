// One simulated process shell: the deployment both sim worlds run on.
//
// ConsensusWorld and AbcastWorld differ only in what they feed their
// protocols and what they record. Everything else lives here, once:
//
//   * the event queue, the LAN model, FdSim and the nemesis link table;
//   * reliable traffic parked while its link is cut (TCP semantics: it
//     resumes on heal), and work parked while its process is paused;
//   * crash, pause, resume and restart, and the fault plan's schedule;
//   * frame corruption, equivocation, and the crash that cuts a broadcast
//     off partway;
//   * the trace funnel and its per-(kind, process) counters.
//
// So one piece of code decides which run a seed and a plan build. The shell
// is a template over the protocol family (consensus::Consensus or
// abcast::AtomicBroadcast); a world assembles it in the order it needs
// (build_protocols / start_fd / schedule_crashes / schedule_plan) and runs it
// with its own stop condition.
//
// SequenceWorld stays separate on purpose: it runs many instances over one
// FdSim, and a fresh shell per instance would pay kCrashTracking's detection
// delay for an initial crash again in every instance, hiding the one-time
// blip that harness exists to show.
#pragma once

#include <algorithm>
#include <array>
#include <cstdint>
#include <functional>
#include <memory>
#include <string>
#include <utility>
#include <vector>

#include "common/assert.h"
#include "common/rng.h"
#include "common/types.h"
#include "fault/corrupt.h"
#include "fault/fault_plan.h"
#include "fault/link_policy.h"
#include "obs/metrics.h"
#include "obs/run_options.h"
#include "sim/event_queue.h"
#include "sim/fd_sim.h"
#include "sim/lan_model.h"
#include "sim/protocol_host.h"
#include "sim/trace.h"

namespace zdc::sim {

/// Crash injection for one process.
struct CrashSpec {
  ProcessId p = 0;
  /// Crash instant; 0 with initial=true means dead before the run starts.
  TimePoint time = 0.0;
  bool initial = false;
  /// If nonzero, instead of crashing at `time`, the process executes until its
  /// k-th broadcast (1-based), which is delivered only to `partial_targets`,
  /// and crashes immediately afterwards — the adversarial mid-broadcast crash
  /// the agreement proofs must survive.
  std::uint32_t truncate_broadcast_index = 0;
  std::vector<ProcessId> partial_targets;
  /// Crash-recovery model: if >= 0, the process restarts at this time — a
  /// fresh protocol instance is built through the factory (same host, same
  /// FD views, and crucially the same StableStorage if the factory injects
  /// one) and re-proposes. FdSim::on_restart withdraws a crash-tracking
  /// suspicion of the restarted process after the detection delay.
  double restart_time = -1.0;
};

template <class P>
class ProcessShell {
 public:
  using Output = typename ProtocolTraits<P>::Output;

  /// What the owning world adds on top of the shell.
  struct Hooks {
    /// The protocol's upcall: a decision or an a-delivery.
    std::function<void(ProcessId, const Output&)> output;
    /// Runs after p crashed (optional).
    std::function<void(ProcessId)> crashed;
    /// Runs after p's fresh incarnation was built on restart (optional).
    std::function<void(ProcessId)> restarted;
    /// Whether failure-detector output changes are traced as kFdChange.
    bool trace_fd_changes = false;
  };

  /// `lan_rng` drives the LAN model's jitter and loss draws.
  ProcessShell(const RunOptions& opts, common::Rng lan_rng, Hooks hooks)
      : group_(opts.group),
        trace_(opts.trace),
        hooks_(std::move(hooks)),
        lan_(opts.net, opts.group.n, lan_rng),
        fd_(opts.fd, opts.group.n, events_,
            [this](ProcessId p) { notify_fd_change(p); }),
        policy_(opts.group.n),
        nodes_(opts.group.n),
        blocked_(static_cast<std::size_t>(opts.group.n) * opts.group.n),
        paused_work_(opts.group.n) {
    lan_.set_link_policy(&policy_);
    for (ProcessId p = 0; p < group_.n; ++p) {
      nodes_[p].host = std::make_unique<Host>(*this, p);
    }
    // One counter per (kind, process), registered up front so the per-event
    // cost is a branch plus a relaxed fetch_add. The sim's RNG and event
    // queue are never touched, so metrics cannot perturb a seeded run.
    if (opts.metrics == nullptr) return;
    for (std::size_t k = 0; k < kind_counters_.size(); ++k) {
      for (ProcessId p = 0; p < group_.n; ++p) {
        kind_counters_[k].push_back(&opts.metrics->counter(
            kind_family(static_cast<TraceKind>(k)), obs::process_label(p)));
      }
    }
  }

  ProcessShell(const ProcessShell&) = delete;
  ProcessShell& operator=(const ProcessShell&) = delete;

  /// Builds every process's protocol. The factory must outlive the shell:
  /// a restart builds the fresh incarnation through it.
  void build_protocols(const ProtocolFactory<P>& factory) {
    factory_ = &factory;
    for (ProcessId p = 0; p < group_.n; ++p) {
      nodes_[p].protocol = factory(p, group_, *nodes_[p].host,
                                   fd_.omega_view(p), fd_.suspect_view(p));
    }
  }

  /// Marks the initially crashed processes and installs the FD's t=0
  /// output. Change notifications reach only protocols already built.
  void start_fd(const std::vector<CrashSpec>& crashes) {
    std::vector<bool> initially_crashed(group_.n, false);
    for (const CrashSpec& c : crashes) {
      ZDC_ASSERT(c.p < group_.n);
      if (c.initial) initially_crashed[c.p] = true;
    }
    for (ProcessId p = 0; p < group_.n; ++p) {
      nodes_[p].crashed = initially_crashed[p];
    }
    fd_.initialize(initially_crashed);
  }

  /// Schedules timed crashes and restarts, and arms broadcast truncations.
  void schedule_crashes(const std::vector<CrashSpec>& crashes) {
    for (const CrashSpec& c : crashes) {
      if (c.initial) continue;
      if (c.truncate_broadcast_index > 0) {
        nodes_[c.p].truncate_at = c.truncate_broadcast_index;
        nodes_[c.p].truncate_targets = c.partial_targets;
        continue;
      }
      events_.at(c.time, [this, p = c.p] { crash(p); });
      if (c.restart_time >= 0.0) {
        ZDC_ASSERT_MSG(c.restart_time > c.time,
                       "restart must come after the crash");
        events_.at(c.restart_time, [this, p = c.p] { restart(p); });
      }
    }
  }

  void schedule_plan(const fault::FaultPlan& plan) {
    for (const fault::FaultAction& a : plan.actions) {
      events_.at(a.time, [this, a] { apply_fault(a); });
    }
  }

  /// Runs events until `done()` holds after one, the queue drains, the time
  /// limit passes or the event budget is spent. Returns the events executed.
  template <class Done>
  std::uint64_t run(TimePoint time_limit, std::uint64_t event_limit,
                    Done done) {
    std::uint64_t executed = 0;
    while (executed < event_limit && !events_.empty() &&
           events_.now() <= time_limit) {
      events_.run_next();
      ++executed;
      if (done()) break;
    }
    return executed;
  }

  [[nodiscard]] std::uint32_t size() const { return group_.n; }
  [[nodiscard]] TimePoint now() const { return events_.now(); }
  EventQueue& events() { return events_; }
  P& protocol(ProcessId p) { return *nodes_[p].protocol; }
  [[nodiscard]] bool crashed(ProcessId p) const { return nodes_[p].crashed; }
  [[nodiscard]] bool paused(ProcessId p) const { return policy_.paused(p); }
  [[nodiscard]] std::uint64_t frames_corrupted() const {
    return frames_corrupted_;
  }
  [[nodiscard]] std::uint64_t equivocations() const { return equivocations_; }

  /// Runs `fn` as node p now — unless p is crashed (dropped) or paused
  /// (parked until resume). Every entry into protocol code goes through here.
  void run_on_node(ProcessId p, std::function<void()> fn) {
    if (nodes_[p].crashed) return;
    if (policy_.paused(p)) {
      paused_work_[p].push_back(std::move(fn));
      return;
    }
    // Tag assertion failures inside the handler with (node, sim time).
    detail::AssertContextScope scope(p, events_.now());
    fn();
  }

  void trace(TraceKind kind, ProcessId subject, ProcessId peer = kNoProcess,
             std::string detail = {}) {
    if (trace_ != nullptr) {
      trace_->record(events_.now(), kind, subject, peer, std::move(detail));
    }
    const auto& counters = kind_counters_[static_cast<std::size_t>(kind)];
    if (subject < counters.size()) counters[subject]->inc();
  }

 private:
  using Host = ForwardingHost<ProcessShell, P>;
  friend Host;

  struct Node {
    std::unique_ptr<Host> host;
    std::unique_ptr<P> protocol;
    bool crashed = false;
    std::uint32_t broadcasts_done = 0;
    /// Pending mid-broadcast truncation, if any.
    std::uint32_t truncate_at = 0;
    std::vector<ProcessId> truncate_targets;
  };

  /// Metric family per structured event kind: the sim half of the catalog
  /// in docs/OBSERVABILITY.md.
  static const char* kind_family(TraceKind kind) {
    switch (kind) {
      case TraceKind::kPropose: return "zdc_sim_proposals_total";
      case TraceKind::kSend: return "zdc_sim_messages_sent_total";
      case TraceKind::kDeliver: return "zdc_sim_messages_delivered_total";
      case TraceKind::kWabSend: return "zdc_sim_wab_sent_total";
      case TraceKind::kWabDeliver: return "zdc_sim_wab_delivered_total";
      case TraceKind::kDecide: return "zdc_sim_decisions_total";
      case TraceKind::kCrash: return "zdc_sim_crashes_total";
      case TraceKind::kFdChange: return "zdc_sim_fd_changes_total";
      case TraceKind::kFault: return "zdc_sim_faults_total";
    }
    return "zdc_sim_unknown_total";
  }

  // --- host calls ---

  void send(ProcessId from, ProcessId to, std::string bytes) {
    ZDC_ASSERT(to < group_.n);
    if (nodes_[from].crashed) return;
    trace(TraceKind::kSend, from, to);
    auto payload = std::make_shared<const std::string>(std::move(bytes));
    if (from == to) {
      send_local(from, std::move(payload));
      return;
    }
    const TimePoint sent = lan_.occupy_sender_cpu(from, events_.now());
    deliver(from, to, lan_.occupy_medium(sent, payload->size()), payload);
  }

  void broadcast(ProcessId from, std::string bytes) {
    Node& sender = nodes_[from];
    if (sender.crashed) return;
    ++sender.broadcasts_done;
    const bool truncated = sender.truncate_at != 0 &&
                           sender.broadcasts_done == sender.truncate_at;
    auto payload = std::make_shared<const std::string>(std::move(bytes));
    // Equivocation (duplicate-divergent-send): this broadcast also puts a
    // divergent duplicate on the wire to every remote receiver, each copy
    // corrupted differently (the flipped bit varies by receiver). With frame
    // checksums on, every duplicate is a detectable drop; the total-order
    // and agreement oracles confirm the originals still carry the run.
    const bool equivocating =
        policy_.ever_faulted() && lan_.consume_equivocation(from);
    for (ProcessId to = 0; to < group_.n; ++to) {
      if (truncated && std::find(sender.truncate_targets.begin(),
                                 sender.truncate_targets.end(),
                                 to) == sender.truncate_targets.end()) {
        continue;
      }
      trace(TraceKind::kSend, from, to);
      if (to == from) {
        send_local(from, payload);
        continue;
      }
      const TimePoint sent = lan_.occupy_sender_cpu(from, events_.now());
      const TimePoint tx_end = lan_.occupy_medium(sent, payload->size());
      deliver(from, to, tx_end, payload);
      if (equivocating) {
        ++equivocations_;
        auto divergent = std::make_shared<const std::string>(
            fault::bit_flip_copy(*payload, fault::kMiddleByte, to % 8u));
        deliver(from, to, lan_.occupy_medium(tx_end, divergent->size()),
                divergent);
      }
    }
    if (truncated) crash(from);
  }

  void w_broadcast(ProcessId from, std::uint64_t k, std::string payload) {
    if (nodes_[from].crashed) return;
    trace(TraceKind::kWabSend, from);
    // UDP multicast: one CPU cost, one medium occupancy, and independent
    // per-receiver jitter — the jitter is what produces collisions
    // (different receivers seeing different firsts) under load. The sender
    // hears its own datagram through the medium like everyone else: this
    // correlates the delivery order across *all* processes, the physical
    // basis of spontaneous order.
    auto body = std::make_shared<const std::string>(std::move(payload));
    const TimePoint sent = lan_.occupy_sender_cpu(from, events_.now());
    const TimePoint tx_end = lan_.occupy_medium(sent, body->size());
    for (ProcessId to = 0; to < group_.n; ++to) {
      if (to != from && lan_.drop_wab_datagram()) continue;
      // Best-effort datagrams on a cut or lossy link are simply gone — the
      // oracle has no retransmission (and does not need one).
      if (to != from && lan_.drop_best_effort(from, to)) continue;
      const TimePoint arrival = lan_.wab_arrival_time(tx_end) +
                                lan_.best_effort_extra_delay_ms(from, to);
      events_.at(arrival, [this, from, to, k, body] {
        run_on_node(to, [this, from, to, k, body] {
          const TimePoint handled = lan_.occupy_receiver_cpu(to, events_.now());
          events_.at(handled, [this, from, to, k, body] {
            run_on_node(to, [this, from, to, k, body] {
              trace(TraceKind::kWabDeliver, to, from);
              nodes_[to].protocol->on_w_deliver(k, from, *body);
            });
          });
        });
      });
    }
  }

  void output(ProcessId p, const Output& out) { hooks_.output(p, out); }

  // --- transport ---

  void send_local(ProcessId p, std::shared_ptr<const std::string> bytes) {
    const TimePoint sent = lan_.occupy_sender_cpu(p, events_.now());
    events_.at(lan_.local_delivery(sent), [this, p, bytes = std::move(bytes)] {
      run_on_node(p, [this, p, bytes] {
        trace(TraceKind::kDeliver, p, p);
        nodes_[p].protocol->on_message(p, *bytes);
      });
    });
  }

  void deliver(ProcessId from, ProcessId to, TimePoint tx_end,
               const std::shared_ptr<const std::string>& bytes) {
    if (lan_.link_blocked(from, to)) {
      // The connection stalls across the cut; release_unblocked resumes it.
      blocked_[static_cast<std::size_t>(from) * group_.n + to].push_back(
          bytes);
      return;
    }
    fault::CorruptSpec spec;
    // ever_faulted() keeps fault-free runs off the policy's lock entirely.
    if (policy_.ever_faulted() && lan_.consume_corruption(from, to, &spec)) {
      // Surface-then-retransmit: the corrupted frame arrives first (the
      // receiver's integrity layer sees — and drops — real garbage), and the
      // clean original follows one retransmission quantum later. The
      // reliable channel never loses data, so corruption costs latency, not
      // liveness.
      ++frames_corrupted_;
      schedule_arrival(from, to, tx_end,
                       std::make_shared<const std::string>(
                           fault::bit_flip_copy(*bytes, spec.byte, spec.bit)));
      schedule_arrival(from, to, tx_end + lan_.config().reliable_retransmit_ms,
                       bytes);
      return;
    }
    schedule_arrival(from, to, tx_end, bytes);
  }

  void schedule_arrival(ProcessId from, ProcessId to, TimePoint tx_end,
                        const std::shared_ptr<const std::string>& bytes) {
    const TimePoint arrival =
        lan_.arrival_time(tx_end) + lan_.reliable_link_penalty_ms(from, to);
    events_.at(arrival, [this, from, to, bytes] {
      run_on_node(to, [this, from, to, bytes] {
        const TimePoint handled = lan_.occupy_receiver_cpu(to, events_.now());
        events_.at(handled, [this, from, to, bytes] {
          run_on_node(to, [this, from, to, bytes] {
            trace(TraceKind::kDeliver, to, from);
            nodes_[to].protocol->on_message(from, *bytes);
          });
        });
      });
    });
  }

  /// Re-injects parked traffic whose link re-opened, in original send order.
  void release_unblocked() {
    for (ProcessId from = 0; from < group_.n; ++from) {
      for (ProcessId to = 0; to < group_.n; ++to) {
        auto& parked = blocked_[static_cast<std::size_t>(from) * group_.n + to];
        if (parked.empty() || lan_.link_blocked(from, to)) continue;
        std::vector<std::shared_ptr<const std::string>> batch;
        batch.swap(parked);
        for (const auto& bytes : batch) deliver(from, to, events_.now(), bytes);
      }
    }
  }

  void release_paused(ProcessId p) {
    if (paused_work_[p].empty()) return;
    auto work = std::make_shared<std::vector<std::function<void()>>>(
        std::move(paused_work_[p]));
    paused_work_[p] = {};
    events_.at(events_.now(), [this, p, work] {
      for (auto& fn : *work) run_on_node(p, fn);
    });
  }

  // --- failures ---

  void notify_fd_change(ProcessId p) {
    // The t=0 output may be installed before the protocols exist (the abcast
    // world builds them after it: Paxos-Abcast reads Ω in its constructor).
    if (nodes_[p].protocol == nullptr) return;
    run_on_node(p, [this, p] {
      if (hooks_.trace_fd_changes) trace(TraceKind::kFdChange, p);
      nodes_[p].protocol->on_fd_change();
    });
  }

  void crash(ProcessId p) {
    if (nodes_[p].crashed) return;
    trace(TraceKind::kCrash, p);
    nodes_[p].crashed = true;
    if (hooks_.crashed) hooks_.crashed(p);
    fd_.on_crash(p);
  }

  void restart(ProcessId p) {
    Node& node = nodes_[p];
    if (!node.crashed) return;
    trace(TraceKind::kPropose, p, kNoProcess, "restart");
    node.crashed = false;
    fd_.on_restart(p);
    // A fresh incarnation: a new protocol object (the factory re-injects any
    // durable state); the world decides what it does first.
    node.protocol = (*factory_)(p, group_, *node.host, fd_.omega_view(p),
                                fd_.suspect_view(p));
    if (hooks_.restarted) hooks_.restarted(p);
  }

  void apply_fault(const fault::FaultAction& a) {
    trace(TraceKind::kFault, a.p < group_.n ? a.p : kNoProcess, kNoProcess,
          fault::to_string(a));
    switch (a.kind) {
      case fault::FaultKind::kCrash:
        crash(a.p);
        break;
      case fault::FaultKind::kRestart:
        restart(a.p);
        break;
      case fault::FaultKind::kPause:
        fault::apply_to_policy(a, policy_);
        fd_.on_pause(a.p);
        break;
      case fault::FaultKind::kResume:
        fault::apply_to_policy(a, policy_);
        fd_.on_resume(a.p);
        release_paused(a.p);
        break;
      default:
        // Link-table edits and corruption budgets: apply, then re-inject any
        // parked traffic whose link just re-opened.
        fault::apply_to_policy(a, policy_);
        release_unblocked();
        break;
    }
  }

  GroupParams group_;
  TraceRecorder* trace_;
  Hooks hooks_;
  const ProtocolFactory<P>* factory_ = nullptr;
  EventQueue events_;
  LanModel lan_;
  FdSim fd_;
  fault::LinkPolicy policy_;
  std::vector<Node> nodes_;
  /// Reliable messages parked on a cut link (row-major (from, to)).
  std::vector<std::vector<std::shared_ptr<const std::string>>> blocked_;
  /// Work frozen while its target process is paused, flushed on resume.
  std::vector<std::vector<std::function<void()>>> paused_work_;
  std::uint64_t frames_corrupted_ = 0;
  std::uint64_t equivocations_ = 0;
  /// Counter handles indexed [kind][process]; empty when metrics are off.
  std::array<std::vector<obs::Counter*>, 9> kind_counters_;
};

}  // namespace zdc::sim

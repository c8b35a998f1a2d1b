#include "sim/consensus_world.h"

#include <algorithm>
#include <utility>

#include "common/assert.h"
#include "common/stable_storage.h"
#include "consensus/brasileiro.h"
#include "consensus/chandra_toueg.h"
#include "consensus/ef_consensus.h"
#include "consensus/fast_paxos.h"
#include "consensus/l_consensus.h"
#include "consensus/p_consensus.h"
#include "consensus/paxos.h"
#include "consensus/recovering_paxos.h"
#include "consensus/wab_consensus.h"

namespace zdc::sim {

namespace {

/// One consensus instance on the process shell: proposals in, decisions
/// recorded, the consensus properties checked at the end.
class ConsensusWorld {
 public:
  ConsensusWorld(const ConsensusRunConfig& cfg,
                 const SimConsensusFactory& factory)
      : cfg_(cfg),
        shell_(cfg, common::Rng(cfg.seed).fork(0x11),
               {[this](ProcessId p, const Value& v) { record_decision(p, v); },
                [this](ProcessId p) { on_crash(p); },
                [this](ProcessId p) {
                  shell_.protocol(p).propose(cfg_.proposals[p]);
                },
                /*trace_fd_changes=*/true}),
        outcomes_(cfg.group.n) {
    build(factory);
  }

  ConsensusRunResult run();

 private:
  void build(const SimConsensusFactory& factory);
  void record_decision(ProcessId p, const Value& v);
  void on_crash(ProcessId p);

  const ConsensusRunConfig& cfg_;
  ProcessShell<consensus::Consensus> shell_;
  std::vector<ProcessOutcome> outcomes_;
  std::size_t undecided_correct_ = 0;
  bool reincarnation_conflict_ = false;
};

void ConsensusWorld::build(const SimConsensusFactory& factory) {
  const std::uint32_t n = cfg_.group.n;
  ZDC_ASSERT_MSG(cfg_.proposals.size() == n, "need one proposal per process");
  shell_.build_protocols(factory);
  shell_.start_fd(cfg_.crashes);
  shell_.schedule_crashes(cfg_.crashes);
  // A process the spec crashes (or cuts off mid-broadcast) is faulty from
  // the start: the run does not wait for its decision.
  for (const CrashSpec& c : cfg_.crashes) outcomes_[c.p].correct = false;

  for (ProcessId p = 0; p < n; ++p) {
    if (shell_.crashed(p)) continue;
    const TimePoint when =
        p < cfg_.propose_times.size() ? cfg_.propose_times[p] : 0.0;
    shell_.events().at(when, [this, p] {
      shell_.run_on_node(p, [this, p] {
        shell_.trace(TraceKind::kPropose, p, kNoProcess, cfg_.proposals[p]);
        shell_.protocol(p).propose(cfg_.proposals[p]);
      });
    });
  }
  shell_.schedule_plan(cfg_.fault_plan);

  for (const ProcessOutcome& o : outcomes_) {
    if (o.correct) ++undecided_correct_;
  }
}

void ConsensusWorld::on_crash(ProcessId p) {
  ProcessOutcome& o = outcomes_[p];
  if (o.correct) {
    o.correct = false;
    if (!o.decided) --undecided_correct_;
  }
}

void ConsensusWorld::record_decision(ProcessId p, const Value& v) {
  ProcessOutcome& o = outcomes_[p];
  if (o.decided) {
    // A restarted incarnation deciding differently from its pre-crash self
    // is an agreement violation across incarnations.
    if (o.decision != v) reincarnation_conflict_ = true;
    return;
  }
  o.decided = true;
  o.decision = v;
  shell_.trace(TraceKind::kDecide, p, kNoProcess, v);
  const consensus::Consensus& protocol = shell_.protocol(p);
  o.steps = protocol.decision_steps();
  o.path = protocol.decision_path();
  o.decide_time = shell_.now();
  if (cfg_.metrics != nullptr) {
    // Decisions are rare; registering through the registry here (instead of
    // pre-registered handles) keeps the hot paths untouched.
    const char* path = o.path == consensus::DecisionPath::kRound ? "round"
                       : o.path == consensus::DecisionPath::kForwarded
                           ? "forwarded"
                           : "none";
    cfg_.metrics
        ->counter("zdc_sim_decisions_path_total",
                  {{"process", std::to_string(p)}, {"path", path}})
        .inc();
    cfg_.metrics->counter("zdc_sim_decision_steps_total",
                          obs::process_label(p))
        .inc(o.steps);
    cfg_.metrics->histogram("zdc_sim_decision_latency_ms", {})
        .observe(o.decide_time);
  }
  if (o.correct) {
    ZDC_ASSERT(undecided_correct_ > 0);
    --undecided_correct_;
  }
}

ConsensusRunResult ConsensusWorld::run() {
  ConsensusRunResult result;
  result.events_executed =
      shell_.run(cfg_.time_limit_ms, cfg_.event_limit,
                 [this] { return undecided_correct_ == 0; });
  result.frames_corrupted = shell_.frames_corrupted();
  result.equivocations = shell_.equivocations();
  bool first = true;
  for (ProcessId p = 0; p < shell_.size(); ++p) {
    const consensus::Consensus& protocol = shell_.protocol(p);
    result.totals += protocol.metrics();
    result.corrupt_frames_dropped += protocol.corrupt_frames_dropped();
    if (cfg_.metrics != nullptr) {
      cfg_.metrics->counter("zdc_sim_rounds_total", obs::process_label(p))
          .inc(protocol.metrics().rounds_started);
    }
    const ProcessOutcome& o = outcomes_[p];
    if (o.decided) {
      if (first || o.decide_time < result.first_decision_time) {
        result.first_decision_time = o.decide_time;
      }
      result.last_decision_time =
          std::max(result.last_decision_time, o.decide_time);
      first = false;
      if (std::find(cfg_.proposals.begin(), cfg_.proposals.end(), o.decision) ==
          cfg_.proposals.end()) {
        result.validity_ok = false;
      }
    }
  }
  result.outcomes = outcomes_;

  // Agreement across every process that decided (crashed ones included).
  const Value* seen = nullptr;
  for (const ProcessOutcome& o : result.outcomes) {
    if (!o.decided) continue;
    if (seen == nullptr) {
      seen = &o.decision;
    } else if (*seen != o.decision) {
      result.agreement_ok = false;
    }
  }

  if (reincarnation_conflict_) result.agreement_ok = false;
  result.all_correct_decided = undecided_correct_ == 0;
  return result;
}

/// The inner module Brasileiro's and Lamport's (e, f) consensus run on:
/// "paxos" or (anything else) L-Consensus, both over Ω. The view is owned by
/// the harness and outlives the protocol; the closure captures a pointer
/// (capturing the reference parameter would dangle once the outer factory
/// call returns).
consensus::ConsensusFactory inner_factory(const std::string& underlying,
                                          const fd::OmegaView& omega) {
  const fd::OmegaView* omega_ptr = &omega;
  if (underlying == "paxos") {
    return [omega_ptr](ProcessId s, GroupParams g,
                       consensus::ConsensusHost& h) {
      return std::make_unique<consensus::PaxosConsensus>(s, g, h, *omega_ptr);
    };
  }
  return [omega_ptr](ProcessId s, GroupParams g,
                     consensus::ConsensusHost& h) {
    return std::make_unique<consensus::LConsensus>(s, g, h, *omega_ptr);
  };
}

}  // namespace

SimConsensusFactory l_consensus_factory() {
  return [](ProcessId self, GroupParams group, consensus::ConsensusHost& host,
            const fd::OmegaView& omega, const fd::SuspectView&) {
    return std::make_unique<consensus::LConsensus>(self, group, host, omega);
  };
}

SimConsensusFactory p_consensus_factory() {
  return [](ProcessId self, GroupParams group, consensus::ConsensusHost& host,
            const fd::OmegaView&, const fd::SuspectView& suspects) {
    return std::make_unique<consensus::PConsensus>(self, group, host, suspects);
  };
}

SimConsensusFactory paxos_factory() {
  return [](ProcessId self, GroupParams group, consensus::ConsensusHost& host,
            const fd::OmegaView& omega, const fd::SuspectView&) {
    return std::make_unique<consensus::PaxosConsensus>(self, group, host, omega);
  };
}

SimConsensusFactory brasileiro_factory(const std::string& underlying) {
  return [underlying](ProcessId self, GroupParams group,
                      consensus::ConsensusHost& host, const fd::OmegaView& omega,
                      const fd::SuspectView&) {
    return std::make_unique<consensus::BrasileiroConsensus>(
        self, group, host, inner_factory(underlying, omega));
  };
}

SimConsensusFactory ef_consensus_factory(std::uint32_t e,
                                         const std::string& underlying) {
  return [e, underlying](ProcessId self, GroupParams group,
                         consensus::ConsensusHost& host,
                         const fd::OmegaView& omega, const fd::SuspectView&) {
    return std::make_unique<consensus::EfConsensus>(
        self, group, e, host, inner_factory(underlying, omega));
  };
}

SimConsensusFactory ct_consensus_factory() {
  return [](ProcessId self, GroupParams group, consensus::ConsensusHost& host,
            const fd::OmegaView&, const fd::SuspectView& suspects) {
    return std::make_unique<consensus::CtConsensus>(self, group, host,
                                                    suspects);
  };
}

SimConsensusFactory recovering_paxos_factory() {
  // Each process gets its own stable storage, shared by reference into the
  // protocol. For restart scenarios build the factory by hand around
  // externally owned storage (tests/recovery_test.cpp); this canned variant
  // is for no-restart runs (CLI, sweeps), where the storage's lifetime can
  // ride along in the closure.
  auto storages = std::make_shared<
      std::map<ProcessId, std::shared_ptr<common::InMemoryStableStorage>>>();
  return [storages](ProcessId self, GroupParams group,
                    consensus::ConsensusHost& host, const fd::OmegaView& omega,
                    const fd::SuspectView&) {
    auto& slot = (*storages)[self];
    if (slot == nullptr) slot = std::make_shared<common::InMemoryStableStorage>();
    return std::make_unique<consensus::RecoveringPaxosConsensus>(
        self, group, host, omega, *slot);
  };
}

SimConsensusFactory recovering_paxos_factory(StorageFactory make_storage) {
  if (!make_storage) return recovering_paxos_factory();
  // Storage is built once per process and cached: a restart rebuilds the
  // protocol object but reads back the same (surviving) storage, which is
  // the whole crash-recovery contract.
  auto storages = std::make_shared<
      std::map<ProcessId, std::shared_ptr<common::StableStorage>>>();
  return [storages, make_storage](ProcessId self, GroupParams group,
                                  consensus::ConsensusHost& host,
                                  const fd::OmegaView& omega,
                                  const fd::SuspectView&) {
    auto& slot = (*storages)[self];
    if (slot == nullptr) slot = make_storage(self);
    ZDC_ASSERT_MSG(slot != nullptr, "storage factory returned null");
    return std::make_unique<consensus::RecoveringPaxosConsensus>(
        self, group, host, omega, *slot);
  };
}

SimConsensusFactory fast_paxos_factory() {
  return [](ProcessId self, GroupParams group, consensus::ConsensusHost& host,
            const fd::OmegaView& omega, const fd::SuspectView&) {
    return std::make_unique<consensus::FastPaxosConsensus>(self, group, host,
                                                           omega);
  };
}

SimConsensusFactory wab_consensus_factory() {
  return [](ProcessId self, GroupParams group, consensus::ConsensusHost& host,
            const fd::OmegaView&, const fd::SuspectView&) {
    return std::make_unique<consensus::WabConsensus>(self, group, host);
  };
}

SimConsensusFactory consensus_factory_by_name(const std::string& name) {
  if (name == "l") return l_consensus_factory();
  if (name == "p") return p_consensus_factory();
  if (name == "paxos") return paxos_factory();
  if (name == "brasileiro-l") return brasileiro_factory("l");
  if (name == "brasileiro-paxos") return brasileiro_factory("paxos");
  if (name == "wab") return wab_consensus_factory();
  if (name == "ct") return ct_consensus_factory();
  if (name == "fast-paxos") return fast_paxos_factory();
  if (name == "rec-paxos") return recovering_paxos_factory();
  ZDC_ASSERT_MSG(false, "unknown consensus protocol name");
  return {};
}

SimConsensusFactory consensus_factory_by_name(const std::string& name,
                                              const RunOptions& opts) {
  if (name == "rec-paxos") {
    return recovering_paxos_factory(opts.storage_factory);
  }
  return consensus_factory_by_name(name);
}

ConsensusRunResult run_consensus(const ConsensusRunConfig& cfg,
                                 const SimConsensusFactory& factory) {
  ConsensusWorld world(cfg, factory);
  return world.run();
}

}  // namespace zdc::sim

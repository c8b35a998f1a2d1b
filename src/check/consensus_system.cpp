#include "check/consensus_system.h"

#include <map>
#include <memory>
#include <string>

#include "common/assert.h"
#include "common/stable_storage.h"
#include "consensus/p_consensus.h"
#include "consensus/paxos.h"
#include "consensus/recovering_paxos.h"
#include "sim/consensus_world.h"

namespace zdc::check {

/// Deterministic stable storage for protocols under check: a plain map with
/// whole-state snapshot/restore. No mutex — the checker is single-threaded
/// and the state must be copyable so kCrashDeliver can revert a dying
/// handler's puts (m < 2: the write never became durable).
class CheckStorage final : public common::StableStorage {
 public:
  void put(const std::string& key, std::string bytes) override {
    data_[key] = std::move(bytes);
    ++syncs_;
  }
  [[nodiscard]] std::optional<std::string> get(
      const std::string& key) const override {
    const auto it = data_.find(key);
    if (it == data_.end()) return std::nullopt;
    return it->second;
  }
  [[nodiscard]] std::uint64_t sync_count() const override { return syncs_; }

  [[nodiscard]] std::map<std::string, std::string> snapshot() const {
    return data_;
  }
  void restore(std::map<std::string, std::string> data) {
    data_ = std::move(data);
  }

 private:
  std::map<std::string, std::string> data_;
  std::uint64_t syncs_ = 0;
};

namespace {

/// rec-paxos under check: protocols read/write per-process CheckStorage that
/// outlives kCrashDeliver reboots. Fills `storages` (one per process) and
/// returns a factory whose closure co-owns them, so replace_protocol()
/// rebuilds an incarnation over the state its predecessor persisted.
sim::SimConsensusFactory storage_backed_factory(
    GroupParams group, std::vector<std::shared_ptr<CheckStorage>>& storages) {
  storages.clear();
  storages.reserve(group.n);
  for (ProcessId p = 0; p < group.n; ++p) {
    storages.push_back(std::make_shared<CheckStorage>());
  }
  auto shared = storages;
  return [shared](ProcessId self, GroupParams g,
                  consensus::ConsensusHost& host, const fd::OmegaView& omega,
                  const fd::SuspectView&) {
    return std::make_unique<consensus::RecoveringPaxosConsensus>(
        self, g, host, omega, *shared[self]);
  };
}

}  // namespace

sim::SimConsensusFactory consensus_net_factory(const ScenarioSpec& spec) {
  if (spec.mutant.empty()) {
    return sim::consensus_factory_by_name(spec.protocol);
  }
  if (spec.mutant == "skip-one-step-quorum") {
    ZDC_ASSERT_MSG(spec.protocol == "p",
                   "mutant skip-one-step-quorum applies to protocol \"p\"");
    return [](ProcessId self, GroupParams group, consensus::ConsensusHost& host,
              const fd::OmegaView&, const fd::SuspectView& suspects) {
      consensus::PConsensus::Mutations m;
      m.skip_one_step_quorum = true;
      return std::make_unique<consensus::PConsensus>(self, group, host,
                                                     suspects, m);
    };
  }
  if (spec.mutant == "ignore-accepted") {
    ZDC_ASSERT_MSG(spec.protocol == "paxos",
                   "mutant ignore-accepted applies to protocol \"paxos\"");
    return [](ProcessId self, GroupParams group, consensus::ConsensusHost& host,
              const fd::OmegaView& omega, const fd::SuspectView&) {
      consensus::PaxosConsensus::Mutations m;
      m.ignore_accepted = true;
      return std::make_unique<consensus::PaxosConsensus>(self, group, host,
                                                         omega, m);
    };
  }
  ZDC_ASSERT_MSG(false, "unknown mutant");
  return {};
}

ConsensusSystem::ConsensusSystem(const ScenarioSpec& spec,
                                 const AdversaryBudgets& budgets)
    : spec_(spec),
      budgets_(budgets),
      bounds_(step_bounds_for(spec.protocol)),
      factory_(spec.protocol == "rec-paxos" && spec.mutant.empty()
                   ? storage_backed_factory(spec.group, storages_)
                   : consensus_net_factory(spec)),
      net_(spec.group, factory_) {
  ZDC_ASSERT_MSG(spec_.proposals.size() == spec_.group.n,
                 "need one proposal per process");
  base_deliveries_.assign(spec_.group.n, 0);
  // Pin the initial FD outputs *before* any proposal: protocols read their
  // views in start() (Paxos checks who leads).
  for (ProcessId p = 0; p < spec_.group.n; ++p) {
    net_.fd(p).omega.value = spec_.initial_leader_of(p);
    if (spec_.initial_leader_of(p) != spec_.initial_leader_of(0)) {
      split_omega_ = true;
    }
  }
  // Checksum knob before any proposal: sealing is decided at send time, and
  // propose() sends.
  if (!spec_.frame_checksums) {
    for (ProcessId p = 0; p < spec_.group.n; ++p) {
      net_.protocol(p).set_frame_checksums(false);
    }
  }
  for (ProcessId p = 0; p < spec_.group.n; ++p) {
    net_.propose(p, spec_.proposals[p]);
  }
}

bool ConsensusSystem::delivery_matters(ProcessId to) const {
  if (net_.crashed(to)) return false;
  const consensus::Consensus& proto = net_.protocol(to);
  return !proto.decided() || proto.serves_after_decide();
}

bool ConsensusSystem::quiescent() const {
  const ProcessId n = spec_.group.n;
  for (ProcessId from = 0; from < n; ++from) {
    if (net_.pending_wab(from) > 0) return false;
    for (ProcessId to = 0; to < n; ++to) {
      if (net_.pending(from, to) > 0 && delivery_matters(to)) return false;
    }
  }
  return true;
}

std::vector<Choice> ConsensusSystem::enabled() const {
  const ProcessId n = spec_.group.n;
  const auto matters = [this](ProcessId to) { return delivery_matters(to); };
  std::vector<Choice> out;
  // Every edge with a pending frame towards a recipient that still matters.
  const auto each_edge = [&](auto fn) {
    for (ProcessId from = 0; from < n; ++from) {
      for (ProcessId to = 0; to < n; ++to) {
        if (net_.pending(from, to) > 0 && matters(to)) fn(from, to);
      }
    }
  };
  shared_.enabled(net_, budgets_, matters, [&] {
    // Crash-during-delivery: only offered for storage-backed protocols (the
    // rebooted incarnation needs durable state to recover from). m=1
    // (mid-write) is not offered: an unsynced torn write is truncated by WAL
    // recovery, so its post-state is identical to m=0 — replay still accepts
    // m=1 as an alias that exercises the revert path.
    if (!storages_.empty() && crash_restarts_used_ < budgets_.crash_restarts) {
      each_edge([&](ProcessId from, ProcessId to) {
        for (std::uint32_t m : {0u, 2u, 3u}) {
          out.push_back(Choice{ChoiceKind::kCrashDeliver, from, to, m});
        }
      });
    }
    // Corruption choice points (budgets flips/equivocations): the adversary
    // may deliver a byte-flipped copy (three byte positions) or a divergent
    // equivocation duplicate of any queued frame. The clean original always
    // stays queued — corruption never destroys messages (detectable-drop
    // model), so liveness invariants are unaffected.
    if (flips_used_ < budgets_.flips) {
      each_edge([&](ProcessId from, ProcessId to) {
        for (std::uint32_t m : {0u, 1u, 2u}) {
          out.push_back(Choice{ChoiceKind::kFlip, from, to, m});
        }
      });
    }
    if (equivocations_used_ < budgets_.equivocations) {
      each_edge([&](ProcessId from, ProcessId to) {
        out.push_back(Choice{ChoiceKind::kEquivocate, from, to, 0});
      });
    }
  }, out);
  return out;
}

bool ConsensusSystem::apply(const Choice& c) {
  const ProcessId n = spec_.group.n;
  if (NetChoices::covers(c.kind)) {
    return shared_.apply(
        net_, c, [this](ProcessId to) { return delivery_matters(to); });
  }
  switch (c.kind) {
    case ChoiceKind::kCrashDeliver: {
      // b dies while receiving the next a→b message, then reboots from
      // stable storage and re-proposes. Sub-point c.mask: 0 = on arrival
      // (handler never ran, message consumed), 1 = mid-write (handler ran,
      // puts reverted, sends dropped — state-equal to 0, replay alias only),
      // 2 = between write and send (puts kept, sends dropped), 3 = after
      // send (everything kept, only the incarnation's volatile state dies).
      // Budgets gate enabled(), not apply() — replay files must re-apply
      // recorded crash restarts under the default (all-zero) budgets.
      if (storages_.empty() || c.a >= n || c.b >= n || c.mask > 3) {
        return false;
      }
      if (net_.pending(c.a, c.b) == 0 || !delivery_matters(c.b)) return false;
      const bool run_handler = c.mask != 0;
      const bool keep_puts = c.mask >= 2;
      const bool keep_sends = c.mask == 3;
      const bool decided_before = net_.protocol(c.b).decided();
      const Value decision_before =
          decided_before ? net_.protocol(c.b).decision() : Value{};
      std::map<std::string, std::string> storage_before;
      if (run_handler && !keep_puts) {
        storage_before = storages_[c.b]->snapshot();
      }
      std::vector<std::size_t> out_before;
      if (run_handler && !keep_sends) out_before = net_.out_sizes(c.b);
      if (run_handler) {
        net_.deliver_one(c.a, c.b);
      } else {
        net_.drop_one(c.a, c.b);
      }
      if (run_handler && !keep_puts) {
        storages_[c.b]->restore(std::move(storage_before));
      }
      // The dying handler's sends never left, and its own deliver_decision
      // never reached the application either: trim both.
      if (run_handler && !keep_sends) net_.trim_out(c.b, out_before);
      // A decision that escaped to the application before the crash binds
      // every later incarnation (Uniform Agreement / Validity quantify over
      // it). For m<3 that is anything decided before this event; at m=3 the
      // handler's own decision escaped too.
      if (keep_sends ? net_.protocol(c.b).decided() : decided_before) {
        prior_decisions_.emplace(c.b, keep_sends ? net_.protocol(c.b).decision()
                                                 : decision_before);
      }
      base_deliveries_[c.b] =
          static_cast<std::uint32_t>(net_.delivered(c.b).size());
      net_.replace_protocol(c.b, factory_);
      if (!spec_.frame_checksums) {
        net_.protocol(c.b).set_frame_checksums(false);
      }
      net_.propose(c.b, spec_.proposals[c.b]);
      ++crash_restarts_used_;
      return true;
    }
    case ChoiceKind::kFlip: {
      // Byte position m ∈ {0,1,2} → first/middle/last byte of the frame.
      if (c.a >= n || c.b >= n || c.mask > 2 || !delivery_matters(c.b)) {
        return false;
      }
      const std::size_t len = net_.front_size(c.a, c.b);
      if (len == 0) return false;
      // m ∈ {0,1,2} → first/middle/last byte: byte = m·(len−1)/2.
      const std::uint64_t byte =
          (static_cast<std::uint64_t>(c.mask) * (len - 1)) / 2;
      const std::uint64_t before =
          net_.protocol(c.b).corrupt_frames_dropped();
      if (!net_.deliver_corrupt(c.a, c.b, byte, 0)) return false;
      ++flips_used_;
      ++frames_corrupted_;
      corrupt_frames_dropped_ +=
          net_.protocol(c.b).corrupt_frames_dropped() - before;
      return true;
    }
    case ChoiceKind::kEquivocate: {
      if (c.a >= n || c.b >= n || !delivery_matters(c.b)) return false;
      const std::uint64_t before =
          net_.protocol(c.b).corrupt_frames_dropped();
      // The divergent duplicate's flipped bit varies by receiver, so the
      // same equivocation towards two receivers yields different bytes.
      if (!net_.deliver_corrupt(c.a, c.b, fault::kMiddleByte, c.b % 8u)) {
        return false;
      }
      ++equivocations_used_;
      ++frames_corrupted_;
      corrupt_frames_dropped_ +=
          net_.protocol(c.b).corrupt_frames_dropped() - before;
      return true;
    }
    default: return false;  // kSubmit: abcast scenarios only
  }
}

ConsensusObs ConsensusSystem::observe() const {
  ConsensusObs obs;
  obs.group = spec_.group;
  obs.proposals = spec_.proposals;
  obs.stable = !split_omega_ && !shared_.perturbed() &&
               crash_restarts_used_ == 0;
  obs.quiescent = quiescent();
  obs.procs.resize(spec_.group.n);
  for (ProcessId p = 0; p < spec_.group.n; ++p) {
    ProcessObs& proc = obs.procs[p];
    const consensus::Consensus& proto = net_.protocol(p);
    proc.crashed = net_.crashed(p);
    proc.proposed = proto.proposed();
    proc.decided = proto.decided();
    if (proc.decided) {
      proc.decision = proto.decision();
      proc.steps = proto.decision_steps();
      proc.path = proto.decision_path();
    }
    // Integrity is per incarnation: deliveries charged to a crash-restarted
    // predecessor are subtracted (they are accounted as prior_decisions).
    proc.decision_deliveries =
        static_cast<std::uint32_t>(net_.delivered(p).size()) -
        base_deliveries_[p];
  }
  obs.prior_decisions.assign(prior_decisions_.begin(), prior_decisions_.end());
  return obs;
}

std::optional<Violation> ConsensusSystem::violation() const {
  const ConsensusObs obs = observe();
  if (auto v = check_consensus(obs, bounds_)) return v;
  if (obs.quiescent) {
    CorruptionObs corrupt;
    corrupt.frames_corrupted = frames_corrupted_;
    corrupt.corrupt_frames_dropped = corrupt_frames_dropped_;
    corrupt.checksums_enabled = spec_.frame_checksums;
    // Every corrupt-delivery here targets the sealed consensus channel.
    if (auto v = check_corruption(corrupt)) return v;
  }
  return std::nullopt;
}

}  // namespace zdc::check

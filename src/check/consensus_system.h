// System-under-check adapter wrapping ConsensusNet: one consensus instance
// across n processes, with every delivery, crash and FD flip surfaced as an
// explicit Choice.
#pragma once

#include <cstdint>
#include <memory>
#include <optional>
#include <set>
#include <utility>
#include <vector>

#include "check/direct_net.h"
#include "check/net_choices.h"
#include "check/system.h"

namespace zdc::check {

/// Per-process stable storage for storage-backed protocols under check
/// (rec-paxos): a plain deterministic key/value map with whole-state
/// snapshot/restore, which is how kCrashDeliver reverts the puts of a dying
/// handler. Defined in consensus_system.cpp.
class CheckStorage;

class ConsensusSystem final : public System {
 public:
  ConsensusSystem(const ScenarioSpec& spec, const AdversaryBudgets& budgets);

  [[nodiscard]] std::vector<Choice> enabled() const override;
  bool apply(const Choice& c) override;
  [[nodiscard]] std::optional<Violation> violation() const override;

  /// The invariant library's view of the current state (exposed for tests
  /// and the CLI's violation reports).
  [[nodiscard]] ConsensusObs observe() const;

 private:
  /// Whether delivering to `to` can change anything: alive, and either
  /// undecided or a protocol that keeps serving after deciding. Deliveries
  /// failing this are pruned from enabled() — on_message drops them anyway,
  /// so the message may equivalently stay on the wire forever.
  [[nodiscard]] bool delivery_matters(ProcessId to) const;
  [[nodiscard]] bool quiescent() const;

  const ScenarioSpec spec_;
  const AdversaryBudgets budgets_;
  const StepBounds bounds_;
  /// Non-empty iff the protocol is storage-backed (rec-paxos): one storage
  /// per process, surviving kCrashDeliver reboots. Declared before net_ and
  /// factory_ — the factory closure captures the storages.
  std::vector<std::shared_ptr<CheckStorage>> storages_;
  /// The factory that built net_'s protocols; kCrashDeliver reuses it to
  /// build the rebooted incarnation over the surviving storage.
  sim::SimConsensusFactory factory_;
  ConsensusNet net_;
  NetChoices shared_;
  /// Split initial Ω outputs: not a stable run from the start.
  bool split_omega_ = false;
  std::uint32_t crash_restarts_used_ = 0;
  std::uint32_t flips_used_ = 0;
  std::uint32_t equivocations_used_ = 0;
  /// Corruption accounting for the detectable-drop oracle
  /// (check_corruption): corrupted frames delivered vs frames the
  /// recipients' frame-CRC rejected, accumulated at apply() time so
  /// kCrashDeliver protocol replacement cannot lose counts.
  std::uint64_t frames_corrupted_ = 0;
  std::uint64_t corrupt_frames_dropped_ = 0;
  /// deliver_decision counts attributed to incarnations that crash-restarted
  /// (observe() reports the current incarnation's count).
  std::vector<std::uint32_t> base_deliveries_;
  /// Decisions delivered by pre-crash incarnations — a set (not a vector) so
  /// commuting kCrashDeliver interleavings reach identical states, which the
  /// sleep-set reduction relies on.
  std::set<std::pair<ProcessId, Value>> prior_decisions_;
};

/// The protocol factory for a scenario: the sim registry's factory for the
/// plain protocol, or a knobbed instance when `spec.mutant` is set
/// ("skip-one-step-quorum" on "p", "ignore-accepted" on "paxos"/"rec-paxos").
sim::SimConsensusFactory consensus_net_factory(const ScenarioSpec& spec);

}  // namespace zdc::check

// System-under-check adapter wrapping AbcastNet: atomic broadcast
// across n processes, with submissions, deliveries, crashes and FD flips as
// explicit Choices and the Uniform Total Order / Integrity / No-creation
// invariants checked after every transition.
#pragma once

#include <optional>
#include <vector>

#include "check/direct_net.h"
#include "check/net_choices.h"
#include "check/system.h"

namespace zdc::check {

class AbcastSystem final : public System {
 public:
  AbcastSystem(const ScenarioSpec& spec, const AdversaryBudgets& budgets);

  [[nodiscard]] std::vector<Choice> enabled() const override;
  bool apply(const Choice& c) override;
  [[nodiscard]] std::optional<Violation> violation() const override;

  [[nodiscard]] const std::vector<std::vector<abcast::AppMessage>>& histories()
      const {
    return net_.histories();
  }

 private:
  /// Index of the next unperformed submission of process `p` in the
  /// scenario's script, or nullopt. A process submits in script order — the
  /// ordering an application issuing a_broadcast calls sequentially imposes.
  [[nodiscard]] std::optional<std::uint32_t> next_submission_of(
      ProcessId p) const;

  const ScenarioSpec spec_;
  const AdversaryBudgets budgets_;
  AbcastNet net_;
  NetChoices shared_;
  std::vector<bool> performed_;  ///< per scripted submission
};

/// The abcast factory for a scenario, via sim::abcast_factory_by_name
/// ("c-l", "c-p", "wabcast", "paxos"). Mutants are not plumbed through the
/// abcast layer (the seeded mutants live in the consensus protocols).
sim::SimAbcastFactory abcast_net_factory(const ScenarioSpec& spec);

}  // namespace zdc::check

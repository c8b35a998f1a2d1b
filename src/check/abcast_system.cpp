#include "check/abcast_system.h"

#include "common/assert.h"
#include "sim/abcast_world.h"

namespace zdc::check {

sim::SimAbcastFactory abcast_net_factory(const ScenarioSpec& spec) {
  // "equivocating-sender" is a *net*-level mutant (armed on the harness in
  // the AbcastSystem constructor), so any protocol factory serves it.
  ZDC_ASSERT_MSG(spec.mutant.empty() || spec.mutant == "equivocating-sender",
                 "unknown abcast mutant");
  return sim::abcast_factory_by_name(spec.protocol);
}

AbcastSystem::AbcastSystem(const ScenarioSpec& spec,
                           const AdversaryBudgets& budgets)
    : spec_(spec), budgets_(budgets), net_(spec.group, abcast_net_factory(spec)) {
  if (spec_.mutant == "equivocating-sender") net_.arm_equivocation(0);
  performed_.assign(spec_.submissions.size(), false);
  for (ProcessId p = 0; p < spec_.group.n; ++p) {
    net_.fd(p).omega.value = spec_.initial_leader_of(p);
  }
  for (const auto& [sender, payload] : spec_.submissions) {
    (void)payload;
    ZDC_ASSERT_MSG(sender < spec_.group.n, "submission by unknown process");
  }
}

std::optional<std::uint32_t> AbcastSystem::next_submission_of(
    ProcessId p) const {
  for (std::uint32_t i = 0; i < spec_.submissions.size(); ++i) {
    if (spec_.submissions[i].first == p && !performed_[i]) return i;
  }
  return std::nullopt;
}

std::vector<Choice> AbcastSystem::enabled() const {
  std::vector<Choice> out;
  for (ProcessId p = 0; p < spec_.group.n; ++p) {
    if (net_.crashed(p)) continue;
    if (const auto i = next_submission_of(p)) {
      // b carries the submitting process for the independence relation.
      out.push_back(Choice{ChoiceKind::kSubmit, *i, p, 0});
    }
  }
  shared_.enabled(
      net_, budgets_, [this](ProcessId to) { return !net_.crashed(to); },
      [] {}, out);
  return out;
}

bool AbcastSystem::apply(const Choice& c) {
  if (NetChoices::covers(c.kind)) {
    return shared_.apply(net_, c,
                         [this](ProcessId to) { return !net_.crashed(to); });
  }
  // Crash-during-delivery needs storage-backed recovery; the abcast stack
  // runs over volatile consensus instances, so it is never enabled. The
  // corruption choice points target the sealed consensus channel; abcast
  // scenarios model corruption via the equivocating-sender mutant instead.
  if (c.kind != ChoiceKind::kSubmit) return false;
  if (c.a >= spec_.submissions.size() || performed_[c.a]) return false;
  const auto& [sender, payload] = spec_.submissions[c.a];
  if (net_.crashed(sender)) return false;
  // Keep per-process script order even under lenient replay.
  const auto next = next_submission_of(sender);
  if (!next || *next != c.a) return false;
  net_.a_broadcast(sender, payload);
  performed_[c.a] = true;
  return true;
}

std::optional<Violation> AbcastSystem::violation() const {
  return check_abcast(net_.histories(), net_.submitted());
}

}  // namespace zdc::check

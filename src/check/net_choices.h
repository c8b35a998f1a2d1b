// The choice kinds both direct-drive systems offer — deliver, oracle,
// oracle subset, crash, leader flip and suspect flip — enumerated and applied
// once. The canonical order of enabled() is part of every recorded search:
// DFS transition counts and swarm schedules depend on it.
#pragma once

#include <cstdint>
#include <vector>

#include "check/choice.h"
#include "check/direct_net.h"
#include "check/system.h"
#include "common/types.h"

namespace zdc::check {

/// The shared moves plus the budget spent on them so far.
struct NetChoices {
  std::uint32_t crashes_used = 0;
  std::uint32_t leader_flips_used = 0;
  std::uint32_t suspect_flips_used = 0;

  [[nodiscard]] static bool covers(ChoiceKind k) {
    return k == ChoiceKind::kDeliver || k == ChoiceKind::kOracle ||
           k == ChoiceKind::kOracleSubset || k == ChoiceKind::kCrash ||
           k == ChoiceKind::kLeaderFlip || k == ChoiceKind::kSuspectFlip;
  }

  /// Appends the enabled shared choices: deliveries (only to recipients for
  /// which `matters(to)` holds), oracle releases, crashes, then — after
  /// `extra()` appended the system's own adversary moves — FD flips.
  template <class P, class Matters, class Extra>
  void enabled(const DirectNet<P>& net, const AdversaryBudgets& budgets,
               Matters matters, Extra extra, std::vector<Choice>& out) const {
    const ProcessId n = net.group().n;
    for (ProcessId from = 0; from < n; ++from) {
      for (ProcessId to = 0; to < n; ++to) {
        if (net.pending(from, to) > 0 && matters(to)) {
          out.push_back(Choice{ChoiceKind::kDeliver, from, to, 0});
        }
      }
    }
    const std::uint32_t full_mask = (1u << n) - 1u;
    for (ProcessId from = 0; from < n; ++from) {
      if (net.pending_wab(from) == 0) continue;
      out.push_back(Choice{ChoiceKind::kOracle, from, 0, 0});
      if (budgets.oracle_subsets) {
        for (std::uint32_t mask = 1; mask < full_mask; ++mask) {
          out.push_back(Choice{ChoiceKind::kOracleSubset, from, 0, mask});
        }
      }
    }
    const std::uint32_t crash_cap =
        budgets.crashes < net.group().f ? budgets.crashes : net.group().f;
    if (crashes_used < crash_cap) {
      for (ProcessId p = 0; p < n; ++p) {
        if (!net.crashed(p)) out.push_back(Choice{ChoiceKind::kCrash, p, 0, 0});
      }
    }
    extra();
    if (leader_flips_used < budgets.leader_flips) {
      for (ProcessId p = 0; p < n; ++p) {
        if (net.crashed(p)) continue;
        for (ProcessId leader = 0; leader < n; ++leader) {
          // "Flip to what it already is" would be a pure stutter; skip it.
          if (net.fd(p).omega.value != leader) {
            out.push_back(Choice{ChoiceKind::kLeaderFlip, p, leader, 0});
          }
        }
      }
    }
    if (suspect_flips_used < budgets.suspect_flips) {
      for (ProcessId p = 0; p < n; ++p) {
        if (net.crashed(p)) continue;
        for (ProcessId q = 0; q < n; ++q) {
          if (q != p) out.push_back(Choice{ChoiceKind::kSuspectFlip, p, q, 0});
        }
      }
    }
  }

  /// Applies a choice covers() accepts. Returns false (state unchanged) if
  /// it is not enabled. Budgets gate enabled(), not apply(): replays
  /// re-apply recorded choices under any budgets.
  template <class P, class Matters>
  bool apply(DirectNet<P>& net, const Choice& c, Matters matters) {
    const ProcessId n = net.group().n;
    switch (c.kind) {
      case ChoiceKind::kDeliver:
        if (c.a >= n || c.b >= n || !matters(c.b)) return false;
        return net.deliver_one(c.a, c.b);
      case ChoiceKind::kOracle: return c.a < n && net.deliver_wab(c.a);
      case ChoiceKind::kOracleSubset: {
        if (c.a >= n) return false;
        const std::uint32_t full_mask = (1u << n) - 1u;
        if (c.mask == 0 || c.mask >= full_mask) return false;
        std::vector<ProcessId> targets;
        for (ProcessId p = 0; p < n; ++p) {
          if ((c.mask >> p) & 1u) targets.push_back(p);
        }
        return net.deliver_wab(c.a, &targets);
      }
      case ChoiceKind::kCrash:
        if (c.a >= n || net.crashed(c.a)) return false;
        net.crash(c.a);
        ++crashes_used;
        return true;
      case ChoiceKind::kLeaderFlip:
        if (c.a >= n || c.b >= n || net.crashed(c.a)) return false;
        if (net.fd(c.a).omega.value == c.b) return false;
        net.fd(c.a).omega.value = c.b;
        net.notify_fd_change(c.a);
        ++leader_flips_used;
        return true;
      case ChoiceKind::kSuspectFlip: {
        if (c.a >= n || c.b >= n || c.a == c.b || net.crashed(c.a)) {
          return false;
        }
        auto& flags = net.fd(c.a).suspects.flags;
        flags[c.b] = !flags[c.b];
        net.notify_fd_change(c.a);
        ++suspect_flips_used;
        return true;
      }
      default: return false;
    }
  }

  /// Whether any shared move perturbed the run's failure pattern or FD
  /// output (a crash or an FD flip) — such a run is no longer stable.
  [[nodiscard]] bool perturbed() const {
    return crashes_used + leader_flips_used + suspect_flips_used > 0;
  }
};

}  // namespace zdc::check

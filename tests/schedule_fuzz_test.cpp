// Randomized message-level schedule adversary: unlike the simulator worlds
// (which follow a timing model), this adversary picks *any* pending edge or
// oracle datagram at every step, uniformly at random — covering interleavings
// a physical network model would never produce (unbounded reordering between
// processes, arbitrarily stale deliveries, starving one edge for the whole
// run). Safety must survive every schedule; termination must hold once the
// adversary eventually delivers everything (which the drain phase forces).
#include <gtest/gtest.h>

#include <memory>
#include <string>
#include <vector>

#include "check/direct_net.h"
#include "check/invariants.h"
#include "common/rng.h"
#include "consensus/brasileiro.h"
#include "consensus/chandra_toueg.h"
#include "consensus/fast_paxos.h"
#include "consensus/l_consensus.h"
#include "consensus/p_consensus.h"
#include "consensus/paxos.h"
#include "consensus/wab_consensus.h"

#include "abcast/c_abcast.h"
#include "abcast/paxos_abcast.h"

namespace zdc::testing {
namespace {

constexpr GroupParams kGroup{4, 1};

/// One adversary step: deliver a uniformly random pending message (transport
/// edge or oracle datagram). Returns false when nothing is pending.
template <typename Net>
bool random_step(Net& net, common::Rng& rng, std::uint32_t n) {
  struct Choice {
    bool wab;
    ProcessId from;
    ProcessId to;
  };
  std::vector<Choice> choices;
  for (ProcessId from = 0; from < n; ++from) {
    for (ProcessId to = 0; to < n; ++to) {
      if (net.pending(from, to) > 0) choices.push_back({false, from, to});
    }
    if (net.pending_wab(from) > 0) choices.push_back({true, from, 0});
  }
  if (choices.empty()) return false;
  const Choice& c = choices[rng.next_below(choices.size())];
  if (c.wab) {
    // Half the time, the oracle datagram reaches only a random subset.
    if (rng.chance(0.5)) {
      std::vector<ProcessId> targets;
      for (ProcessId t = 0; t < n; ++t) {
        if (rng.chance(0.7)) targets.push_back(t);
      }
      net.deliver_wab(c.from, &targets);
    } else {
      net.deliver_wab(c.from);
    }
  } else {
    net.deliver_one(c.from, c.to);
  }
  return true;
}

/// Snapshot of the direct-drive net in the shared invariant library's terms.
/// Random (possibly wrong) FD outputs mean no stability claim, so only the
/// safety invariants (agreement/validity/integrity) apply — exactly what an
/// adversarial-schedule run is allowed to promise.
check::ConsensusObs observe(const check::ConsensusNet& net,
                            const std::vector<Value>& proposals) {
  check::ConsensusObs obs;
  obs.group = net.group();
  obs.proposals = proposals;
  obs.procs.resize(net.group().n);
  for (ProcessId p = 0; p < net.group().n; ++p) {
    obs.procs[p].proposed = true;
    obs.procs[p].decided = net.decided(p);
    if (net.decided(p)) obs.procs[p].decision = net.decision(p);
    obs.procs[p].decision_deliveries =
        static_cast<std::uint32_t>(net.delivered(p).size());
  }
  obs.stable = false;
  return obs;
}

struct NamedFactory {
  const char* name;
  sim::SimConsensusFactory factory;
  bool oracle_terminating;  ///< termination needs cooperative oracle delivery
};

std::vector<NamedFactory> protocol_zoo() {
  auto l = [](ProcessId s, GroupParams g, consensus::ConsensusHost& h,
              const fd::OmegaView& o, const fd::SuspectView&) {
    return std::unique_ptr<consensus::Consensus>(
        std::make_unique<consensus::LConsensus>(s, g, h, o));
  };
  auto p = [](ProcessId s, GroupParams g, consensus::ConsensusHost& h,
              const fd::OmegaView&, const fd::SuspectView& sv) {
    return std::unique_ptr<consensus::Consensus>(
        std::make_unique<consensus::PConsensus>(s, g, h, sv));
  };
  auto paxos = [](ProcessId s, GroupParams g, consensus::ConsensusHost& h,
                  const fd::OmegaView& o, const fd::SuspectView&) {
    return std::unique_ptr<consensus::Consensus>(
        std::make_unique<consensus::PaxosConsensus>(s, g, h, o));
  };
  auto ct = [](ProcessId s, GroupParams g, consensus::ConsensusHost& h,
               const fd::OmegaView&, const fd::SuspectView& sv) {
    return std::unique_ptr<consensus::Consensus>(
        std::make_unique<consensus::CtConsensus>(s, g, h, sv));
  };
  auto fp = [](ProcessId s, GroupParams g, consensus::ConsensusHost& h,
               const fd::OmegaView& o, const fd::SuspectView&) {
    return std::unique_ptr<consensus::Consensus>(
        std::make_unique<consensus::FastPaxosConsensus>(s, g, h, o));
  };
  auto wab = [](ProcessId s, GroupParams g, consensus::ConsensusHost& h,
                const fd::OmegaView&, const fd::SuspectView&) {
    return std::unique_ptr<consensus::Consensus>(
        std::make_unique<consensus::WabConsensus>(s, g, h));
  };
  return {{"l", l, false},      {"p", p, false},   {"paxos", paxos, false},
          {"ct", ct, false},    {"fast-paxos", fp, false},
          {"wab", wab, true}};
}

TEST(ScheduleFuzz, ConsensusSafetyUnderArbitraryInterleavings) {
  const std::vector<std::string> values = {"a", "b", "c"};
  for (const NamedFactory& nf : protocol_zoo()) {
    for (std::uint64_t seed = 1; seed <= 100; ++seed) {
      common::Rng rng(seed * 48611 + 7);
      check::ConsensusNet net(kGroup, nf.factory);
      // Random (possibly wrong, but constant) FD outputs per process: the
      // indulgent protocols may stall but must stay safe; a drain with good
      // FD output afterwards must then terminate them.
      for (ProcessId p = 0; p < 4; ++p) {
        net.fd(p).omega.value = static_cast<ProcessId>(rng.next_below(4));
        for (ProcessId q = 0; q < 4; ++q) {
          net.fd(p).suspects.flags[q] = (q != p) && rng.chance(0.2);
        }
      }
      std::vector<Value> proposals(4);
      for (ProcessId p = 0; p < 4; ++p) {
        proposals[p] = values[rng.next_below(values.size())];
        net.propose(p, proposals[p]);
      }

      // Adversarial phase: bounded random steps.
      for (int step = 0; step < 400; ++step) {
        if (!random_step(net, rng, 4)) break;
      }
      // Safety check mid-flight, via the shared invariant library: the same
      // agreement/validity/integrity predicates the model checker applies.
      if (const auto v = check::check_consensus(observe(net, proposals), {})) {
        FAIL() << nf.name << " seed " << seed << ": " << v->invariant << " — "
               << v->detail;
      }

      // Stabilization: consistent correct FD everywhere, then drain fully
      // (including cooperative oracle broadcasts).
      for (ProcessId p = 0; p < 4; ++p) {
        net.fd(p).omega.value = 0;
        net.fd(p).suspects.flags.assign(4, false);
      }
      net.notify_fd_change_all();
      for (int guard = 0; guard < 100'000; ++guard) {
        bool progressed = net.pending_total() > 0;
        net.deliver_all();
        for (ProcessId p = 0; p < 4; ++p) {
          while (net.deliver_wab(p)) progressed = true;
        }
        if (!progressed) break;
      }
      for (ProcessId p = 0; p < 4; ++p) {
        ASSERT_TRUE(net.decided(p))
            << nf.name << " did not terminate after stabilization, seed "
            << seed;
      }
      if (const auto v = check::check_consensus(observe(net, proposals), {})) {
        FAIL() << nf.name << " seed " << seed << ": " << v->invariant << " — "
               << v->detail;
      }
    }
  }
}

TEST(ScheduleFuzz, AbcastSafetyUnderArbitraryInterleavings) {
  const std::vector<std::pair<const char*, sim::SimAbcastFactory>>
      factories = {
          {"c-abcast-l",
           [](ProcessId s, GroupParams g, abcast::AbcastHost& h,
              const fd::OmegaView& o, const fd::SuspectView&) {
             return std::unique_ptr<abcast::AtomicBroadcast>(
                 abcast::make_c_abcast_l(s, g, h, o));
           }},
          {"c-abcast-p",
           [](ProcessId s, GroupParams g, abcast::AbcastHost& h,
              const fd::OmegaView&, const fd::SuspectView& sv) {
             return std::unique_ptr<abcast::AtomicBroadcast>(
                 abcast::make_c_abcast_p(s, g, h, sv));
           }},
          {"paxos-abcast",
           [](ProcessId s, GroupParams g, abcast::AbcastHost& h,
              const fd::OmegaView& o, const fd::SuspectView&) {
             return std::unique_ptr<abcast::AtomicBroadcast>(
                 std::make_unique<abcast::PaxosAbcast>(s, g, h, o));
           }},
      };

  for (const auto& [name, factory] : factories) {
    for (std::uint64_t seed = 1; seed <= 60; ++seed) {
      common::Rng rng(seed * 92821 + 3);
      check::AbcastNet net(kGroup, factory);
      // Interleave submissions with adversarial delivery.
      std::uint32_t submitted = 0;
      for (int step = 0; step < 600; ++step) {
        if (submitted < 10 && rng.chance(0.05)) {
          net.a_broadcast(static_cast<ProcessId>(rng.next_below(4)),
                          "m" + std::to_string(submitted));
          ++submitted;
        }
        random_step(net, rng, 4);
        if (step % 50 == 0) {
          ASSERT_TRUE(net.total_order_ok())
              << name << " order violated mid-run, seed " << seed;
        }
      }
      while (submitted < 10) {
        net.a_broadcast(static_cast<ProcessId>(rng.next_below(4)),
                        "m" + std::to_string(submitted));
        ++submitted;
      }
      net.settle();
      // Full uniform-abcast invariant set: total order, no duplicates, and
      // no created messages (every delivered id was really a-broadcast).
      if (const auto v = check::check_abcast(net.histories(),
                                             net.submitted())) {
        FAIL() << name << " seed " << seed << ": " << v->invariant << " — "
               << v->detail;
      }
      for (ProcessId p = 0; p < 4; ++p) {
        ASSERT_EQ(net.delivered(p).size(), 10u)
            << name << " p" << p << " seed " << seed;
      }
    }
  }
}

}  // namespace
}  // namespace zdc::testing

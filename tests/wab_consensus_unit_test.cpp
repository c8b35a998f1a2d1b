// Message-level unit tests for WabConsensus (the WABCast voting core),
// driven directly so the oracle's behaviour — cooperative or adversarial —
// is fully under test control.
#include <gtest/gtest.h>

#include <memory>
#include <string>

#include "check/direct_net.h"
#include "consensus/wab_consensus.h"

namespace zdc::testing {
namespace {

constexpr GroupParams kGroup{4, 1};

sim::SimConsensusFactory wab_factory() {
  return [](ProcessId self, GroupParams group, consensus::ConsensusHost& host,
            const fd::OmegaView&, const fd::SuspectView&) {
    return std::make_unique<consensus::WabConsensus>(self, group, host);
  };
}

void propose_all(check::ConsensusNet& net,
                 const std::vector<Value>& proposals) {
  for (ProcessId p = 0; p < proposals.size(); ++p) {
    net.propose(p, proposals[p]);
  }
}

/// Drains regular traffic and oracle datagrams with spontaneous order intact
/// (every datagram reaches everyone, in sender order).
void settle(check::ConsensusNet& net) {
  for (int guard = 0; guard < 10'000; ++guard) {
    bool progressed = false;
    if (net.pending_total() > 0) {
      net.deliver_all();
      progressed = true;
    }
    for (ProcessId p = 0; p < kGroup.n; ++p) {
      while (net.deliver_wab(p)) progressed = true;
    }
    if (!progressed) return;
  }
  FAIL() << "settle() did not quiesce";
}

TEST(WabConsensusUnit, UnanimousDecidesInOneStepWithoutOracle) {
  check::ConsensusNet net(kGroup, wab_factory());
  propose_all(net, {"v", "v", "v", "v"});
  net.deliver_all();  // votes only; no oracle traffic needed
  for (ProcessId p = 0; p < 4; ++p) {
    ASSERT_TRUE(net.decided(p)) << "p" << p;
    EXPECT_EQ(net.decision(p), "v");
    EXPECT_EQ(net.protocol(p).decision_steps(), 1u);
  }
  // The fast path consulted no oracle.
  for (ProcessId p = 0; p < 4; ++p) EXPECT_EQ(net.pending_wab(p), 0u);
}

TEST(WabConsensusUnit, DivergentProposalsRecoverViaOracle) {
  check::ConsensusNet net(kGroup, wab_factory());
  propose_all(net, {"a", "b", "a", "b"});
  net.deliver_all();  // stage 1 votes: 2-2 split, nobody decides
  for (ProcessId p = 0; p < 4; ++p) {
    EXPECT_FALSE(net.decided(p));
    // Every process moved to stage 2 and asked the oracle.
    EXPECT_EQ(net.pending_wab(p), 1u);
  }
  settle(net);  // spontaneous order: everyone sees p0's estimate first
  for (ProcessId p = 0; p < 4; ++p) {
    ASSERT_TRUE(net.decided(p)) << "p" << p;
    EXPECT_EQ(net.decision(p), net.decision(0));
  }
}

TEST(WabConsensusUnit, AdversarialOracleSplitsButNeverViolatesAgreement) {
  // Engineer a genuine estimate split after stage 1: each process evaluates
  // at its first n−f = 3 votes, and we choose the quorums so that p0/p1
  // adopt "a" while p2/p3 adopt "b".
  check::ConsensusNet net(kGroup, wab_factory());
  propose_all(net, {"a", "a", "b", "b"});
  for (ProcessId from : {0u, 1u, 2u}) net.deliver_one(from, 0);  // a,a,b
  for (ProcessId from : {0u, 1u, 3u}) net.deliver_one(from, 1);  // a,a,b
  for (ProcessId from : {2u, 3u, 0u}) net.deliver_one(from, 2);  // b,b,a
  for (ProcessId from : {2u, 3u, 1u}) net.deliver_one(from, 3);  // b,b,a
  for (ProcessId p = 0; p < 4; ++p) {
    EXPECT_FALSE(net.decided(p)) << "p" << p;
    EXPECT_EQ(net.pending_wab(p), 1u) << "stage 2 must consult the oracle";
  }

  // Collision: the oracle shows p0's "a" first to p0/p1 but p3's "b" first
  // to p2/p3 — the split persists through stage 2, yet whatever decisions
  // ever happen must agree.
  const std::vector<ProcessId> left = {0, 1};
  const std::vector<ProcessId> right = {2, 3};
  net.deliver_wab(0, &left);
  net.deliver_wab(3, &right);
  net.deliver_all();
  const Value* first_decision = nullptr;
  for (ProcessId p = 0; p < 4; ++p) {
    if (!net.decided(p)) continue;
    if (first_decision == nullptr) {
      first_decision = &net.decision(p);
    } else {
      EXPECT_EQ(net.decision(p), *first_decision) << "agreement violated";
    }
  }

  // Once the oracle behaves, everyone terminates on one value.
  settle(net);
  for (ProcessId p = 0; p < 4; ++p) {
    ASSERT_TRUE(net.decided(p)) << "p" << p;
    EXPECT_EQ(net.decision(p), net.decision(0));
  }
}

TEST(WabConsensusUnit, MajorityAdoptionForcesTheDominantValue) {
  // Three processes vote "a", one votes "b". A process observing all four
  // stage-1 votes decides "a" outright; one that advanced after seeing only
  // {a, a, b} has adopted "a" (strict majority) — so "a" is the only value
  // that can ever be decided.
  check::ConsensusNet net(kGroup, wab_factory());
  propose_all(net, {"a", "a", "a", "b"});
  // p3 advances on quorum {0, 1, 3}: a, a, b → adopts "a", stage 2.
  net.deliver_one(0, 3);
  net.deliver_one(1, 3);
  net.deliver_one(3, 3);
  EXPECT_FALSE(net.decided(3));
  // p0 sees all of {0, 1, 2}: a, a, a → one-step decision.
  net.deliver_one(0, 0);
  net.deliver_one(1, 0);
  net.deliver_one(2, 0);
  ASSERT_TRUE(net.decided(0));
  EXPECT_EQ(net.decision(0), "a");
  EXPECT_EQ(net.protocol(0).decision_steps(), 1u);

  settle(net);
  for (ProcessId p = 0; p < 4; ++p) {
    ASSERT_TRUE(net.decided(p));
    EXPECT_EQ(net.decision(p), "a");
  }
}

TEST(WabConsensusUnit, ValidityHoldsAcrossStages) {
  check::ConsensusNet net(kGroup, wab_factory());
  propose_all(net, {"a", "b", "c", "d"});
  settle(net);
  for (ProcessId p = 0; p < 4; ++p) {
    ASSERT_TRUE(net.decided(p));
    const Value& d = net.decision(p);
    EXPECT_TRUE(d == "a" || d == "b" || d == "c" || d == "d") << d;
  }
}

TEST(WabConsensusUnit, MalformedMessagesAreCountedAndIgnored) {
  check::ConsensusNet net(kGroup, wab_factory());
  propose_all(net, {"v", "v", "v", "v"});
  auto& proto = net.protocol(0);
  proto.on_message(1, common::seal_frame(""));                        // empty
  proto.on_message(1, common::seal_frame(std::string("\x07", 1)));    // unknown tag
  proto.on_message(2, common::seal_frame(std::string("\x01\x00", 2)));  // truncated vote
  EXPECT_EQ(proto.malformed_messages(), 3u);
  EXPECT_FALSE(proto.decided());
  net.deliver_all();
  EXPECT_TRUE(proto.decided());
}

}  // namespace
}  // namespace zdc::testing

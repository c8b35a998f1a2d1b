// Message-level unit tests for Fast Paxos and the (e,f) generalization —
// the fast-path and recovery mechanics driven edge by edge.
#include <gtest/gtest.h>

#include <memory>
#include <string>

#include "check/direct_net.h"
#include "consensus/ef_consensus.h"
#include "consensus/fast_paxos.h"
#include "consensus/l_consensus.h"

namespace zdc::testing {
namespace {

constexpr GroupParams kGroup{4, 1};

sim::SimConsensusFactory fast_paxos_factory() {
  return [](ProcessId self, GroupParams group, consensus::ConsensusHost& host,
            const fd::OmegaView& omega, const fd::SuspectView&) {
    return std::make_unique<consensus::FastPaxosConsensus>(self, group, host,
                                                           omega);
  };
}

sim::SimConsensusFactory ef_factory(std::uint32_t e) {
  return [e](ProcessId self, GroupParams group, consensus::ConsensusHost& host,
             const fd::OmegaView& omega, const fd::SuspectView&) {
    const fd::OmegaView* omega_ptr = &omega;
    consensus::ConsensusFactory inner =
        [omega_ptr](ProcessId s, GroupParams g, consensus::ConsensusHost& h) {
          return std::make_unique<consensus::LConsensus>(s, g, h, *omega_ptr);
        };
    return std::make_unique<consensus::EfConsensus>(self, group, e, host,
                                                    std::move(inner));
  };
}

// --- Fast Paxos mechanics ---

TEST(FastPaxosUnit, FastDecisionNeedsNoLeaderInvolvement) {
  check::ConsensusNet net(kGroup, fast_paxos_factory());
  net.set_leader_everywhere(3);  // the leader never even gets a message
  for (ProcessId p = 0; p < 4; ++p) net.propose(p, "v");
  // p1 collects three equal round-0 votes: decides, one step.
  net.deliver_one(0, 1);
  net.deliver_one(1, 1);
  net.deliver_one(2, 1);
  ASSERT_TRUE(net.decided(1));
  EXPECT_EQ(net.decision(1), "v");
  EXPECT_EQ(net.protocol(1).decision_steps(), 1u);
}

TEST(FastPaxosUnit, CoordinatedRecoveryUsesRoundZeroVotesAsPhaseOne) {
  check::ConsensusNet net(kGroup, fast_paxos_factory());
  net.set_leader_everywhere(0);
  net.propose(0, "a");
  net.propose(1, "b");
  net.propose(2, "b");
  net.propose(3, "c");
  // Leader p0 sees a non-unanimous n−f quorum of round-0 votes: it must move
  // straight to a 2a for round 1 — no 1a traffic anywhere.
  net.deliver_one(0, 0);
  net.deliver_one(1, 0);
  net.deliver_one(2, 0);
  // The leader's next outbound message exists (the 2a); deliver everything
  // and check the O4 pick: "b" is the only value with >= n−2f = 2 votes in
  // p0's quorum {a, b, b}.
  net.deliver_all();
  for (ProcessId p = 0; p < 4; ++p) {
    ASSERT_TRUE(net.decided(p)) << "p" << p;
    EXPECT_EQ(net.decision(p), "b");
  }
}

TEST(FastPaxosUnit, RecoveryPickIsForcedByAPossibleFastDecision) {
  check::ConsensusNet net(kGroup, fast_paxos_factory());
  net.set_leader_everywhere(3);
  // Globally three "x" votes exist: some learner may fast-decide "x", so any
  // recovery coordinator must pick "x" no matter its own proposal.
  net.propose(0, "x");
  net.propose(1, "x");
  net.propose(2, "x");
  net.propose(3, "y");
  // p0 fast-decides from {0,1,2}.
  net.deliver_one(0, 0);
  net.deliver_one(1, 0);
  net.deliver_one(2, 0);
  ASSERT_TRUE(net.decided(0));
  ASSERT_EQ(net.decision(0), "x");
  // Leader p3's quorum is {x, x, y} (its own vote + p0's + p1's): not
  // unanimous, so it coordinates — and O4 forces "x" (2 >= n−2f).
  net.deliver_one(3, 3);
  net.deliver_one(0, 3);
  net.deliver_one(1, 3);
  net.deliver_all();
  for (ProcessId p = 1; p < 4; ++p) {
    ASSERT_TRUE(net.decided(p)) << "p" << p;
    EXPECT_EQ(net.decision(p), "x") << "recovery contradicted a fast decision";
  }
}

TEST(FastPaxosUnit, MalformedMessagesCounted) {
  check::ConsensusNet net(kGroup, fast_paxos_factory());
  net.propose(0, "v");
  auto& proto = net.protocol(0);
  proto.on_message(1, common::seal_frame(""));
  proto.on_message(1, common::seal_frame(std::string("\x01\x05", 2)));  // truncated vote
  proto.on_message(1, common::seal_frame(std::string("\x1f", 1)));      // unknown tag
  EXPECT_EQ(proto.malformed_messages(), 3u);
}

// --- (e,f) mechanics ---

TEST(EfUnit, ArmedFastPathFiresLate) {
  // n=6, e=2, f=1: fast threshold n−e = 4, quorum n−f = 5. A process commits
  // its fallback at the 5th vote but must still decide fast when the 4th
  // equal value shows up in a later message.
  const GroupParams group{6, 1};
  check::ConsensusNet net(group, ef_factory(2));
  net.set_leader_everywhere(0);
  net.propose(0, "w");
  net.propose(1, "w");
  net.propose(2, "w");
  net.propose(3, "w");
  net.propose(4, "z");
  net.propose(5, "z");
  // p5 receives 5 votes: w,w,w,z,z — no 4 equal yet, fallback committed.
  net.deliver_one(0, 5);
  net.deliver_one(1, 5);
  net.deliver_one(2, 5);
  net.deliver_one(4, 5);
  net.deliver_one(5, 5);
  EXPECT_FALSE(net.decided(5));
  // The 6th vote is the 4th "w": the armed fast path fires, 1 step.
  net.deliver_one(3, 5);
  ASSERT_TRUE(net.decided(5));
  EXPECT_EQ(net.decision(5), "w");
  EXPECT_EQ(net.protocol(5).decision_steps(), 1u);
  // Everyone else converges on the same value.
  net.deliver_all();
  for (ProcessId p = 0; p < 6; ++p) {
    ASSERT_TRUE(net.decided(p)) << "p" << p;
    EXPECT_EQ(net.decision(p), "w");
  }
}

TEST(EfUnit, FallbackProposalIsForcedByPossibleFastDecision) {
  // n=4, e=1, f=1 (Brasileiro's point): fast threshold 3. p3 commits its
  // fallback from quorum {v, v, u}: v holds n−e−f = 2 slots, so the inner
  // proposal must be v even though p3 proposed u.
  check::ConsensusNet net(kGroup, ef_factory(1));
  net.set_leader_everywhere(0);
  net.propose(0, "v");
  net.propose(1, "v");
  net.propose(2, "v");
  net.propose(3, "u");
  net.deliver_one(0, 3);
  net.deliver_one(1, 3);
  net.deliver_one(3, 3);
  EXPECT_FALSE(net.decided(3));
  net.deliver_all();
  for (ProcessId p = 0; p < 4; ++p) {
    ASSERT_TRUE(net.decided(p));
    EXPECT_EQ(net.decision(p), "v");
  }
}

TEST(EfUnit, InnerTrafficBufferedUntilFallbackCommits) {
  check::ConsensusNet net(kGroup, ef_factory(1));
  net.set_leader_everywhere(0);
  net.propose(0, "a");
  // An inner-module frame arrives before p0's first round closed: it must be
  // buffered (not crash, not leak into the unstarted inner module).
  common::Encoder enc;
  enc.put_u8(2);  // kInnerTag
  enc.put_raw("garbage-inner-bytes");
  net.protocol(0).on_message(1, common::seal_frame(enc.bytes()));
  EXPECT_FALSE(net.decided(0));
  // The run still completes normally.
  net.propose(1, "b");
  net.propose(2, "c");
  net.propose(3, "d");
  net.deliver_all();
  for (ProcessId p = 0; p < 4; ++p) {
    ASSERT_TRUE(net.decided(p));
    EXPECT_EQ(net.decision(p), net.decision(0));
  }
}

}  // namespace
}  // namespace zdc::testing

// Message-level unit tests for L-Consensus and P-Consensus, driven directly:
// the algorithm-listing behaviours that whole-run tests cannot pin down.
#include <gtest/gtest.h>

#include <memory>
#include <string>

#include "check/direct_net.h"
#include "consensus/l_consensus.h"
#include "consensus/p_consensus.h"

namespace zdc::testing {
namespace {

constexpr GroupParams kGroup{4, 1};

sim::SimConsensusFactory l_factory() {
  return [](ProcessId self, GroupParams group, consensus::ConsensusHost& host,
            const fd::OmegaView& omega, const fd::SuspectView&) {
    return std::make_unique<consensus::LConsensus>(self, group, host, omega);
  };
}

sim::SimConsensusFactory p_factory() {
  return [](ProcessId self, GroupParams group, consensus::ConsensusHost& host,
            const fd::OmegaView&, const fd::SuspectView& suspects) {
    return std::make_unique<consensus::PConsensus>(self, group, host, suspects);
  };
}

// --- L-Consensus: Algorithm 1 line by line ---

TEST(LConsensusUnit, Line2WaitsForQuorum) {
  check::ConsensusNet net(kGroup, l_factory());
  net.set_leader_everywhere(0);
  for (ProcessId p = 0; p < 4; ++p) net.propose(p, "v");
  // Two round-1 messages (leader included) are not n−f = 3: p3 must wait.
  net.deliver_one(0, 3);
  net.deliver_one(1, 3);
  EXPECT_FALSE(net.decided(3));
  net.deliver_one(2, 3);
  EXPECT_TRUE(net.decided(3));  // line 4: 3 equal values naming the leader
  EXPECT_EQ(net.protocol(3).decision_steps(), 1u);
}

TEST(LConsensusUnit, Line3WaitsForLeaderMessage) {
  check::ConsensusNet net(kGroup, l_factory());
  net.set_leader_everywhere(0);
  for (ProcessId p = 0; p < 4; ++p) net.propose(p, "v");
  // A full quorum *without* the leader's message must keep waiting (line 3).
  net.deliver_one(1, 3);
  net.deliver_one(2, 3);
  net.deliver_one(3, 3);
  EXPECT_FALSE(net.decided(3));
  net.deliver_one(0, 3);
  EXPECT_TRUE(net.decided(3));
}

TEST(LConsensusUnit, Line3LeaderChangeUnblocks) {
  check::ConsensusNet net(kGroup, l_factory());
  net.set_leader_everywhere(0);
  for (ProcessId p = 0; p < 4; ++p) net.propose(p, "v");
  net.deliver_one(1, 3);
  net.deliver_one(2, 3);
  net.deliver_one(3, 3);
  ASSERT_FALSE(net.decided(3));
  // Ω at p3 moves away from the silent leader: the "∨ ld != Ω.leader"
  // disjunct lets p3 finish the round via line 9 (3 equal values) — but it
  // may not *decide* (line 4 needs the leader), so it advances to round 2.
  net.fd(3).omega.value = 1;
  net.notify_fd_change(3);
  EXPECT_FALSE(net.decided(3));
  auto& l3 = static_cast<consensus::LConsensus&>(net.protocol(3));
  EXPECT_EQ(l3.current_round(), 2u);
}

TEST(LConsensusUnit, Line7AdoptsLeaderValue) {
  check::ConsensusNet net(kGroup, l_factory());
  net.set_leader_everywhere(0);
  net.propose(0, "lead");
  net.propose(1, "x");
  net.propose(2, "y");
  net.propose(3, "z");
  // p3 completes round 1 from {p0, p1, p2}: no n−f equal values, majority
  // names leader p0 → est := "lead" (line 7). Round 2 then decides "lead".
  net.deliver_all();
  for (ProcessId p = 0; p < 4; ++p) {
    ASSERT_TRUE(net.decided(p));
    EXPECT_EQ(net.decision(p), "lead");
    EXPECT_EQ(net.protocol(p).decision_steps(), 2u);
  }
}

TEST(LConsensusUnit, StaleRoundMessagesIgnored) {
  check::ConsensusNet net(kGroup, l_factory());
  net.set_leader_everywhere(0);
  for (ProcessId p = 0; p < 4; ++p) net.propose(p, "v");
  net.deliver_all();
  ASSERT_TRUE(net.decided(0));
  const auto decided_value = net.decision(0);
  // Replay a round-1 PROP after the decision: must be inert.
  common::Encoder enc;
  enc.put_u8(1);
  enc.put_u64(1);
  enc.put_string("other");
  enc.put_u32(0);
  net.protocol(0).on_message(2, common::seal_frame(enc.bytes()));
  EXPECT_EQ(net.decision(0), decided_value);
}

TEST(LConsensusUnit, MalformedMessagesCounted) {
  check::ConsensusNet net(kGroup, l_factory());
  net.propose(0, "v");
  auto& proto = net.protocol(0);
  proto.on_message(1, common::seal_frame(""));
  proto.on_message(1, common::seal_frame(std::string("\x01\x01", 2)));  // truncated PROP
  proto.on_message(1, common::seal_frame(std::string("\x09zzzz", 5)));   // unknown tag
  proto.on_message(9, "from out-of-range process");      // bad sender id
  // A frame whose seal fails is a corrupt drop, not a malformed message.
  proto.on_message(1, "unsealed garbage");
  EXPECT_EQ(proto.malformed_messages(), 4u);
  EXPECT_EQ(proto.corrupt_frames_dropped(), 1u);
  EXPECT_FALSE(proto.decided());
}

// --- P-Consensus: Algorithm 2 line by line ---

TEST(PConsensusUnit, Line3DecidesOnQuorumOfEquals) {
  check::ConsensusNet net(kGroup, p_factory());
  for (ProcessId p = 0; p < 4; ++p) net.propose(p, "v");
  net.deliver_one(0, 2);
  net.deliver_one(1, 2);
  EXPECT_FALSE(net.decided(2));
  net.deliver_one(3, 2);
  EXPECT_TRUE(net.decided(2));
  EXPECT_EQ(net.protocol(2).decision_steps(), 1u);
}

TEST(PConsensusUnit, Line6WaitsForTheFrozenQuorum) {
  check::ConsensusNet net(kGroup, p_factory());
  net.propose(0, "a");
  net.propose(1, "b");
  net.propose(2, "c");
  net.propose(3, "d");
  // p3 gets n−f = 3 divergent values from {p1, p2, p3}: no decision, and
  // Q = {p0, p1, p2} (first three non-suspected) — p0's message is missing,
  // so p3 must keep waiting at line 6.
  net.deliver_one(1, 3);
  net.deliver_one(2, 3);
  net.deliver_one(3, 3);
  auto& p3 = static_cast<consensus::PConsensus&>(net.protocol(3));
  EXPECT_EQ(p3.current_round(), 1u);
  // p0's message completes the quorum: line 12 picks the estimate of the
  // smallest-index member (p0, "a") and the round advances.
  net.deliver_one(0, 3);
  EXPECT_EQ(p3.current_round(), 2u);
  EXPECT_FALSE(net.decided(3));
}

TEST(PConsensusUnit, SuspicionReleasesTheQuorumWait) {
  check::ConsensusNet net(kGroup, p_factory());
  net.propose(0, "a");
  net.propose(1, "b");
  net.propose(2, "c");
  net.propose(3, "d");
  net.deliver_one(1, 3);
  net.deliver_one(2, 3);
  net.deliver_one(3, 3);
  auto& p3 = static_cast<consensus::PConsensus&>(net.protocol(3));
  ASSERT_EQ(p3.current_round(), 1u);
  // ◇P at p3 suspects p0: the line-6 wait drops p0 and the round completes
  // through the incomplete-quorum branch (lines 13-15).
  net.fd(3).suspects.flags[0] = true;
  net.notify_fd_change(3);
  EXPECT_EQ(p3.current_round(), 2u);
}

TEST(PConsensusUnit, Line9ForcesThePivotalValue) {
  check::ConsensusNet net(kGroup, p_factory());
  net.propose(0, "w");
  net.propose(1, "v");
  net.propose(2, "v");
  net.propose(3, "v");
  // p0 completes round 1 from Q = {p0, p1, p2}: values w, v, v — v appears
  // n−2f = 2 times, so line 9 forces est := v; round 2 decides v.
  net.deliver_all();
  for (ProcessId p = 0; p < 4; ++p) {
    ASSERT_TRUE(net.decided(p));
    EXPECT_EQ(net.decision(p), "v");
  }
}

TEST(PConsensusUnit, DecideMessagePreProposeIsHonored) {
  check::ConsensusNet net(kGroup, p_factory());
  // p0..p2 run to a decision while p3 has not proposed at all.
  net.propose(0, "v");
  net.propose(1, "v");
  net.propose(2, "v");
  for (ProcessId from = 0; from < 3; ++from) {
    for (ProcessId to = 0; to < 3; ++to) net.deliver_edge(from, to);
  }
  ASSERT_TRUE(net.decided(0));
  // The DECIDE flood reaches p3 before it proposes: the hardened task T2
  // adopts it immediately (see Consensus::on_message documentation).
  net.deliver_edge(0, 3);
  EXPECT_TRUE(net.decided(3));
  EXPECT_EQ(net.decision(3), "v");
  EXPECT_EQ(net.protocol(3).decision_path(), consensus::DecisionPath::kForwarded);
}

TEST(PConsensusUnit, DuplicatePropsFromOneSenderCountOnce) {
  check::ConsensusNet net(kGroup, p_factory());
  net.propose(3, "v");
  net.deliver_edge(3, 3);  // p3's own round-1 PROP
  common::Encoder enc;
  enc.put_u8(1);
  enc.put_u64(1);
  enc.put_string("v");
  const std::string prop = common::seal_frame(enc.bytes());
  // The same sender's round-1 PROP three times must not fake a quorum.
  net.protocol(3).on_message(0, prop);
  net.protocol(3).on_message(0, prop);
  net.protocol(3).on_message(0, prop);
  EXPECT_FALSE(net.decided(3));
  net.protocol(3).on_message(1, prop);
  EXPECT_TRUE(net.decided(3));  // self + p0 + p1 = genuine quorum
}

}  // namespace
}  // namespace zdc::testing

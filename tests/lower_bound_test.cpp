// Executable rendition of the paper's Section 4 lower bound (Theorem 1 /
// Figure 1): no leader-based protocol can be one-step *and* zero-degrading.
//
// The proof's engine is a run where one process one-step-decides from a
// quorum that excludes the leader while the others, seeing only n−2f copies
// of the pivotal value, would have to adopt the leader's conflicting value to
// be zero-degrading. We build exactly that message pattern with the
// direct-drive harness (n=4, f=1, leader p0, proposals 0,1,1,1):
//
//   p3's first-round quorum: {p1, p2, p3}  → sees 1,1,1
//   p0/p1/p2's quorum:       {p0, p1, p2}  → see 0,1,1 (only n−2f ones)
//
//  * A naive "one-step + adopt-the-leader" combination decides 1 at p3 and 0
//    at the others — the agreement violation the theorem predicts.
//  * L-Consensus escapes by *waiting for the leader's message* (it is not
//    one-step here: p3 blocks) — trading Def. 1 for zero-degradation.
//  * P-Consensus escapes because the consistent quorum forces everyone onto
//    the pivotal value (it is one-step here and stays safe) — trading Ω for ◇P.
#include <gtest/gtest.h>

#include <map>
#include <string>

#include "check/direct_net.h"
#include "common/codec.h"
#include "consensus/consensus.h"
#include "consensus/l_consensus.h"
#include "consensus/p_consensus.h"

namespace zdc::testing {
namespace {

/// The strawman from the paper's Sec. 4 intro: Brasileiro's first round glued
/// to leader-value adoption. One-step and zero-degrading — and unsafe.
class NaiveCombinedConsensus final : public consensus::Consensus {
 public:
  NaiveCombinedConsensus(ProcessId self, GroupParams group,
                         consensus::ConsensusHost& host,
                         const fd::OmegaView& omega)
      : Consensus(self, group, host), omega_(omega) {}

  [[nodiscard]] std::string name() const override { return "Naive-Combined"; }

 protected:
  void start(Value proposal) override {
    est_ = std::move(proposal);
    round_ = 1;
    send_round();
  }

  void handle_message(ProcessId from, std::uint8_t tag,
                      common::Decoder& dec) override {
    if (tag != 1) return;
    const Round r = dec.get_u64();
    Value v = dec.get_string();
    if (!dec.done() || r < round_) return;
    auto& received = rounds_[r];
    received.emplace(from, std::move(v));
    // Evaluate exactly once, at the n−f-th message of the current round.
    if (r != round_ || received.size() != group_.quorum()) return;

    std::map<Value, std::uint32_t> counts;
    for (const auto& [p, val] : received) ++counts[val];
    for (const auto& [val, c] : counts) {
      if (c >= group_.quorum()) {
        decide_from_round(val, static_cast<std::uint32_t>(round_));
        return;
      }
    }
    // Zero-degradation attempt: adopt the leader's value whenever available,
    // unconditionally. (This is the fatal step.)
    const auto leader_it = received.find(omega_.leader());
    if (leader_it != received.end()) est_ = leader_it->second;
    rounds_.erase(r);
    ++round_;
    send_round();
  }

 private:
  void send_round() {
    common::Encoder enc;
    enc.put_u8(1);
    enc.put_u64(round_);
    enc.put_string(est_);
    broadcast_counted(enc.take());
  }

  const fd::OmegaView& omega_;
  Round round_ = 0;
  Value est_;
  std::map<Round, std::map<ProcessId, Value>> rounds_;
};

constexpr GroupParams kGroup{4, 1};

sim::SimConsensusFactory naive_factory() {
  return [](ProcessId self, GroupParams group, consensus::ConsensusHost& host,
            const fd::OmegaView& omega, const fd::SuspectView&) {
    return std::make_unique<NaiveCombinedConsensus>(self, group, host, omega);
  };
}

/// Feeds each process the paper's first-round quorum:
/// p3 ← {p1,p2,p3}; p0,p1,p2 ← {p0,p1,p2}.
void deliver_split_round_one(check::ConsensusNet& net) {
  for (ProcessId from : {1u, 2u, 3u}) net.deliver_one(from, 3);
  for (ProcessId to : {0u, 1u, 2u}) {
    for (ProcessId from : {0u, 1u, 2u}) net.deliver_one(from, to);
  }
}

TEST(LowerBound, NaiveOneStepZeroDegradingViolatesAgreement) {
  check::ConsensusNet net(kGroup, naive_factory());
  net.set_leader_everywhere(0);
  net.propose(0, "0");
  net.propose(1, "1");
  net.propose(2, "1");
  net.propose(3, "1");

  deliver_split_round_one(net);

  // p3 one-step-decided the pivotal value.
  ASSERT_TRUE(net.decided(3));
  EXPECT_EQ(net.decision(3), "1");
  // The others adopted the leader's 0 and moved to round 2.
  EXPECT_FALSE(net.decided(0));

  // Round 2 among {p0,p1,p2} — p3's DECIDE flood is still in flight, which an
  // asynchronous network permits.
  for (ProcessId to : {0u, 1u, 2u}) {
    for (ProcessId from : {0u, 1u, 2u}) net.deliver_edge(from, to);
  }
  ASSERT_TRUE(net.decided(0));
  ASSERT_TRUE(net.decided(1));
  EXPECT_EQ(net.decision(0), "0");
  EXPECT_EQ(net.decision(1), "0");

  // Agreement is violated: 0 vs 1 — the theorem's conclusion.
  EXPECT_NE(net.decision(0), net.decision(3));
}

TEST(LowerBound, LConsensusBlocksInsteadOfDecidingOneStep) {
  check::ConsensusNet net(kGroup, [](ProcessId self, GroupParams group,
                           consensus::ConsensusHost& host,
                           const fd::OmegaView& omega, const fd::SuspectView&) {
    return std::make_unique<consensus::LConsensus>(self, group, host, omega);
  });
  net.set_leader_everywhere(0);
  net.propose(0, "0");
  net.propose(1, "1");
  net.propose(2, "1");
  net.propose(3, "1");

  deliver_split_round_one(net);

  // p3 holds n−f equal values but has *no message from the leader*: line 3 of
  // Algorithm 1 keeps it waiting — L-Consensus refuses the one-step decision
  // that would doom agreement (it is not one-step, as Theorem 1 demands).
  EXPECT_FALSE(net.decided(3));

  // Once the full run plays out, everyone agrees (on the leader's value, as
  // zero-degradation dictates in this stable run).
  net.deliver_all();
  ASSERT_TRUE(net.decided(0) && net.decided(1) && net.decided(2) &&
              net.decided(3));
  EXPECT_EQ(net.decision(3), net.decision(0));
  EXPECT_EQ(net.decision(0), "0");
}

TEST(LowerBound, PConsensusDecidesOneStepAndStaysSafe) {
  check::ConsensusNet net(kGroup, [](ProcessId self, GroupParams group,
                           consensus::ConsensusHost& host, const fd::OmegaView&,
                           const fd::SuspectView& suspects) {
    return std::make_unique<consensus::PConsensus>(self, group, host, suspects);
  });
  net.propose(0, "0");
  net.propose(1, "1");
  net.propose(2, "1");
  net.propose(3, "1");

  deliver_split_round_one(net);

  // p3 decides in one step — P-Consensus *is* one-step (Def. 1), no FD
  // consultation needed on this path.
  ASSERT_TRUE(net.decided(3));
  EXPECT_EQ(net.decision(3), "1");

  // The consistent quorum {p0,p1,p2} contains n−2f = 2 copies of the pivotal
  // value, which algorithm line 9 forces every non-decider to adopt: the
  // mechanism that lets ◇P evade the Ω lower bound.
  net.deliver_all();
  for (ProcessId p = 0; p < 4; ++p) {
    ASSERT_TRUE(net.decided(p));
    EXPECT_EQ(net.decision(p), "1");
  }
}

}  // namespace
}  // namespace zdc::testing

// Message-level unit tests for the Multi-Paxos sequencer: slot ordering,
// client routing, leader fail-over with slot recovery and gap filling, and
// duplicate suppression.
#include <gtest/gtest.h>

#include <memory>
#include <string>

#include "abcast/paxos_abcast.h"
#include "check/direct_net.h"

namespace zdc::testing {
namespace {

constexpr GroupParams kGroup{3, 1};

sim::SimAbcastFactory paxos_factory() {
  return [](ProcessId self, GroupParams group, abcast::AbcastHost& host,
            const fd::OmegaView& omega, const fd::SuspectView&) {
    return std::make_unique<abcast::PaxosAbcast>(self, group, host, omega);
  };
}

TEST(PaxosAbcastUnit, LeaderSequencesOwnSubmission) {
  check::AbcastNet net(kGroup, paxos_factory());
  const abcast::MsgId id = net.a_broadcast(0, "x");  // p0 is the leader
  net.settle();
  for (ProcessId p = 0; p < 3; ++p) {
    ASSERT_EQ(net.delivered(p).size(), 1u) << "p" << p;
    EXPECT_EQ(net.delivered(p)[0].id, id);
  }
}

TEST(PaxosAbcastUnit, NonLeaderSubmissionRoutesThroughLeader) {
  check::AbcastNet net(kGroup, paxos_factory());
  net.a_broadcast(2, "y");
  // The client message sits on the 2→0 edge; nothing is sequenced yet.
  EXPECT_EQ(net.pending(2, 0), 1u);
  EXPECT_EQ(net.pending(2, 1), 0u);
  net.settle();
  for (ProcessId p = 0; p < 3; ++p) {
    EXPECT_EQ(net.delivered(p).size(), 1u);
  }
}

TEST(PaxosAbcastUnit, SlotsDeliverInOrderEvenWhenDecidedOutOfOrder) {
  check::AbcastNet net(kGroup, paxos_factory());
  net.a_broadcast(0, "slot1");
  // Let the leader assign slot 1 (it handles its own client message
  // immediately) and broadcast 2a; then submit the next before any 2b flows.
  net.a_broadcast(0, "slot2");
  // Deliver everything: acceptors may process 2a(2) before 2a(1) depending
  // on edge order, but a-delivery must follow slot order.
  net.settle();
  for (ProcessId p = 0; p < 3; ++p) {
    ASSERT_EQ(net.delivered(p).size(), 2u);
    EXPECT_EQ(net.delivered(p)[0].payload, "slot1");
    EXPECT_EQ(net.delivered(p)[1].payload, "slot2");
  }
  EXPECT_TRUE(net.total_order_ok());
}

TEST(PaxosAbcastUnit, FailoverRecoversAcceptedSlots) {
  check::AbcastNet net(kGroup, paxos_factory());
  net.a_broadcast(0, "pre-crash");
  net.settle();
  for (ProcessId p = 0; p < 3; ++p) ASSERT_EQ(net.delivered(p).size(), 1u);

  // Leader p0 accepts a new batch into slot 2 but crashes before any 2b
  // reaches a majority: drop everything p0 queued after the partial work.
  net.a_broadcast(0, "in-flight");
  // p0's 2a sits on edges; deliver it only to p1 (a minority accepted).
  ASSERT_TRUE(net.deliver_one(0, 1));
  net.crash(0);
  net.drop_edge(0, 1);
  net.drop_edge(0, 2);

  // Ω moves to p1 everywhere; the new leader runs phase 1 and re-proposes
  // what p1 accepted, so "in-flight" survives the crash.
  net.set_leader_everywhere(1);
  net.notify_fd_change_all();
  net.settle();
  for (ProcessId p = 1; p < 3; ++p) {
    ASSERT_EQ(net.delivered(p).size(), 2u) << "p" << p;
    EXPECT_EQ(net.delivered(p)[1].payload, "in-flight");
  }
  EXPECT_TRUE(net.total_order_ok());
}

TEST(PaxosAbcastUnit, ClientResendAfterFailoverIsDeduplicated) {
  check::AbcastNet net(kGroup, paxos_factory());
  // p2's submission reaches the leader, which sequences it fully.
  const abcast::MsgId id = net.a_broadcast(2, "once");
  net.settle();
  for (ProcessId p = 0; p < 3; ++p) ASSERT_EQ(net.delivered(p).size(), 1u);

  // A leader change triggers p2 to re-send its (already delivered) message;
  // Integrity demands it is not delivered twice.
  net.set_leader_everywhere(1);
  net.notify_fd_change_all();
  net.settle();
  for (ProcessId p = 0; p < 3; ++p) {
    EXPECT_EQ(net.delivered(p).size(), 1u) << "duplicate delivery at p" << p;
    EXPECT_EQ(net.delivered(p)[0].id, id);
  }
}

TEST(PaxosAbcastUnit, UndeliveredMessageResentToNewLeader) {
  check::AbcastNet net(kGroup, paxos_factory());
  net.a_broadcast(2, "lost-then-found");
  // The client message to the (about-to-die) leader is lost with it.
  net.drop_edge(2, 0);
  net.crash(0);
  net.set_leader_everywhere(1);
  net.notify_fd_change_all();  // p2 re-sends unacked messages to p1
  net.settle();
  for (ProcessId p = 1; p < 3; ++p) {
    ASSERT_EQ(net.delivered(p).size(), 1u) << "p" << p;
    EXPECT_EQ(net.delivered(p)[0].payload, "lost-then-found");
  }
}

TEST(PaxosAbcastUnit, StaleLeaderIsNackedAndDefers) {
  check::AbcastNet net(kGroup, paxos_factory());
  // Establish p1 as leader at ballot 1 everywhere.
  net.set_leader_everywhere(1);
  net.notify_fd_change_all();
  net.settle();

  // p0 wrongly believes it leads again (ballot 0 is stale now): its 2a must
  // be rejected and the system must still make progress under p1.
  net.fd(0).omega.value = 0;
  net.protocol(0).on_fd_change();
  net.a_broadcast(0, "contended");
  net.settle();
  // The message is eventually ordered (p0 re-routes / retries via NACKs or
  // p1 sequences it) and all histories agree.
  EXPECT_TRUE(net.total_order_ok());
  for (ProcessId p = 0; p < 3; ++p) {
    EXPECT_EQ(net.delivered(p).size(), 1u) << "p" << p;
  }
}

TEST(PaxosAbcastUnit, MalformedInputIgnored) {
  check::AbcastNet net(kGroup, paxos_factory());
  net.protocol(0).on_message(1, "");
  net.protocol(0).on_message(1, std::string("\xee", 1));
  net.protocol(0).on_message(1, std::string("\x04\x01", 2));  // truncated 2a
  net.a_broadcast(0, "fine");
  net.settle();
  EXPECT_EQ(net.delivered(0).size(), 1u);
}

}  // namespace
}  // namespace zdc::testing

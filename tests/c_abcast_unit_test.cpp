// Message-level unit tests for the C-Abcast skeleton (Algorithm 3): round
// progression, the empty-round gating of lines 14-15, estimate merging (line
// 16), catch-up through flooded decisions, and instance pruning.
#include <gtest/gtest.h>

#include <algorithm>
#include <memory>
#include <string>

#include "abcast/c_abcast.h"
#include "check/direct_net.h"

namespace zdc::testing {
namespace {

constexpr GroupParams kGroup{4, 1};

sim::SimAbcastFactory c_abcast_l_factory() {
  return [](ProcessId self, GroupParams group, abcast::AbcastHost& host,
            const fd::OmegaView& omega, const fd::SuspectView&) {
    return abcast::make_c_abcast_l(self, group, host, omega);
  };
}

abcast::CAbcast& as_cabcast(abcast::AtomicBroadcast& p) {
  return static_cast<abcast::CAbcast&>(p);
}

TEST(CAbcastUnit, IdleUntilFirstBroadcast) {
  check::AbcastNet net(kGroup, c_abcast_l_factory());
  // Nothing a-broadcast: nobody w-broadcasts, nobody sends (lines 14-15).
  for (ProcessId p = 0; p < 4; ++p) {
    EXPECT_EQ(net.pending_wab(p), 0u);
    for (ProcessId q = 0; q < 4; ++q) EXPECT_EQ(net.pending(p, q), 0u);
  }
}

TEST(CAbcastUnit, SingleMessageFlowsThroughOneRound) {
  check::AbcastNet net(kGroup, c_abcast_l_factory());
  const abcast::MsgId id = net.a_broadcast(2, "hello");
  // p2 w-broadcast its estimate for round 1.
  EXPECT_EQ(net.pending_wab(2), 1u);
  net.settle();
  for (ProcessId p = 0; p < 4; ++p) {
    ASSERT_EQ(net.delivered(p).size(), 1u) << "p" << p;
    EXPECT_EQ(net.delivered(p)[0].id, id);
    EXPECT_EQ(net.delivered(p)[0].payload, "hello");
    EXPECT_EQ(as_cabcast(net.protocol(p)).current_round(), 2u);
  }
  EXPECT_TRUE(net.total_order_ok());
}

TEST(CAbcastUnit, WokenProcessesParticipateWithEmptyEstimates) {
  check::AbcastNet net(kGroup, c_abcast_l_factory());
  net.a_broadcast(0, "m");
  // Deliver only p0's w-broadcast; the idle processes wake (line 15) and
  // w-broadcast their empty estimates to participate in round 1.
  ASSERT_TRUE(net.deliver_wab(0));
  for (ProcessId p = 1; p < 4; ++p) {
    EXPECT_EQ(net.pending_wab(p), 1u) << "woken p" << p << " must w-broadcast";
  }
  net.settle();
  for (ProcessId p = 0; p < 4; ++p) {
    EXPECT_EQ(net.delivered(p).size(), 1u);
  }
}

TEST(CAbcastUnit, ConcurrentBroadcastsAllDelivered) {
  check::AbcastNet net(kGroup, c_abcast_l_factory());
  std::vector<abcast::MsgId> ids;
  for (ProcessId p = 0; p < 4; ++p) {
    ids.push_back(net.a_broadcast(p, "from-" + std::to_string(p)));
  }
  net.settle();
  for (ProcessId p = 0; p < 4; ++p) {
    EXPECT_EQ(net.delivered(p).size(), 4u) << "p" << p;
  }
  EXPECT_TRUE(net.total_order_ok());
  // Integrity: exactly the broadcast ids, no duplicates.
  auto history = net.delivered(0);
  std::sort(history.begin(), history.end(),
            [](const auto& a, const auto& b) { return a.id < b.id; });
  for (std::size_t i = 0; i < ids.size(); ++i) {
    EXPECT_EQ(history[i].id, ids[i]);
  }
}

TEST(CAbcastUnit, BatchesAccumulateWhileRoundRuns) {
  check::AbcastNet net(kGroup, c_abcast_l_factory());
  net.a_broadcast(0, "first");
  // While round 1 is still undelivered, more messages pile up at p0 and p1.
  net.a_broadcast(0, "second");
  net.a_broadcast(1, "third");
  net.settle();
  for (ProcessId p = 0; p < 4; ++p) {
    EXPECT_EQ(net.delivered(p).size(), 3u) << "p" << p;
  }
  EXPECT_TRUE(net.total_order_ok());
}

TEST(CAbcastUnit, OracleCollisionStillDeliversConsistently) {
  check::AbcastNet net(kGroup, c_abcast_l_factory());
  net.set_leader_everywhere(0);
  const abcast::MsgId a = net.a_broadcast(0, "a");
  const abcast::MsgId b = net.a_broadcast(3, "b");
  // Collision: p0's round-1 estimate reaches p0/p1 first, p3's reaches p2/p3
  // first — proposals for consensus 1 differ.
  const std::vector<ProcessId> left = {0, 1};
  const std::vector<ProcessId> right = {2, 3};
  ASSERT_TRUE(net.deliver_wab(0, &left));
  ASSERT_TRUE(net.deliver_wab(3, &right));
  net.settle();
  // Both messages end up delivered everywhere, in the same order.
  for (ProcessId p = 0; p < 4; ++p) {
    ASSERT_EQ(net.delivered(p).size(), 2u) << "p" << p;
  }
  EXPECT_TRUE(net.total_order_ok());
  const auto& h = net.delivered(0);
  EXPECT_TRUE((h[0].id == a && h[1].id == b) ||
              (h[0].id == b && h[1].id == a));
}

TEST(CAbcastUnit, LaggardCatchesUpThroughFloodedDecisions) {
  check::AbcastNet net(kGroup, c_abcast_l_factory());
  // Cut p3 off from everything except eventually re-delivered traffic: run
  // two rounds among p0..p2 while p3 receives nothing.
  const abcast::MsgId m1 = net.a_broadcast(0, "one");
  // Deliver only among 0..2 and their oracle traffic to 0..2.
  const std::vector<ProcessId> trio = {0, 1, 2};
  for (int iter = 0; iter < 200; ++iter) {
    bool progressed = false;
    for (ProcessId from = 0; from < 4; ++from) {
      if (net.pending_wab(from) > 0 && net.deliver_wab(from, &trio)) {
        progressed = true;
      }
      for (ProcessId to : trio) {
        if (net.deliver_one(from, to)) progressed = true;
      }
    }
    if (!progressed) break;
  }
  for (ProcessId p : trio) {
    ASSERT_EQ(net.delivered(p).size(), 1u) << "p" << p;
  }
  EXPECT_TRUE(net.delivered(3).empty());

  // Now p3 hears the world again: the DECIDE floods and (if needed) the
  // instance traffic let it catch up without having proposed anything.
  net.settle();
  ASSERT_EQ(net.delivered(3).size(), 1u);
  EXPECT_EQ(net.delivered(3)[0].id, m1);
  EXPECT_TRUE(net.total_order_ok());
}

TEST(CAbcastUnit, ManyRoundsAdvanceAndPruneInstances) {
  check::AbcastNet net(kGroup, c_abcast_l_factory());
  for (int round = 0; round < 12; ++round) {
    net.a_broadcast(static_cast<ProcessId>(round % 4),
                    "m" + std::to_string(round));
    net.settle();
  }
  for (ProcessId p = 0; p < 4; ++p) {
    EXPECT_EQ(net.delivered(p).size(), 12u);
    EXPECT_EQ(as_cabcast(net.protocol(p)).current_round(), 13u);
  }
  EXPECT_TRUE(net.total_order_ok());
  // Stale traffic for long-pruned instances must be ignored, not crash.
  common::Encoder enc;
  enc.put_u8(1);   // kConsTag
  enc.put_u64(1);  // instance 1, far below round 13
  enc.put_raw("zz");
  net.protocol(0).on_message(1, enc.bytes());
  EXPECT_EQ(net.delivered(0).size(), 12u);
}

TEST(CAbcastUnit, MalformedTransportAndOracleInputIgnored) {
  check::AbcastNet net(kGroup, c_abcast_l_factory());
  net.protocol(0).on_message(1, "");
  net.protocol(0).on_message(1, "x");
  net.protocol(0).on_w_deliver(1 << 20, 1, "not-a-msgset");
  net.a_broadcast(0, "still-works");
  net.settle();
  EXPECT_EQ(net.delivered(0).size(), 1u);
}

}  // namespace
}  // namespace zdc::testing

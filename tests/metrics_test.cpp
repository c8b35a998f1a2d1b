// Cross-checks of the accounting machinery: protocol metrics vs the
// independently recorded trace, GroupParams arithmetic, and the heartbeat
// detector's adaptive-timeout behaviour (◇P accuracy in practice).
#include <gtest/gtest.h>

#include <memory>

#include "common/types.h"
#include "runtime/heartbeat_fd.h"
#include "runtime/inproc_net.h"
#include "runtime/runtime_node.h"
#include "sim/consensus_world.h"
#include "sim/trace.h"

namespace zdc {
namespace {

TEST(GroupParams, QuorumArithmetic) {
  GroupParams g{4, 1};
  EXPECT_EQ(g.quorum(), 3u);
  EXPECT_EQ(g.echo_threshold(), 2u);
  EXPECT_EQ(g.majority(), 3u);
  EXPECT_TRUE(g.one_step_resilient());
  EXPECT_TRUE(g.majority_resilient());

  GroupParams boundary{3, 1};  // f = n/3: one-step excluded, majority fine
  EXPECT_FALSE(boundary.one_step_resilient());
  EXPECT_TRUE(boundary.majority_resilient());

  GroupParams seven{7, 2};
  EXPECT_EQ(seven.quorum(), 5u);
  EXPECT_EQ(seven.echo_threshold(), 3u);
  EXPECT_EQ(seven.majority(), 4u);
  EXPECT_TRUE(seven.one_step_resilient());

  GroupParams half{4, 2};  // f = n/2
  EXPECT_FALSE(half.majority_resilient());
}

// The protocols' self-reported message counters must agree exactly with what
// the (independent) simulator trace saw leave the processes.
TEST(MetricsCrossCheck, ProtocolCountersMatchTrace) {
  for (const char* proto : {"l", "p", "paxos", "ct"}) {
    sim::TraceRecorder trace;
    sim::ConsensusRunConfig cfg;
    cfg.group = proto == std::string("paxos") || proto == std::string("ct")
                    ? GroupParams{5, 2}
                    : GroupParams{4, 1};
    cfg.seed = 99;
    cfg.proposals.assign(cfg.group.n, "v");
    cfg.proposals[0] = "w";  // mild divergence: more traffic shapes
    cfg.trace = &trace;
    auto r = sim::run_consensus(cfg, sim::consensus_factory_by_name(proto));
    ASSERT_TRUE(r.all_correct_decided) << proto;

    const std::uint64_t traced =
        trace.count(sim::TraceKind::kSend) +
        trace.count(sim::TraceKind::kWabSend);
    EXPECT_EQ(r.totals.messages_sent, traced)
        << proto << ": protocol accounting disagrees with the wire";
  }
}

// False suspicions must grow the per-peer timeout so that, once the network
// behaves, accuracy holds: the hallmark of a ◇P implementation.
TEST(HeartbeatAdaptive, FalseSuspicionsGrowTimeoutsAndStop) {
  runtime::InprocNetwork::Config net_cfg;
  net_cfg.n = 2;
  net_cfg.seed = 3;
  // Delays far beyond the initial timeout force false suspicions at first.
  net_cfg.min_delay_ms = 4.0;
  net_cfg.max_delay_ms = 8.0;
  runtime::InprocNetwork net(net_cfg);

  runtime::HeartbeatFd::Config fd_cfg;
  fd_cfg.interval_ms = 2.0;
  fd_cfg.initial_timeout_ms = 1.0;  // absurdly aggressive on purpose
  fd_cfg.timeout_increment_ms = 4.0;

  std::vector<std::unique_ptr<runtime::HeartbeatFd>> fds;
  for (ProcessId p = 0; p < 2; ++p) {
    fds.push_back(
        std::make_unique<runtime::HeartbeatFd>(p, net, fd_cfg, nullptr));
  }
  for (ProcessId p = 0; p < 2; ++p) {
    runtime::HeartbeatFd* fd = fds[p].get();
    net.set_handler(p, [fd](const runtime::Delivery& d) {
      if (d.channel == runtime::Channel::kHeartbeat) fd->on_heartbeat(d.from, d.bytes);
    });
  }
  net.start();
  for (auto& fd : fds) fd->start();

  // Phase 1: the aggressive timeout must misfire at least once.
  ASSERT_TRUE(runtime::RuntimeCluster::wait_until(
      [&] { return fds[0]->false_suspicions() > 0; }, 10'000.0))
      << "expected at least one false suspicion under slow delivery";

  // Phase 2: adaptation. Timeouts grow on every revocation, so suspicion
  // flapping must die out: wait for a stretch with no new false suspicions
  // and nobody suspected.
  std::uint64_t stable_count = 0;
  const bool settled = runtime::RuntimeCluster::wait_until(
      [&] {
        const std::uint64_t now_count =
            fds[0]->false_suspicions() + fds[1]->false_suspicions();
        if (now_count != stable_count) {
          stable_count = now_count;
          return false;
        }
        return !fds[0]->suspects(1) && !fds[1]->suspects(0);
      },
      20'000.0);
  net.shutdown();
  EXPECT_TRUE(settled) << "timeout adaptation failed to reach accuracy";
}

}  // namespace
}  // namespace zdc

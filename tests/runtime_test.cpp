// Integration tests on the threaded runtime: real worker threads, heartbeat
// failure detectors, injected delays — the closest analogue of the paper's
// cluster deployment. Replicas run the replicated KV state machine and must
// converge to identical state, including across a leader crash.
#include <gtest/gtest.h>

#include <atomic>
#include <memory>
#include <mutex>
#include <string>
#include <vector>

#include "core/kv_store.h"
#include "core/rsm.h"
#include "runtime/runtime_node.h"

namespace zdc::runtime {
namespace {

/// One replicated KV replica per process, with delivery counts.
struct KvFleet {
  explicit KvFleet(std::uint32_t n) {
    for (std::uint32_t i = 0; i < n; ++i) {
      rsms.push_back(std::make_unique<core::ReplicatedStateMachine>(
          std::make_unique<core::KvStateMachine>()));
    }
  }

  void attach(RuntimeCluster& cluster) {
    for (ProcessId p = 0; p < rsms.size(); ++p) {
      rsms[p]->bind_submit([&cluster, p](std::string cmd) {
        cluster.node(p).a_broadcast(std::move(cmd));
      });
    }
  }

  void deliver(ProcessId p, const abcast::AppMessage& m) {
    rsms[p]->on_delivered(m);
    ++applied_total;
  }

  [[nodiscard]] bool all_applied(std::uint64_t expect,
                                 const std::vector<bool>& alive) const {
    for (ProcessId p = 0; p < rsms.size(); ++p) {
      if (alive[p] && rsms[p]->applied_count() < expect) return false;
    }
    return true;
  }

  std::vector<std::unique_ptr<core::ReplicatedStateMachine>> rsms;
  std::atomic<std::uint64_t> applied_total{0};
};

RuntimeCluster::Config fast_config(ProtocolKind kind, std::uint32_t n,
                                   std::uint32_t f) {
  RuntimeCluster::Config cfg;
  cfg.group = GroupParams{n, f};
  cfg.kind = kind;
  cfg.net.seed = 12345;
  cfg.net.min_delay_ms = 0.02;
  cfg.net.max_delay_ms = 0.2;
  cfg.fd.interval_ms = 5.0;
  cfg.fd.initial_timeout_ms = 40.0;
  return cfg;
}

class RuntimeProtocols : public ::testing::TestWithParam<ProtocolKind> {};

TEST_P(RuntimeProtocols, ReplicasConvergeOnConcurrentWrites) {
  const std::uint32_t n = GetParam() == ProtocolKind::kPaxos ? 3 : 4;
  const std::uint32_t f = 1;
  KvFleet fleet(n);
  RuntimeCluster cluster(fast_config(GetParam(), n, f),
                         [&fleet](ProcessId p, const abcast::AppMessage& m) {
                           fleet.deliver(p, m);
                         });
  fleet.attach(cluster);
  cluster.start();

  constexpr int kWritesPerNode = 30;
  for (int i = 0; i < kWritesPerNode; ++i) {
    for (ProcessId p = 0; p < n; ++p) {
      fleet.rsms[p]->submit(core::kv_put(
          "key-" + std::to_string(p) + "-" + std::to_string(i),
          "value-" + std::to_string(i)));
    }
  }

  const std::uint64_t expected = static_cast<std::uint64_t>(kWritesPerNode) * n;
  std::vector<bool> alive(n, true);
  ASSERT_TRUE(RuntimeCluster::wait_until(
      [&] { return fleet.all_applied(expected, alive); }, 30'000.0));
  cluster.shutdown();  // joins workers; state is now safe to read

  const std::string reference = fleet.rsms[0]->machine().snapshot();
  for (ProcessId p = 1; p < n; ++p) {
    EXPECT_EQ(fleet.rsms[p]->machine().snapshot(), reference)
        << "replica " << p << " diverged";
    EXPECT_EQ(fleet.rsms[p]->applied_count(), expected);
  }
  const auto& kv =
      static_cast<const core::KvStateMachine&>(fleet.rsms[0]->machine());
  EXPECT_EQ(kv.size(), expected);  // all keys distinct
}

INSTANTIATE_TEST_SUITE_P(Kinds, RuntimeProtocols,
                         ::testing::Values(ProtocolKind::kCAbcastL,
                                           ProtocolKind::kCAbcastP,
                                           ProtocolKind::kWabcast,
                                           ProtocolKind::kPaxos),
                         [](const auto& param_info) {
                           switch (param_info.param) {
                             case ProtocolKind::kCAbcastL: return "c_abcast_l";
                             case ProtocolKind::kCAbcastP: return "c_abcast_p";
                             case ProtocolKind::kWabcast: return "wabcast";
                             case ProtocolKind::kPaxos: return "paxos";
                           }
                           return "unknown";
                         });

// Leader crash mid-stream: the heartbeat ◇P detects it, Ω moves on, and the
// surviving replicas keep ordering and converge (n=4, f=1).
TEST(RuntimeFailover, SurvivesLeaderCrash) {
  const std::uint32_t n = 4;
  KvFleet fleet(n);
  RuntimeCluster cluster(fast_config(ProtocolKind::kCAbcastL, n, 1),
                         [&fleet](ProcessId p, const abcast::AppMessage& m) {
                           fleet.deliver(p, m);
                         });
  fleet.attach(cluster);
  cluster.start();

  // Phase 1: writes through all nodes, wait for them to land everywhere.
  for (int i = 0; i < 10; ++i) {
    for (ProcessId p = 0; p < n; ++p) {
      fleet.rsms[p]->submit(core::kv_put("pre-" + std::to_string(p) + "-" +
                                             std::to_string(i),
                                         "x"));
    }
  }
  std::vector<bool> all_alive(n, true);
  ASSERT_TRUE(RuntimeCluster::wait_until(
      [&] { return fleet.all_applied(10 * n, all_alive); }, 30'000.0));

  // Crash the (initial) leader p0.
  cluster.crash(0);

  // Phase 2: writes through the survivors only.
  for (int i = 0; i < 10; ++i) {
    for (ProcessId p = 1; p < n; ++p) {
      fleet.rsms[p]->submit(core::kv_put("post-" + std::to_string(p) + "-" +
                                             std::to_string(i),
                                         "y"));
    }
  }
  std::vector<bool> alive = {false, true, true, true};
  // Survivors must apply everything that landed pre-crash plus phase 2; the
  // exact count can exceed this if p0's in-flight traffic completed.
  const std::uint64_t min_expected = 10 * n + 10 * (n - 1);
  ASSERT_TRUE(RuntimeCluster::wait_until(
      [&] {
        for (ProcessId p = 1; p < n; ++p) {
          if (fleet.rsms[p]->applied_count() < min_expected) return false;
        }
        return true;
      },
      30'000.0))
      << "survivors did not converge after the leader crash";
  // Let the tail settle so all three survivors reach the same count.
  ASSERT_TRUE(RuntimeCluster::wait_until(
      [&] {
        return fleet.rsms[1]->applied_count() ==
                   fleet.rsms[2]->applied_count() &&
               fleet.rsms[2]->applied_count() == fleet.rsms[3]->applied_count();
      },
      30'000.0));
  cluster.shutdown();

  const std::string reference = fleet.rsms[1]->machine().snapshot();
  EXPECT_EQ(fleet.rsms[2]->machine().snapshot(), reference);
  EXPECT_EQ(fleet.rsms[3]->machine().snapshot(), reference);
  EXPECT_GE(fleet.rsms[1]->applied_count(), min_expected);
}

// The heartbeat FD itself: silence from a crashed process must be detected;
// live processes must (eventually) not be suspected.
TEST(HeartbeatFdTest, DetectsCrashAndStaysAccurate) {
  InprocNetwork::Config net_cfg;
  net_cfg.n = 3;
  net_cfg.seed = 5;
  InprocNetwork net(net_cfg);

  std::vector<std::unique_ptr<HeartbeatFd>> fds;
  HeartbeatFd::Config fd_cfg;
  fd_cfg.interval_ms = 5.0;
  fd_cfg.initial_timeout_ms = 30.0;
  for (ProcessId p = 0; p < 3; ++p) {
    fds.push_back(std::make_unique<HeartbeatFd>(p, net, fd_cfg, nullptr));
  }
  for (ProcessId p = 0; p < 3; ++p) {
    HeartbeatFd* fd = fds[p].get();
    net.set_handler(p, [fd](const Delivery& d) {
      if (d.channel == Channel::kHeartbeat) fd->on_heartbeat(d.from, d.bytes);
    });
  }
  net.start();
  for (auto& fd : fds) fd->start();

  // Settle: nobody suspected, leader is p0 everywhere.
  ASSERT_TRUE(RuntimeCluster::wait_until(
      [&] {
        for (ProcessId obs = 0; obs < 3; ++obs) {
          for (ProcessId p = 0; p < 3; ++p) {
            if (fds[obs]->suspects(p)) return false;
          }
          if (fds[obs]->omega().leader() != 0) return false;
        }
        return true;
      },
      10'000.0));

  net.crash(0);
  ASSERT_TRUE(RuntimeCluster::wait_until(
      [&] {
        return fds[1]->suspects(0) && fds[2]->suspects(0) &&
               fds[1]->omega().leader() == 1 && fds[2]->omega().leader() == 1;
      },
      10'000.0))
      << "crash of p0 was not detected";
  EXPECT_FALSE(fds[1]->suspects(2));
  EXPECT_FALSE(fds[2]->suspects(1));
  net.shutdown();
}

}  // namespace
}  // namespace zdc::runtime

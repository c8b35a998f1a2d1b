// Tests for the loopback-UDP transport: basic delivery, the ARQ reliable
// channel under artificial datagram loss, crash semantics, malformed and
// overflowing inbound traffic from a foreign socket, and a full
// replicated-KV cluster running over real sockets.
#include <arpa/inet.h>
#include <gtest/gtest.h>
#include <netinet/in.h>
#include <sys/socket.h>
#include <unistd.h>

#include <atomic>
#include <chrono>
#include <memory>
#include <mutex>
#include <set>
#include <string>
#include <thread>
#include <vector>

#include "common/codec.h"
#include "core/kv_store.h"
#include "core/rsm.h"
#include "obs/metrics.h"
#include "runtime/runtime_node.h"
#include "runtime/udp_net.h"

namespace zdc::runtime {
namespace {

UdpNetwork::Config udp_config(std::uint32_t n, double drop = 0.0) {
  UdpNetwork::Config cfg;
  cfg.n = n;
  cfg.seed = 77;
  cfg.retransmit_interval_ms = 5.0;
  cfg.drop_prob = drop;
  return cfg;
}

TEST(UdpNet, BindsDistinctLoopbackPorts) {
  UdpNetwork net(udp_config(4));
  std::set<std::uint16_t> ports;
  for (ProcessId p = 0; p < 4; ++p) {
    EXPECT_GT(net.port(p), 0);
    ports.insert(net.port(p));
  }
  EXPECT_EQ(ports.size(), 4u);
}

TEST(UdpNet, ReliableUnicastArrives) {
  UdpNetwork net(udp_config(2));
  std::atomic<int> got{0};
  std::string received;
  std::mutex mu;
  net.set_handler(0, [](const Delivery&) {});
  net.set_handler(1, [&](const Delivery& d) {
    std::lock_guard<std::mutex> lock(mu);
    received = d.bytes;
    ++got;
  });
  net.start();
  net.send(Channel::kProtocol, 0, 1, "over-the-wire");
  ASSERT_TRUE(RuntimeCluster::wait_until([&] { return got == 1; }, 10'000.0));
  std::lock_guard<std::mutex> lock(mu);
  EXPECT_EQ(received, "over-the-wire");
  net.shutdown();
}

TEST(UdpNet, ReliableChannelSurvivesHeavyLoss) {
  // 40% of all inbound datagrams (data AND acks) are dropped; the ARQ must
  // still deliver every reliable message exactly once.
  UdpNetwork net(udp_config(2, 0.4));
  constexpr int kMessages = 60;
  std::mutex mu;
  std::vector<std::string> received;
  net.set_handler(0, [](const Delivery&) {});
  net.set_handler(1, [&](const Delivery& d) {
    if (d.channel != Channel::kProtocol) return;
    std::lock_guard<std::mutex> lock(mu);
    received.push_back(d.bytes);
  });
  net.start();
  for (int i = 0; i < kMessages; ++i) {
    net.send(Channel::kProtocol, 0, 1, "msg-" + std::to_string(i));
  }
  ASSERT_TRUE(RuntimeCluster::wait_until(
      [&] {
        std::lock_guard<std::mutex> lock(mu);
        return received.size() >= kMessages;
      },
      30'000.0))
      << "ARQ failed to push messages through 40% loss";
  // Exactly once: no duplicates despite retransmissions.
  std::lock_guard<std::mutex> lock(mu);
  std::set<std::string> unique(received.begin(), received.end());
  EXPECT_EQ(received.size(), static_cast<std::size_t>(kMessages));
  EXPECT_EQ(unique.size(), static_cast<std::size_t>(kMessages));
  EXPECT_GT(net.retransmissions(), 0u) << "loss must have forced retransmits";
  net.shutdown();
}

TEST(UdpNet, BestEffortChannelsDoNotRetransmit) {
  UdpNetwork net(udp_config(2, 1.0));  // everything inbound dropped
  std::atomic<int> got{0};
  net.set_handler(0, [](const Delivery&) {});
  net.set_handler(1, [&](const Delivery&) { ++got; });
  net.start();
  for (int i = 0; i < 10; ++i) {
    net.send(Channel::kWab, 0, 1, "oracle", 7);
    net.send(Channel::kHeartbeat, 0, 1, "");
  }
  // Give the stack a moment; nothing may arrive and nothing may queue up
  // for retransmission (best-effort channels carry no ARQ state).
  RuntimeCluster::wait_until([&] { return false; }, 100.0);
  EXPECT_EQ(got, 0);
  EXPECT_EQ(net.retransmissions(), 0u);
  net.shutdown();
}

TEST(UdpNet, BroadcastReachesAllIncludingSelf) {
  UdpNetwork net(udp_config(3));
  std::vector<std::atomic<int>> got(3);
  for (ProcessId p = 0; p < 3; ++p) {
    net.set_handler(p, [&got, p](const Delivery&) { ++got[p]; });
  }
  net.start();
  net.broadcast(Channel::kProtocol, 1, "to-everyone");
  ASSERT_TRUE(RuntimeCluster::wait_until(
      [&] { return got[0] == 1 && got[1] == 1 && got[2] == 1; }, 10'000.0));
  net.shutdown();
}

TEST(UdpNet, TimersFire) {
  UdpNetwork net(udp_config(2));
  std::atomic<bool> fired{false};
  net.set_handler(0, [](const Delivery&) {});
  net.set_handler(1, [](const Delivery&) {});
  net.start();
  net.schedule(0, 5.0, [&fired] { fired = true; });
  ASSERT_TRUE(
      RuntimeCluster::wait_until([&] { return fired.load(); }, 10'000.0));
  net.shutdown();
}

TEST(UdpNet, CrashStopsTraffic) {
  UdpNetwork net(udp_config(2));
  std::atomic<int> got{0};
  net.set_handler(0, [](const Delivery&) {});
  net.set_handler(1, [&](const Delivery&) { ++got; });
  net.start();
  net.crash(1);
  net.send(Channel::kProtocol, 0, 1, "into-the-void");
  RuntimeCluster::wait_until([&] { return false; }, 100.0);
  EXPECT_EQ(got, 0);
  EXPECT_TRUE(net.crashed(1));
  net.shutdown();
}

/// A plain loopback socket outside the transport, for crafted datagrams.
class RawSender {
 public:
  RawSender() : fd_(::socket(AF_INET, SOCK_DGRAM, 0)) {}
  ~RawSender() { ::close(fd_); }
  RawSender(const RawSender&) = delete;
  RawSender& operator=(const RawSender&) = delete;

  void send(std::uint16_t port, const std::string& bytes) const {
    sockaddr_in addr{};
    addr.sin_family = AF_INET;
    addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
    addr.sin_port = htons(port);
    ASSERT_EQ(::sendto(fd_, bytes.data(), bytes.size(), 0,
                       reinterpret_cast<sockaddr*>(&addr), sizeof addr),
              static_cast<ssize_t>(bytes.size()));
  }

 private:
  int fd_;
};

/// A data datagram in the transport's wire format, with a raw channel byte.
std::string data_datagram(std::uint8_t channel, ProcessId from,
                          const std::string& payload) {
  common::Encoder enc;
  enc.put_u8(0);  // data
  enc.put_u8(channel);
  enc.put_u32(from);
  enc.put_u64(0);  // seq: unused on best-effort channels
  enc.put_u64(0);  // wab instance
  enc.put_raw(payload);
  return enc.take();
}

constexpr auto kHeartbeatByte = static_cast<std::uint8_t>(Channel::kHeartbeat);

TEST(UdpNet, MalformedDatagramsAreDropped) {
  UdpNetwork net(udp_config(2));
  std::mutex mu;
  std::vector<Delivery> got;
  net.set_handler(0, [](const Delivery&) {});
  net.set_handler(1, [&](const Delivery& d) {
    std::lock_guard<std::mutex> lock(mu);
    got.push_back(d);
  });
  net.start();
  RawSender raw;
  // Truncated headers: read without a bounds check they become an empty
  // heartbeat from p0 (which would count as p0's liveness) and an empty
  // oracle datagram.
  raw.send(net.port(1), std::string("\x00\x01", 2));
  raw.send(net.port(1), std::string("\x00\x02", 2));
  // A complete header on a channel byte no Channel names.
  raw.send(net.port(1), data_datagram(9, 0, "unknown-channel"));
  // A sender id outside the group.
  raw.send(net.port(1), data_datagram(kHeartbeatByte, 7, "stranger"));
  // One sender's datagrams are read in order, so once this valid heartbeat
  // arrives every crafted one before it has been handled.
  raw.send(net.port(1), data_datagram(kHeartbeatByte, 0, "valid"));
  ASSERT_TRUE(RuntimeCluster::wait_until(
      [&] {
        std::lock_guard<std::mutex> lock(mu);
        return !got.empty();
      },
      10'000.0));
  net.shutdown();
  ASSERT_EQ(got.size(), 1u);
  EXPECT_EQ(got[0].channel, Channel::kHeartbeat);
  EXPECT_EQ(got[0].from, 0u);
  EXPECT_EQ(got[0].bytes, "valid");
}

TEST(UdpNet, KernelReceiveBufferDropsAreCounted) {
  obs::MetricsRegistry registry;
  UdpNetwork::Config cfg = udp_config(2);
  cfg.metrics = &registry;
  UdpNetwork net(cfg);
  std::atomic<int> valid{0};
  net.set_handler(0, [](const Delivery&) {});
  net.set_handler(1, [&](const Delivery& d) {
    if (d.bytes == "after-flood") ++valid;
  });
  net.start();
  // A paused endpoint reads nothing, so the kernel queues the flood until
  // the socket buffer (at most 8 MiB) is full and drops the rest: 300
  // near-maximal datagrams are ~18 MiB of kernel charge. They carry an
  // unknown type byte, so whatever fits is discarded on resume.
  net.links().pause(1);
  RawSender raw;
  const std::string junk(60000, '\xff');
  for (int i = 0; i < 300; ++i) raw.send(net.port(1), junk);
  net.links().resume(1);
  // The drop count rides on the next datagram queued after the drops. Until
  // the loop has drained the full buffer a send may be dropped too, so
  // resend until one arrives.
  for (int i = 0; i < 1000 && valid.load() == 0; ++i) {
    raw.send(net.port(1), data_datagram(kHeartbeatByte, 0, "after-flood"));
    std::this_thread::sleep_for(std::chrono::milliseconds(10));
  }
  net.shutdown();
  ASSERT_GT(valid.load(), 0);
  EXPECT_GT(registry.counter("zdc_udp_kernel_drops_total",
                             obs::process_label(1))
                .value(),
            0u);
  EXPECT_EQ(registry.counter("zdc_udp_kernel_drops_total",
                             obs::process_label(0))
                .value(),
            0u);
}

// The whole stack over real sockets: 4 replicas, C-Abcast/L, heartbeat ◇P,
// replicated KV — convergence to identical snapshots, even with datagram
// loss underneath the ARQ.
TEST(UdpCluster, ReplicatedKvConvergesOverRealSockets) {
  std::vector<std::unique_ptr<core::ReplicatedStateMachine>> rsms;
  for (int i = 0; i < 4; ++i) {
    rsms.push_back(std::make_unique<core::ReplicatedStateMachine>(
        std::make_unique<core::KvStateMachine>()));
  }
  RuntimeCluster::Config cfg;
  cfg.group = GroupParams{4, 1};
  cfg.transport = RuntimeCluster::TransportKind::kUdp;
  cfg.udp.retransmit_interval_ms = 5.0;
  cfg.udp.drop_prob = 0.05;  // a little real pain for the ARQ
  cfg.kind = ProtocolKind::kCAbcastL;
  cfg.fd.interval_ms = 10.0;
  cfg.fd.initial_timeout_ms = 200.0;  // loss-tolerant heartbeat timeout
  RuntimeCluster cluster(cfg,
                         [&rsms](ProcessId p, const abcast::AppMessage& m) {
                           rsms[p]->on_delivered(m);
                         });
  for (ProcessId p = 0; p < 4; ++p) {
    rsms[p]->bind_submit([&cluster, p](std::string cmd) {
      cluster.node(p).a_broadcast(std::move(cmd));
    });
  }
  cluster.start();

  constexpr int kWrites = 10;
  for (int i = 0; i < kWrites; ++i) {
    for (ProcessId p = 0; p < 4; ++p) {
      rsms[p]->submit(core::kv_put(
          "udp-" + std::to_string(p) + "-" + std::to_string(i), "v"));
    }
  }
  const std::uint64_t expected = kWrites * 4;
  ASSERT_TRUE(RuntimeCluster::wait_until(
      [&] {
        for (const auto& rsm : rsms) {
          if (rsm->applied_count() < expected) return false;
        }
        return true;
      },
      60'000.0))
      << "replicas did not converge over UDP";
  cluster.shutdown();

  const std::string reference = rsms[0]->machine().snapshot();
  for (int p = 1; p < 4; ++p) {
    EXPECT_EQ(rsms[p]->machine().snapshot(), reference) << "replica " << p;
  }
}

}  // namespace
}  // namespace zdc::runtime

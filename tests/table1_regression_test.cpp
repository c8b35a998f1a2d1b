// Regression net under bench_paper's Table-1 rows: the measured message
// complexity and step-derived latency of every atomic-broadcast stack must
// stay inside the analytically justified bands (EXPERIMENTS.md, Table 1;
// measured counts include the DECIDE flood the paper's analytical figures
// omit).
#include <gtest/gtest.h>

#include <string>

#include "sim/abcast_world.h"

namespace zdc::sim {
namespace {

AbcastRunResult trickle_run(const std::string& proto) {
  AbcastRunConfig cfg;
  cfg.group = proto == "paxos" ? GroupParams{3, 1} : GroupParams{4, 1};
  cfg.net = calibrated_lan_2006();
  cfg.seed = 4;
  cfg.throughput_per_s = 20.0;  // no collisions: one message in flight
  cfg.message_count = 150;
  if (proto == "paxos") cfg.workload_senders = {1, 2};
  return run_abcast(cfg, abcast_factory_by_name(proto));
}

// Paxos: exactly n²+n+1 = 13 messages per a-broadcast, and 3δ latency.
TEST(Table1Regression, PaxosMessageCountIsExact) {
  auto r = trickle_run("paxos");
  ASSERT_EQ(r.undelivered, 0u);
  EXPECT_NEAR(r.messages_per_abcast(), 13.0, 0.2);
}

TEST(Table1Regression, PaxosLatencyIsThreeDelta) {
  auto r = trickle_run("paxos");
  const NetworkConfig net = calibrated_lan_2006();
  const double delta =
      net.base_delay_ms + net.jitter_mean_ms + net.cpu_send_ms + net.cpu_recv_ms;
  EXPECT_NEAR(r.latency_ms.mean() / delta, 3.0, 0.25);
}

// One-step stacks without collisions: n (oracle, counted once) + n² (PROP)
// + n² (DECIDE flood) = 36 for n=4; latency 2δ plus the oracle's disorder
// jitter (≈ 0.5–0.7δ extra on the calibrated profile).
TEST(Table1Regression, OneStepStacksMessageBand) {
  for (const char* proto : {"c-l", "c-p", "wabcast"}) {
    auto r = trickle_run(proto);
    ASSERT_EQ(r.undelivered, 0u) << proto;
    EXPECT_NEAR(r.messages_per_abcast(), 36.0, 2.5) << proto;
  }
}

TEST(Table1Regression, OneStepStacksLatencyBand) {
  const NetworkConfig net = calibrated_lan_2006();
  const double delta =
      net.base_delay_ms + net.jitter_mean_ms + net.cpu_send_ms + net.cpu_recv_ms;
  for (const char* proto : {"c-l", "c-p", "wabcast"}) {
    auto r = trickle_run(proto);
    const double steps = r.latency_ms.mean() / delta;
    EXPECT_GT(steps, 2.0) << proto;   // 2δ is the floor
    EXPECT_LT(steps, 3.1) << proto;   // well under Paxos + margin
  }
}

// The one-step stacks must beat Paxos end-to-end in this regime — the
// Figure-3 low-load ordering as a hard regression.
TEST(Table1Regression, OneStepStacksBeatPaxosAtTrickleRate) {
  const double paxos = trickle_run("paxos").latency_ms.mean();
  for (const char* proto : {"c-l", "c-p"}) {
    EXPECT_LT(trickle_run(proto).latency_ms.mean(), paxos) << proto;
  }
}

// Collision regime: L/P may at most double their message cost (second round
// of n²) — the 2n²+n band; Paxos stays exactly where it was.
TEST(Table1Regression, CollisionRegimeBands) {
  for (const char* proto : {"c-l", "c-p"}) {
    AbcastRunConfig cfg;
    cfg.group = GroupParams{4, 1};
    cfg.net = calibrated_lan_2006();
    cfg.seed = 4;
    cfg.throughput_per_s = 500.0;
    cfg.message_count = 400;
    auto r = run_abcast(cfg, abcast_factory_by_name(proto));
    ASSERT_EQ(r.undelivered, 0u) << proto;
    // Batching can push per-message cost below the single-message analytic;
    // the hard bound is the 2n²+n ceiling plus flood.
    EXPECT_LT(r.messages_per_abcast(), 55.0) << proto;
    EXPECT_GT(r.messages_per_abcast(), 15.0) << proto;
  }
  AbcastRunConfig cfg;
  cfg.group = GroupParams{3, 1};
  cfg.net = calibrated_lan_2006();
  cfg.seed = 4;
  cfg.throughput_per_s = 500.0;
  cfg.message_count = 400;
  cfg.workload_senders = {1, 2};
  auto r = run_abcast(cfg, abcast_factory_by_name("paxos"));
  EXPECT_LT(r.messages_per_abcast(), 14.0);
}

}  // namespace
}  // namespace zdc::sim

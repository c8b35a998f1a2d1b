// Property tests for the hot-path batching knobs (docs/PERF.md).
//
// Two independent mechanisms are exercised:
//
//   * BatchingOptions::paxos_pipeline_window — caps proposed-but-undecided
//     slots; surplus client messages accumulate and batch into the next
//     freed slot.
//   * BatchingOptions::c_abcast_max_batch — caps how much of the pending
//     estimate one consensus round proposes.
//
// Batching must never buy throughput with correctness: total order,
// integrity, agreement and per-sender FIFO have to hold at every cap value,
// under clean runs and under nemesis fault plans (partitions + crash; this
// world is crash-stop, so restarts stay disabled).
#include <gtest/gtest.h>

#include <cstdint>
#include <map>
#include <memory>
#include <string>
#include <vector>

#include "abcast/batching.h"
#include "abcast/paxos_abcast.h"
#include "check/direct_net.h"
#include "common/rng.h"
#include "fault/fault_plan.h"
#include "fault/nemesis.h"
#include "sim/abcast_world.h"

namespace zdc::testing {
namespace {

/// Seqs of each sender must appear in strictly increasing order.
bool per_sender_fifo(const std::vector<abcast::MsgId>& history) {
  std::map<ProcessId, std::uint64_t> last;
  for (const abcast::MsgId& id : history) {
    std::uint64_t& prev = last[id.sender];
    if (id.seq <= prev) return false;
    prev = id.seq;
  }
  return true;
}

// ---------------------------------------------------------------------------
// Pipeline window, message level: the window genuinely batches (few slots for
// many messages) and never reorders.

sim::SimAbcastFactory paxos_factory() {
  return [](ProcessId self, GroupParams group, abcast::AbcastHost& host,
            const fd::OmegaView& omega, const fd::SuspectView&) {
    return std::make_unique<abcast::PaxosAbcast>(self, group, host, omega);
  };
}

TEST(HotpathBatching, PipelineWindowCoalescesBackloggedMessages) {
  constexpr GroupParams kGroup{3, 1};
  check::AbcastNet net(kGroup, paxos_factory());
  auto* leader = dynamic_cast<abcast::PaxosAbcast*>(&net.protocol(0));
  ASSERT_NE(leader, nullptr);
  abcast::configure_batching(*leader,
                             abcast::BatchingOptions{.paxos_pipeline_window = 2});

  // The leader sequences its own submissions immediately, so the first two
  // fill the window; the remaining 18 pile up in pending_ until slots free.
  constexpr int kMessages = 20;
  for (int i = 0; i < kMessages; ++i) {
    net.a_broadcast(0, "m" + std::to_string(i));
  }
  EXPECT_EQ(leader->proposed_slots(), 2u);  // window full, backlog waiting
  net.settle();

  // Everything delivered, in submission order, everywhere — and the backlog
  // went out as batches, not one slot per message.
  for (ProcessId p = 0; p < kGroup.n; ++p) {
    ASSERT_EQ(net.delivered(p).size(), static_cast<std::size_t>(kMessages));
    for (int i = 0; i < kMessages; ++i) {
      EXPECT_EQ(net.delivered(p)[i].payload, "m" + std::to_string(i));
    }
  }
  EXPECT_TRUE(net.total_order_ok());
  EXPECT_LT(leader->proposed_slots(), static_cast<std::uint64_t>(kMessages));
}

TEST(HotpathBatching, WindowZeroKeepsLegacyOneSlotPerMessage) {
  constexpr GroupParams kGroup{3, 1};
  check::AbcastNet net(kGroup, paxos_factory());
  auto* leader = dynamic_cast<abcast::PaxosAbcast*>(&net.protocol(0));
  ASSERT_NE(leader, nullptr);  // window defaults to 0 = unlimited

  constexpr int kMessages = 10;
  for (int i = 0; i < kMessages; ++i) {
    net.a_broadcast(0, "m" + std::to_string(i));
  }
  EXPECT_EQ(leader->proposed_slots(), static_cast<std::uint64_t>(kMessages));
  net.settle();
  for (ProcessId p = 0; p < kGroup.n; ++p) {
    EXPECT_EQ(net.delivered(p).size(), static_cast<std::size_t>(kMessages));
  }
}

// ---------------------------------------------------------------------------
// End-to-end sweeps: every batching configuration preserves the full abcast
// contract; the window also measurably reduces transport traffic under load.

sim::AbcastRunConfig loaded_config(std::uint64_t seed) {
  sim::AbcastRunConfig cfg;
  cfg.group = GroupParams{4, 1};
  cfg.net = sim::calibrated_lan_2006();
  cfg.seed = seed;
  cfg.throughput_per_s = 4000.0;  // far above one-slot-per-decide capacity
  cfg.message_count = 120;
  for (ProcessId p = 1; p < cfg.group.n; ++p) {
    cfg.workload_senders.push_back(p);
  }
  return cfg;
}

TEST(HotpathBatching, PaxosWindowSafeAndCheaperUnderLoad) {
  for (std::uint64_t seed : {11ULL, 12ULL, 13ULL}) {
    std::uint64_t legacy_sent = 0;
    for (std::uint32_t window : {0u, 1u, 4u}) {
      sim::AbcastRunConfig cfg = loaded_config(seed);
      cfg.batching.paxos_pipeline_window = window;
      auto r = sim::run_abcast(cfg, sim::abcast_factory_by_name("paxos"));
      ASSERT_TRUE(r.safe()) << "window " << window << " seed " << seed;
      ASSERT_TRUE(r.agreement_ok) << "window " << window << " seed " << seed;
      ASSERT_EQ(r.undelivered, 0u) << "window " << window << " seed " << seed;
      // No per-sender FIFO assertion here: Paxos-Abcast never guaranteed it
      // (client messages reorder on the way to the leader and land in
      // different slots), batched or not. FIFO is a C-Abcast property.
      if (window == 0) {
        legacy_sent = r.totals.transport.messages_sent;
      } else {
        // Batching several client messages per slot must cut the per-slot
        // 2a/2b traffic relative to one-slot-per-message.
        EXPECT_LT(r.totals.transport.messages_sent, legacy_sent)
            << "window " << window << " seed " << seed;
      }
    }
  }
}

TEST(HotpathBatching, BatchedCAbcastSurvivesNemesisPlans) {
  // Identical plans and network to AbcastNemesis.CAbcastStaysSafeAndConverges
  // (known-survivable schedules); the only new variable is the batch cap, so
  // a failure here implicates batching, not the fault plan.
  for (const char* protocol : {"c-l", "c-p"}) {
    for (std::uint64_t seed = 1; seed <= 8; ++seed) {
      common::Rng rng(seed * 4111);
      fault::NemesisConfig ncfg;
      ncfg.n = 4;
      ncfg.f = 1;
      ncfg.horizon_ms = 40.0;
      ncfg.disturbances = 1 + static_cast<std::uint32_t>(rng.next_below(3));
      // Crash-stop world: partitions, pauses and crashes, no restarts.
      ncfg.allow_crash = rng.chance(0.5);
      const fault::FaultPlan plan = fault::random_fault_plan(ncfg, seed * 53 + 11);

      for (std::size_t max_batch : {std::size_t{0}, std::size_t{3}}) {
        sim::AbcastRunConfig cfg;
        cfg.group = GroupParams{4, 1};
        cfg.seed = seed;
        // Crashes must be detectable or the group stalls on a dead peer.
        cfg.fd.mode = sim::FdMode::kCrashTracking;
        cfg.fd.detection_delay_ms = 2.0;
        cfg.throughput_per_s = 2000.0;
        cfg.message_count = 120;
        cfg.payload_bytes = 32;
        cfg.batching.c_abcast_max_batch = max_batch;
        cfg.fault_plan = plan;

        auto r = sim::run_abcast(cfg, sim::abcast_factory_by_name(protocol));
        const std::string tag = std::string(protocol) + " batch " +
                                std::to_string(max_batch) + " seed " +
                                std::to_string(seed);
        ASSERT_TRUE(r.safe()) << tag << "\n" << fault::to_string(plan);
        ASSERT_TRUE(r.agreement_ok) << tag << "\n" << fault::to_string(plan);
        ASSERT_EQ(r.undelivered, 0u) << tag << "\n" << fault::to_string(plan);
        for (const auto& history : r.histories) {
          EXPECT_TRUE(per_sender_fifo(history)) << tag;
        }
      }
    }
  }
}

}  // namespace
}  // namespace zdc::testing

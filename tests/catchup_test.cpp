// The catch-up recovery stack (src/recovery), bottom to top:
//
//   1. DeliveryLog retention — commit-tracking GC plus the retention cap.
//   2. DurableRsm — write-ahead applies over StableStorage, checkpoint +
//      ring replay on recover(), including a FaultyEnv crash-point sweep
//      over the real WAL (legal-prefix rule, then resume and converge).
//   3. CatchupService — the wire protocol on a deterministic in-test
//      router: entry path, snapshot fallback after GC, ack-driven GC.
//   4. The RunOptions::storage_factory plumbing — the regression for the
//      silent with_storage() no-op (Config::from_options used to drop the
//      factory on the floor).
//   5. End to end on the threaded runtime: kill -9 a replica mid-workload,
//      outrun its retention window, restart it through the kept factory and
//      watch it recover its WAL prefix, install a peer snapshot and
//      converge to byte-equal digests; and after the restart its peers
//      stop suspecting it (its heartbeats resume).
#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <deque>
#include <memory>
#include <string>
#include <vector>

#include "abcast/delivery_log.h"
#include "common/assert.h"
#include "common/stable_storage.h"
#include "core/kv_store.h"
#include "fault/storage_fault.h"
#include "obs/run_options.h"
#include "recovery/catchup.h"
#include "recovery/durable_rsm.h"
#include "recovery/replica_group.h"
#include "runtime/runtime_node.h"
#include "storage/durable_storage.h"
#include "storage/env.h"
#include "storage/faulty_env.h"

namespace zdc::recovery {
namespace {

using abcast::DeliveryLog;

// ---------------------------------------------------------------- DeliveryLog

TEST(DeliveryLog, AppendAssignsTheDeliveryOrder) {
  DeliveryLog log(3);
  EXPECT_EQ(log.append("a"), 1u);
  EXPECT_EQ(log.append("b"), 2u);
  EXPECT_EQ(log.first(), 1u);
  EXPECT_EQ(log.next(), 3u);
  EXPECT_EQ(log.retained(), 2u);
  EXPECT_EQ(*log.entry(1), "a");
  EXPECT_EQ(*log.entry(2), "b");
  EXPECT_EQ(log.entry(0), nullptr);
  EXPECT_EQ(log.entry(3), nullptr);
}

TEST(DeliveryLog, CommitTrackingGcDropsOnlyTheFullyAckedPrefix) {
  DeliveryLog log(3);
  for (int i = 1; i <= 6; ++i) log.append("e" + std::to_string(i));
  log.ack(0, 5);
  log.ack(1, 3);
  log.ack(2, 6);
  EXPECT_EQ(log.min_acked(), 3u);
  EXPECT_EQ(log.gc(), 3u) << "entries 1..3 are acked by everyone";
  EXPECT_EQ(log.first(), 4u);
  EXPECT_EQ(log.entry(3), nullptr);
  EXPECT_EQ(*log.entry(4), "e4");
  // Watermarks only move forward: a stale re-ack must not regress.
  log.ack(1, 2);
  EXPECT_EQ(log.acked(1), 3u);
  EXPECT_EQ(log.gc(), 0u);
}

TEST(DeliveryLog, RetentionCapForcesGcPastUnackedEntries) {
  DeliveryLog::Config cfg;
  cfg.max_retained = 4;
  DeliveryLog log(3, cfg);
  for (int i = 1; i <= 10; ++i) log.append("e" + std::to_string(i));
  // Nobody acked anything (a crashed replica acks nothing forever), yet the
  // cap still bounds memory.
  EXPECT_EQ(log.gc(), 6u);
  EXPECT_EQ(log.first(), 7u);
  EXPECT_EQ(log.retained(), 4u);
  EXPECT_EQ(log.entry(6), nullptr) << "forced out: snapshot fallback territory";
  EXPECT_EQ(*log.entry(7), "e7");
}

TEST(DeliveryLog, ResetToRestartsTheWindowAfterRecovery) {
  DeliveryLog log(3);
  for (int i = 1; i <= 5; ++i) log.append("e" + std::to_string(i));
  log.reset_to(21);  // rebooted replica resumes after its recovered prefix
  EXPECT_EQ(log.first(), 21u);
  EXPECT_EQ(log.next(), 21u);
  EXPECT_EQ(log.retained(), 0u);
  EXPECT_EQ(log.entry(5), nullptr);
  EXPECT_EQ(log.append("fresh"), 21u);
}

// ----------------------------------------------------------------- DurableRsm

std::string workload_cmd(std::uint64_t i) {
  return core::kv_put("k" + std::to_string(i % 5), "v" + std::to_string(i));
}

// Reference digest after applying the first `count` workload commands.
std::string reference_digest(std::uint64_t count) {
  core::KvStateMachine m;
  for (std::uint64_t i = 1; i <= count; ++i) m.apply(workload_cmd(i));
  return m.snapshot();
}

TEST(DurableRsm, RecoversCheckpointPlusRingSuffix) {
  common::InMemoryStableStorage storage;
  DurableRsm::Config cfg;
  cfg.snapshot_every = 4;
  cfg.log_window = 8;
  {
    DurableRsm rsm(std::make_unique<core::KvStateMachine>(), &storage, cfg);
    ASSERT_TRUE(rsm.recover());
    EXPECT_EQ(rsm.applied(), 0u);
    // 21 applies: last checkpoint lands at 20, one ring record past it.
    for (std::uint64_t i = 1; i <= 21; ++i) {
      rsm.apply(i, workload_cmd(i));
    }
    EXPECT_EQ(rsm.applied(), 21u);
  }
  DurableRsm revived(std::make_unique<core::KvStateMachine>(), &storage, cfg);
  ASSERT_TRUE(revived.recover());
  EXPECT_EQ(revived.applied(), 21u);
  EXPECT_EQ(revived.machine().snapshot(), reference_digest(21));
  // The revived instance keeps going as if nothing happened.
  EXPECT_EQ(revived.apply(22, core::kv_get("k2")), "value:v17");
}

TEST(DurableRsm, NullStorageIsPlainInMemory) {
  DurableRsm rsm(std::make_unique<core::KvStateMachine>(), nullptr);
  ASSERT_TRUE(rsm.recover());
  rsm.apply(1, workload_cmd(1));
  EXPECT_EQ(rsm.applied(), 1u);
}

TEST(DurableRsm, InstallSnapshotJumpsForwardIgnoresStale) {
  common::InMemoryStableStorage storage;
  DurableRsm source(std::make_unique<core::KvStateMachine>(), nullptr);
  for (std::uint64_t i = 1; i <= 30; ++i) source.apply(i, workload_cmd(i));

  DurableRsm target(std::make_unique<core::KvStateMachine>(), &storage);
  ASSERT_TRUE(target.recover());
  ASSERT_TRUE(target.install_snapshot(30, source.machine().serialize()));
  EXPECT_EQ(target.applied(), 30u);
  EXPECT_EQ(target.machine().snapshot(), reference_digest(30));
  // Stale installs succeed without rewinding; corrupt images are refused.
  EXPECT_TRUE(target.install_snapshot(10, "whatever"));
  EXPECT_EQ(target.applied(), 30u);
  EXPECT_FALSE(target.install_snapshot(99, "corrupt-image"));
  EXPECT_EQ(target.applied(), 30u);

  // The install checkpointed: a fresh instance recovers straight to 30.
  DurableRsm revived(std::make_unique<core::KvStateMachine>(), &storage);
  ASSERT_TRUE(revived.recover());
  EXPECT_EQ(revived.applied(), 30u);
}

TEST(DurableRsm, SurvivesRealWalReopen) {
  storage::MemEnv env;
  DurableRsm::Config cfg;
  cfg.snapshot_every = 8;
  cfg.log_window = 16;
  std::unique_ptr<storage::DurableStableStorage> store;
  ASSERT_TRUE(storage::DurableStableStorage::open(env, "db", {}, &store)
                  .is_ok());
  {
    DurableRsm rsm(std::make_unique<core::KvStateMachine>(), store.get(), cfg);
    ASSERT_TRUE(rsm.recover());
    for (std::uint64_t i = 1; i <= 13; ++i) rsm.apply(i, workload_cmd(i));
  }
  store.reset();  // kill -9: only the Env (the disk) survives

  ASSERT_TRUE(storage::DurableStableStorage::open(env, "db", {}, &store)
                  .is_ok());
  DurableRsm revived(std::make_unique<core::KvStateMachine>(), store.get(),
                     cfg);
  ASSERT_TRUE(revived.recover());
  EXPECT_EQ(revived.applied(), 13u);
  EXPECT_EQ(revived.machine().snapshot(), reference_digest(13));
}

// Crash-point sweep over the durable apply path: kill the storage at the
// k-th write / k-th sync for every k the workload reaches, reopen, and hold
// recovery to the legal-prefix rule — everything the write-ahead barrier
// completed survives, at most the one in-flight command is in doubt, and
// the revived instance converges when the missing suffix is re-applied
// (exactly what the catch-up protocol does over the wire).
TEST(DurableRsm, CrashPointSweepRecoversALegalPrefix) {
  constexpr std::uint64_t kWorkload = 24;
  DurableRsm::Config cfg;
  cfg.snapshot_every = 4;
  cfg.log_window = 8;
  for (const char* op : {"@write ", "@sync "}) {
    bool fired = true;
    for (int k = 1; fired; ++k) {
      storage::MemEnv mem;
      storage::FaultyEnv env(mem);
      fault::StorageFaultPlan plan;
      std::string error;
      const std::string plan_text = op + std::to_string(k) + " crash";
      ASSERT_TRUE(fault::parse_storage_fault_plan(plan_text, &plan, &error))
          << error;
      env.arm(plan);

      std::unique_ptr<storage::DurableStableStorage> store;
      ASSERT_TRUE(storage::DurableStableStorage::open(env, "db", {}, &store)
                      .is_ok());
      std::uint64_t in_memory = 0;
      {
        DurableRsm rsm(std::make_unique<core::KvStateMachine>(), store.get(),
                       cfg);
        ASSERT_TRUE(rsm.recover());
        for (std::uint64_t i = 1; i <= kWorkload; ++i) {
          rsm.apply(i, workload_cmd(i));
          in_memory = i;
          if (!store->last_status().is_ok()) break;
        }
      }
      fired = !store->last_status().is_ok();
      store.reset();
      if (!fired) continue;  // k outran the workload's ops: sweep done
      env.recover();

      ASSERT_TRUE(storage::DurableStableStorage::open(env, "db", {}, &store)
                      .is_ok())
          << plan_text;
      DurableRsm revived(std::make_unique<core::KvStateMachine>(), store.get(),
                         cfg);
      ASSERT_TRUE(revived.recover()) << plan_text;
      const std::uint64_t recovered = revived.applied();
      EXPECT_LE(recovered, in_memory) << plan_text;
      EXPECT_GE(recovered + 1, in_memory)
          << plan_text << ": only the in-flight apply may be lost";
      EXPECT_EQ(revived.machine().snapshot(), reference_digest(recovered))
          << plan_text;
      // Resume: re-applying the lost suffix converges on the reference.
      for (std::uint64_t i = recovered + 1; i <= kWorkload; ++i) {
        revived.apply(i, workload_cmd(i));
      }
      EXPECT_EQ(revived.machine().snapshot(), reference_digest(kWorkload))
          << plan_text;
    }
  }
}

// ------------------------------------------------------------ CatchupService

// Deterministic in-test wiring: n replicas whose SendFns feed one FIFO that
// the test pumps to empty — no threads, no transport, every interleaving
// explicit.
struct Wire {
  struct Packet {
    ProcessId from;
    ProcessId to;
    std::string bytes;
  };

  struct Node {
    std::unique_ptr<DurableRsm> rsm;
    std::unique_ptr<DeliveryLog> log;
    std::unique_ptr<CatchupService> catchup;
  };

  explicit Wire(std::uint32_t n, DeliveryLog::Config retention = {},
                CatchupService::Config catchup_cfg = {}) {
    for (ProcessId p = 0; p < n; ++p) {
      auto node = std::make_unique<Node>();
      node->rsm =
          std::make_unique<DurableRsm>(std::make_unique<core::KvStateMachine>(),
                                       nullptr);
      node->log = std::make_unique<DeliveryLog>(n, retention);
      node->catchup = std::make_unique<CatchupService>(
          p, n, node->rsm.get(), node->log.get(),
          [this, p](ProcessId to, std::string bytes) {
            queue.push_back(Packet{p, to, std::move(bytes)});
          },
          catchup_cfg);
      nodes.push_back(std::move(node));
    }
  }

  /// Delivers every queued packet (and whatever those deliveries enqueue).
  void pump() {
    while (!queue.empty()) {
      Packet pkt = std::move(queue.front());
      queue.pop_front();
      nodes[pkt.to]->catchup->on_message(pkt.from, pkt.bytes);
    }
  }

  /// Applies the workload prefix [1, count] to node p, as live delivery
  /// would have.
  void run_live(ProcessId p, std::uint64_t count) {
    for (std::uint64_t i = 1; i <= count; ++i) {
      nodes[p]->rsm->apply(i, workload_cmd(i));
      nodes[p]->log->append(workload_cmd(i));
    }
  }

  std::vector<std::unique_ptr<Node>> nodes;
  std::deque<Packet> queue;
};

TEST(CatchupService, EntryPathReplaysRetainedCommandsInChunks) {
  Wire wire(2);
  wire.run_live(0, 50);  // server is at 50, everything retained

  auto& client = *wire.nodes[1];
  client.catchup->start_recovery();
  ASSERT_TRUE(client.catchup->recovering());
  client.catchup->poll_once();
  wire.pump();  // chunked transfer self-drives: reply -> re-request -> ...

  EXPECT_EQ(client.rsm->applied(), 50u);
  EXPECT_EQ(client.catchup->entries_applied(), 50u);
  EXPECT_EQ(client.catchup->snapshots_installed(), 0u)
      << "retained entries must never trigger the snapshot fallback";
  EXPECT_TRUE(client.catchup->caught_up());
  EXPECT_EQ(client.rsm->machine().snapshot(),
            wire.nodes[0]->rsm->machine().snapshot());
  // The client re-built its own retention window while catching up.
  EXPECT_EQ(client.log->next(), 51u);
}

TEST(CatchupService, SnapshotFallbackWhenGcOutranTheRequest) {
  DeliveryLog::Config retention;
  retention.max_retained = 8;
  Wire wire(2, retention);
  wire.run_live(0, 50);
  ASSERT_EQ(wire.nodes[0]->log->gc(), 42u);  // cap: only 43..50 retained

  auto& client = *wire.nodes[1];
  client.catchup->start_recovery();
  client.catchup->poll_once();  // asks for 1, which GC dropped
  wire.pump();

  EXPECT_EQ(client.catchup->snapshots_installed(), 1u);
  EXPECT_EQ(client.rsm->applied(), 50u);
  EXPECT_TRUE(client.catchup->caught_up());
  EXPECT_EQ(client.rsm->machine().snapshot(),
            wire.nodes[0]->rsm->machine().snapshot());
  EXPECT_EQ(client.log->next(), 51u)
      << "reset_to must resume the window right after the snapshot";
}

TEST(CatchupService, SnapshotThenEntrySuffixForAPartiallyLaggingReplica) {
  DeliveryLog::Config retention;
  retention.max_retained = 8;
  Wire wire(2, retention);
  wire.run_live(0, 50);
  wire.nodes[0]->log->gc();
  wire.run_live(1, 20);  // client is not empty, just far behind

  auto& client = *wire.nodes[1];
  client.catchup->start_recovery();
  client.catchup->poll_once();  // asks for 21; server retains only 43..50
  wire.pump();

  EXPECT_EQ(client.catchup->snapshots_installed(), 1u);
  EXPECT_EQ(client.rsm->applied(), 50u);
  EXPECT_EQ(client.rsm->machine().snapshot(),
            wire.nodes[0]->rsm->machine().snapshot());
}

TEST(CatchupService, AcksDriveCommitTrackingGcOnEveryReplica) {
  Wire wire(2);
  wire.run_live(0, 30);
  wire.run_live(1, 30);
  ASSERT_EQ(wire.nodes[0]->log->retained(), 30u);

  // Both replicas broadcast their applied watermark (self included); every
  // log then knows everyone is at 30 and drops the whole prefix.
  wire.nodes[0]->catchup->announce_ack();
  wire.nodes[1]->catchup->announce_ack();
  wire.pump();

  for (const auto& node : wire.nodes) {
    EXPECT_EQ(node->log->min_acked(), 30u);
    EXPECT_EQ(node->log->retained(), 0u);
    EXPECT_EQ(node->log->first(), 31u);
  }
}

TEST(CatchupService, PollRoundRobinsAcrossPeersAndSkipsSelf) {
  Wire wire(3);
  wire.run_live(0, 5);
  wire.run_live(2, 5);

  auto& client = *wire.nodes[1];
  client.catchup->start_recovery();
  // Three ticks: peers 2, 0, 2 (never 1). Each answers with its frontier;
  // the client converges regardless of which peer serves it.
  for (int tick = 0; tick < 3; ++tick) {
    client.catchup->poll_once();
    wire.pump();
  }
  EXPECT_EQ(client.rsm->applied(), 5u);
  EXPECT_TRUE(client.catchup->caught_up());
}

TEST(CatchupService, CaughtUpNeedsAFrontierFirst) {
  Wire wire(2);
  auto& client = *wire.nodes[1];
  client.catchup->start_recovery();
  EXPECT_FALSE(client.catchup->caught_up())
      << "applied == 0 of frontier unknown is not caught up";
  client.catchup->poll_once();
  wire.pump();  // empty reply from an empty peer still carries frontier 0
  EXPECT_EQ(client.catchup->frontier_seen(), 0u);
  EXPECT_FALSE(client.catchup->caught_up());
}

// ------------------------------------------- RunOptions -> RuntimeCluster

// The from_options regression (the silent with_storage() no-op): every
// RunOptions field the runtime consumes must land in the cluster config —
// including storage_factory, which the pre-fix mapping dropped on the floor.
// The mapping itself is exhaustive by construction (a structured binding
// over RunOptions fails to compile when a field is added but not decided);
// this test pins the *values* carried over.
TEST(FromOptions, MapsEveryRuntimeFieldIncludingStorageFactory) {
  obs::MetricsRegistry registry;
  abcast::BatchingOptions batching;
  batching.paxos_pipeline_window = 3;
  batching.c_abcast_max_batch = 7;
  auto opts = zdc::RunOptions{}
                  .with_group(5, 2)
                  .with_seed(1234)
                  .with_batching(batching)
                  .with_metrics(&registry)
                  .with_storage([](ProcessId) {
                    return std::make_unique<common::InMemoryStableStorage>();
                  });

  const auto cfg = runtime::RuntimeCluster::Config::from_options(opts);
  EXPECT_EQ(cfg.group.n, 5u);
  EXPECT_EQ(cfg.group.f, 2u);
  EXPECT_EQ(cfg.net.seed, 1234u);
  EXPECT_EQ(cfg.udp.seed, 1234u);
  EXPECT_EQ(cfg.batching.paxos_pipeline_window, 3u);
  EXPECT_EQ(cfg.batching.c_abcast_max_batch, 7u);
  EXPECT_EQ(cfg.metrics, &registry);
  ASSERT_TRUE(static_cast<bool>(cfg.storage_factory))
      << "with_storage() must not be a silent no-op";
  EXPECT_NE(cfg.storage_factory(0), nullptr);
}

TEST(FromOptions, ClusterInstantiatesPerProcessStorage) {
  const auto opts = zdc::RunOptions{}.with_group(3, 1).with_storage(
      [](ProcessId) {
        return std::make_unique<common::InMemoryStableStorage>();
      });
  runtime::RuntimeCluster cluster(
      runtime::RuntimeCluster::Config::from_options(opts),
      [](ProcessId, const abcast::AppMessage&) {});
  for (ProcessId p = 0; p < 3; ++p) {
    EXPECT_NE(cluster.storage(p), nullptr) << "process " << p;
  }
  EXPECT_EQ(cluster.storage(99), nullptr);

  runtime::RuntimeCluster bare(
      runtime::RuntimeCluster::Config::from_options(
          zdc::RunOptions{}.with_group(3, 1)),
      [](ProcessId, const abcast::AppMessage&) {});
  EXPECT_EQ(bare.storage(0), nullptr) << "no factory, no storage";
}

// --------------------------------------------------------------- end to end

// Per-process MemEnvs standing in for four disks; they outlive crashes and
// restarts, which is exactly what makes the WAL replay meaningful.
struct Disks {
  explicit Disks(std::uint32_t n) {
    for (std::uint32_t p = 0; p < n; ++p) {
      envs.push_back(std::make_unique<storage::MemEnv>());
    }
  }

  common::StorageFactory factory() {
    return [this](ProcessId p) -> std::unique_ptr<common::StableStorage> {
      std::unique_ptr<storage::DurableStableStorage> store;
      const storage::Status s =
          storage::DurableStableStorage::open(*envs[p], "db", {}, &store);
      ZDC_ASSERT_MSG(s.is_ok(), "WAL reopen failed");
      return store;
    };
  }

  std::vector<std::unique_ptr<storage::MemEnv>> envs;
};

ReplicaGroup::Config small_windows() {
  ReplicaGroup::Config cfg;
  cfg.rsm.snapshot_every = 8;
  cfg.rsm.log_window = 32;
  cfg.retention.max_retained = 16;
  return cfg;
}

// with_storage() end to end: a cluster built through RunOptions actually
// writes through DurableStableStorage — observable syncs and WAL files in
// every process's Env (pre-fix: zero of either, silently).
TEST(ReplicaGroupE2E, WithStorageWritesThroughTheWal) {
  Disks disks(4);
  const auto opts =
      zdc::RunOptions{}.with_group(4, 1).with_seed(7).with_storage(
          disks.factory());
  ReplicaGroup group(
      opts, [](ProcessId) { return std::make_unique<core::KvStateMachine>(); },
      small_windows());
  group.start();
  for (std::uint64_t i = 1; i <= 10; ++i) group.submit(0, workload_cmd(i));
  ASSERT_TRUE(runtime::RuntimeCluster::wait_until(
      [&] {
        for (ProcessId p = 0; p < 4; ++p) {
          if (group.applied(p) < 10) return false;
        }
        return true;
      },
      20000.0));
  group.shutdown();

  for (ProcessId p = 0; p < 4; ++p) {
    EXPECT_EQ(group.digest(p), group.digest(0)) << "replica " << p;
    ASSERT_NE(group.cluster().storage(p), nullptr);
    EXPECT_GT(group.cluster().storage(p)->sync_count(), 0u)
        << "replica " << p << " never synced: with_storage() is a no-op";
    std::vector<std::string> files;
    ASSERT_TRUE(disks.envs[p]->list_dir("db", &files).is_ok());
    EXPECT_FALSE(files.empty()) << "no WAL segments on disk " << p;
  }
}

// The tentpole end to end: kill -9 a replica mid-workload, outrun its
// retention window while it is down, restart it through the kept factory.
// It must recover its WAL prefix locally, be forced through the snapshot
// fallback (the lag exceeded every peer's retention cap), pull the suffix
// over Channel::kCatchup and converge to byte-equal digests.
TEST(ReplicaGroupE2E, Kill9RestartCatchesUpViaSnapshotAndConverges) {
  constexpr ProcessId kVictim = 3;
  constexpr std::uint64_t kPhase1 = 20;
  constexpr std::uint64_t kPhase2 = 60;  // >> max_retained: forces snapshot
  Disks disks(4);
  const auto opts =
      zdc::RunOptions{}.with_group(4, 1).with_seed(42).with_storage(
          disks.factory());
  ReplicaGroup group(
      opts, [](ProcessId) { return std::make_unique<core::KvStateMachine>(); },
      small_windows());
  group.start();

  for (std::uint64_t i = 1; i <= kPhase1; ++i) group.submit(0, workload_cmd(i));
  ASSERT_TRUE(runtime::RuntimeCluster::wait_until(
      [&] {
        for (ProcessId p = 0; p < 4; ++p) {
          if (group.applied(p) < kPhase1) return false;
        }
        return true;
      },
      20000.0));

  group.crash(kVictim);
  // Let the victim's in-flight handlers drain before its reboot.
  static_cast<void>(
      runtime::RuntimeCluster::wait_until([] { return false; }, 100.0));

  for (std::uint64_t i = kPhase1 + 1; i <= kPhase1 + kPhase2; ++i) {
    group.submit(0, workload_cmd(i));
  }
  constexpr std::uint64_t kTotal = kPhase1 + kPhase2;
  ASSERT_TRUE(runtime::RuntimeCluster::wait_until(
      [&] {
        for (ProcessId p = 0; p < 4; ++p) {
          if (p != kVictim && group.applied(p) < kTotal) return false;
        }
        return true;
      },
      30000.0));

  const std::uint64_t recovered = group.restart(kVictim);
  EXPECT_GT(recovered, 0u) << "the WAL prefix must survive the kill -9";
  EXPECT_LE(recovered, kPhase1);
  EXPECT_TRUE(group.recovering(kVictim));

  ASSERT_TRUE(runtime::RuntimeCluster::wait_until(
      [&] {
        return group.caught_up(kVictim) && group.applied(kVictim) >= kTotal;
      },
      30000.0))
      << "victim stuck at " << group.applied(kVictim) << "/" << kTotal;
  EXPECT_GE(group.snapshots_installed(kVictim), 1u)
      << "a lag past the retention cap must go through snapshot transfer";
  group.shutdown();

  for (ProcessId p = 0; p < 4; ++p) {
    EXPECT_EQ(group.applied(p), kTotal) << "replica " << p;
    EXPECT_EQ(group.digest(p), group.digest(0))
        << "replica " << p << " diverged after recovery";
  }
}

// Entry-path variant: restart *before* the peers' retention cap is outrun —
// catch-up must complete purely over resent entries, no snapshot.
TEST(ReplicaGroupE2E, ShortOutageCatchesUpViaEntriesAlone) {
  constexpr ProcessId kVictim = 2;
  Disks disks(4);
  ReplicaGroup::Config cfg = small_windows();
  cfg.retention.max_retained = 0;  // unbounded: ack-driven GC only
  const auto opts =
      zdc::RunOptions{}.with_group(4, 1).with_seed(9).with_storage(
          disks.factory());
  ReplicaGroup group(
      opts, [](ProcessId) { return std::make_unique<core::KvStateMachine>(); },
      cfg);
  group.start();

  for (std::uint64_t i = 1; i <= 10; ++i) group.submit(0, workload_cmd(i));
  ASSERT_TRUE(runtime::RuntimeCluster::wait_until(
      [&] {
        for (ProcessId p = 0; p < 4; ++p) {
          if (group.applied(p) < 10) return false;
        }
        return true;
      },
      20000.0));
  group.crash(kVictim);
  static_cast<void>(
      runtime::RuntimeCluster::wait_until([] { return false; }, 100.0));
  // While the victim is down its ack watermark freezes, so commit-tracking
  // GC stalls and the peers retain everything it missed.
  for (std::uint64_t i = 11; i <= 25; ++i) group.submit(0, workload_cmd(i));
  ASSERT_TRUE(runtime::RuntimeCluster::wait_until(
      [&] {
        for (ProcessId p = 0; p < 4; ++p) {
          if (p != kVictim && group.applied(p) < 25) return false;
        }
        return true;
      },
      20000.0));

  static_cast<void>(group.restart(kVictim));
  ASSERT_TRUE(runtime::RuntimeCluster::wait_until(
      [&] { return group.caught_up(kVictim) && group.applied(kVictim) >= 25; },
      30000.0));
  EXPECT_EQ(group.snapshots_installed(kVictim), 0u)
      << "retained entries must never trigger the snapshot fallback";
  group.shutdown();
  for (ProcessId p = 0; p < 4; ++p) {
    EXPECT_EQ(group.digest(p), group.digest(0)) << "replica " << p;
  }
}

// A restarted replica must heartbeat again. The crash wiped its timers,
// the failure detector's tick among them; unless the restart re-arms it,
// every live peer keeps suspecting the replica forever.
TEST(ReplicaGroupE2E, RestartedReplicaIsNoLongerSuspected) {
  constexpr ProcessId kVictim = 3;
  Disks disks(4);
  const auto opts =
      zdc::RunOptions{}.with_group(4, 1).with_seed(11).with_storage(
          disks.factory());
  ReplicaGroup group(
      opts, [](ProcessId) { return std::make_unique<core::KvStateMachine>(); },
      small_windows());
  group.start();
  for (std::uint64_t i = 1; i <= 5; ++i) group.submit(0, workload_cmd(i));
  ASSERT_TRUE(runtime::RuntimeCluster::wait_until(
      [&] { return group.applied(kVictim) >= 5; }, 20000.0));

  const auto peers_suspecting_victim = [&] {
    int count = 0;
    for (ProcessId p = 0; p < 4; ++p) {
      if (p != kVictim &&
          group.cluster().node(p).failure_detector().suspects(kVictim)) {
        ++count;
      }
    }
    return count;
  };
  group.crash(kVictim);
  ASSERT_TRUE(runtime::RuntimeCluster::wait_until(
      [&] { return peers_suspecting_victim() == 3; }, 20000.0))
      << "every live peer must detect the crash";

  static_cast<void>(group.restart(kVictim));
  EXPECT_TRUE(runtime::RuntimeCluster::wait_until(
      [&] { return peers_suspecting_victim() == 0; }, 5000.0))
      << peers_suspecting_victim()
      << " live peers still suspect the restarted replica";
  // Let the peers' gap estimators learn the new incarnation's heartbeats.
  static_cast<void>(
      runtime::RuntimeCluster::wait_until([] { return false; }, 300.0));
  group.shutdown();

  // The suspicion was right: the replica really crashed. Its restart is no
  // false suspicion, and the timeout bonus that backs off a falsely
  // suspected peer must not grow (the estimators are read after shutdown,
  // off the workers).
  const double increment = runtime::HeartbeatFd::Config{}.timeout_increment_ms;
  for (ProcessId p = 0; p < 4; ++p) {
    if (p == kVictim) continue;
    const auto& fd = group.cluster().node(p).failure_detector();
    EXPECT_EQ(fd.false_suspicions(), 0u) << "peer " << p;
    double live_timeout = 0;
    for (ProcessId q = 0; q < 4; ++q) {
      if (q != kVictim && q != p) {
        live_timeout = std::max(live_timeout, fd.effective_timeout_ms(q));
      }
    }
    EXPECT_LT(fd.effective_timeout_ms(kVictim), live_timeout + increment / 2)
        << "peer " << p << " backed off the restarted replica's timeout";
  }
}

}  // namespace
}  // namespace zdc::recovery

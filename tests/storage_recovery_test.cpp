// Kill-9 recovery harness for the durable storage stack (src/storage):
// DurableStableStorage over FaultyEnv is crashed at every scripted crash
// point of a fixed workload, reopened, and the recovered state checked
// against the legal-prefix rule (everything synced survives, at most the
// in-flight put is in doubt). The last section runs RecoveringPaxos over the
// real WAL through a crash/reboot schedule and feeds the result to the
// shared invariant library — agreement, validity and zero-degradation hold
// across a kill -9, which is the paper's recovery story end to end.
#include <gtest/gtest.h>

#include <map>
#include <memory>
#include <string>
#include <vector>

#include "check/direct_net.h"
#include "check/invariants.h"
#include "consensus/recovering_paxos.h"
#include "fault/storage_fault.h"
#include "storage/durable_storage.h"
#include "storage/env.h"
#include "storage/faulty_env.h"

namespace zdc::storage {
namespace {

constexpr char kDir[] = "db";

std::unique_ptr<DurableStableStorage> open_or_die(
    Env& env, DurableStorageOptions options = {},
    WalRecoveryInfo* info = nullptr) {
  std::unique_ptr<DurableStableStorage> store;
  const Status s = DurableStableStorage::open(env, kDir, options, &store, info);
  EXPECT_TRUE(s.is_ok()) << s.to_string();
  return store;
}

TEST(DurableStorage, PutGetSurviveReopen) {
  MemEnv env;
  auto store = open_or_die(env);
  ASSERT_NE(store, nullptr);
  store->put("promise", "ballot-7");
  store->put("vote", "value-x");
  store->put("promise", "ballot-9");  // overwrite: last write wins
  ASSERT_TRUE(store->last_status().is_ok());
  EXPECT_GE(store->sync_count(), 3u);
  store.reset();

  store = open_or_die(env);
  ASSERT_NE(store, nullptr);
  EXPECT_EQ(store->get("promise"), "ballot-9");
  EXPECT_EQ(store->get("vote"), "value-x");
  EXPECT_FALSE(store->get("absent").has_value());
}

TEST(DurableStorage, GroupCommitRidesManyPutsOnOneSync) {
  MemEnv env;
  auto store = open_or_die(env);
  ASSERT_NE(store, nullptr);
  for (int i = 0; i < 16; ++i) {
    store->put_nosync("k" + std::to_string(i), "v" + std::to_string(i));
  }
  EXPECT_EQ(store->sync_count(), 0u);
  store->sync();
  EXPECT_EQ(store->sync_count(), 1u) << "sixteen puts must ride one fsync";
  store->sync();  // nothing staged: free
  EXPECT_EQ(store->sync_count(), 1u);
  store.reset();

  store = open_or_die(env);
  ASSERT_NE(store, nullptr);
  for (int i = 0; i < 16; ++i) {
    EXPECT_EQ(store->get("k" + std::to_string(i)), "v" + std::to_string(i));
  }
}

TEST(DurableStorage, UnsyncedPutsDieWithTheProcess) {
  MemEnv mem;
  FaultyEnv env(mem);
  auto store = open_or_die(env);
  ASSERT_NE(store, nullptr);
  store->put("durable", "yes");
  store->put_nosync("staged", "lost");
  store.reset();
  env.crash_now(fault::CrashKeep::kNone);  // power cut before the sync
  env.recover();

  store = open_or_die(env);
  ASSERT_NE(store, nullptr);
  EXPECT_EQ(store->get("durable"), "yes");
  EXPECT_FALSE(store->get("staged").has_value())
      << "an unsynced put must not survive a power cut";
}

TEST(DurableStorage, CompactionBoundsRecoveryAndPreservesState) {
  MemEnv env;
  DurableStorageOptions options;
  options.segment_bytes = 128;
  auto store = open_or_die(env, options);
  ASSERT_NE(store, nullptr);
  std::map<std::string, std::string> model;
  for (int i = 0; i < 60; ++i) {
    const std::string key = "k" + std::to_string(i % 5);
    const std::string value = "v" + std::to_string(i);
    store->put(key, value);
    model[key] = value;
  }
  ASSERT_TRUE(store->compact().is_ok());
  store->put("post", "compact");
  model["post"] = "compact";
  ASSERT_TRUE(store->last_status().is_ok());
  store.reset();

  WalRecoveryInfo info;
  store = open_or_die(env, options, &info);
  ASSERT_NE(store, nullptr);
  // Recovery is O(state), not O(history): only the snapshot plus the one
  // post-compaction record are read, not the 60-put history.
  EXPECT_EQ(info.records_replayed, 1u);
  for (const auto& [key, value] : model) {
    EXPECT_EQ(store->get(key), value) << key;
  }

  // Pre-compaction segments are really gone from the media: everything left
  // is at or above the snapshot's segment, and no .tmp leftovers exist.
  std::vector<std::string> names;
  ASSERT_TRUE(env.list_dir(kDir, &names).is_ok());
  std::uint64_t snap_index = 0;
  bool has_snapshot = false;
  for (const std::string& name : names) {
    has_snapshot |=
        DurableStableStorage::parse_snapshot_name(name, &snap_index);
  }
  ASSERT_TRUE(has_snapshot);
  std::uint64_t index = 0;
  for (const std::string& name : names) {
    if (Wal::parse_segment_name(name, &index)) {
      EXPECT_GE(index, snap_index) << name;
    }
    EXPECT_EQ(name.find(".tmp"), std::string::npos) << name;
  }
}

TEST(DurableStorage, AutoCompactionTriggersOnAppendedBytes) {
  MemEnv env;
  DurableStorageOptions options;
  options.segment_bytes = 128;
  options.compact_after_bytes = 512;
  auto store = open_or_die(env, options);
  ASSERT_NE(store, nullptr);
  for (int i = 0; i < 80; ++i) {
    store->put("key", "value-" + std::to_string(i));
  }
  ASSERT_TRUE(store->last_status().is_ok());
  std::vector<std::string> names;
  ASSERT_TRUE(env.list_dir(kDir, &names).is_ok());
  bool has_snapshot = false;
  std::uint64_t snap_index = 0;
  for (const std::string& name : names) {
    has_snapshot |= DurableStableStorage::parse_snapshot_name(name, &snap_index);
  }
  EXPECT_TRUE(has_snapshot) << "compaction never triggered";
  store.reset();
  store = open_or_die(env, options);
  ASSERT_NE(store, nullptr);
  EXPECT_EQ(store->get("key"), "value-79");
}

TEST(DurableStorage, StaleTmpSnapshotIsSweptOnOpen) {
  MemEnv env;
  auto store = open_or_die(env);
  ASSERT_NE(store, nullptr);
  store->put("k", "v");
  store.reset();

  // A crash between writing snap-*.tmp and the commit rename leaves the tmp
  // behind; open must ignore and delete it, never load it.
  const std::string tmp = join_path(kDir, "snap-000042.tmp");
  std::unique_ptr<WritableFile> file;
  ASSERT_TRUE(env.new_writable(tmp, /*truncate=*/true, &file).is_ok());
  ASSERT_TRUE(file->append("half-written garbage").is_ok());
  file.reset();

  store = open_or_die(env);
  ASSERT_NE(store, nullptr);
  EXPECT_EQ(store->get("k"), "v");
  EXPECT_FALSE(env.file_exists(tmp));
}

TEST(DurableStorage, BitFlipOnReadFailsLoudly) {
  MemEnv mem;
  FaultyEnv env(mem);
  {
    auto store = open_or_die(env);
    ASSERT_NE(store, nullptr);
    store->put("a", "first");
    store->put("b", "second");  // a valid frame *after* the one we corrupt
    ASSERT_TRUE(store->last_status().is_ok());
  }
  fault::StorageFaultPlan plan;
  std::string error;
  // Read #1 during recovery is the segment scan; flipping a bit of the first
  // frame's CRC makes it invalid with a valid frame following — mid-segment
  // damage, which must be corruption, not a silent truncation.
  ASSERT_TRUE(fault::parse_storage_fault_plan("@read 1 flip byte=0 bit=3",
                                              &plan, &error))
      << error;
  env.arm(plan);
  std::unique_ptr<DurableStableStorage> store;
  const Status s = DurableStableStorage::open(env, kDir, {}, &store);
  EXPECT_EQ(s.code(), Status::Code::kCorruption) << s.to_string();
}

// --- every scripted crash point of a fixed workload ---

// The workload: 8 puts (each = 1 WAL append + 1 fsync on this path), keys
// cycling over a 3-key space. Legal post-recovery states are exactly the
// prefixes of this history; a crash during put k must recover to state k-1
// (write lost) or state k (write survived), never anything else.
constexpr int kWorkloadPuts = 8;

std::map<std::string, std::string> state_after(int puts) {
  std::map<std::string, std::string> state;
  for (int i = 0; i < puts; ++i) {
    state["key" + std::to_string(i % 3)] = "value" + std::to_string(i);
  }
  return state;
}

void run_workload_and_check(const std::string& plan_text) {
  SCOPED_TRACE(plan_text);
  MemEnv mem;
  FaultyEnv env(mem);
  fault::StorageFaultPlan plan;
  std::string error;
  ASSERT_TRUE(fault::parse_storage_fault_plan(plan_text, &plan, &error))
      << error;
  env.arm(plan);

  auto store = open_or_die(env);
  ASSERT_NE(store, nullptr);
  int completed = 0;
  for (int i = 0; i < kWorkloadPuts; ++i) {
    store->put("key" + std::to_string(i % 3), "value" + std::to_string(i));
    if (!store->last_status().is_ok()) break;  // the process is dead
    completed = i + 1;
  }
  ASSERT_FALSE(store->last_status().is_ok())
      << "the scripted crash point never fired";
  EXPECT_EQ(store->last_status().code(), Status::Code::kCrashed);
  store.reset();
  env.recover();

  store = open_or_die(env);
  ASSERT_NE(store, nullptr);
  std::map<std::string, std::string> recovered;
  for (int k = 0; k < 3; ++k) {
    const std::string key = "key" + std::to_string(k);
    if (const auto value = store->get(key)) recovered[key] = *value;
  }
  const auto before = state_after(completed);
  const auto after = state_after(completed + 1);
  // Every put whose call returned is durable (the acceptors' contract), so
  // the recovered state is `before` exactly, or `after` when the in-flight
  // write happened to survive (keep=all / sync-after points). Nothing else.
  EXPECT_TRUE(recovered == before || recovered == after)
      << "recovered state is not a legal prefix (completed=" << completed
      << ")";
}

TEST(Kill9Recovery, EveryScriptedWriteCrashPointRecoversALegalPrefix) {
  for (int k = 1; k <= kWorkloadPuts; ++k) {
    for (const char* mode : {"crash", "crash torn=3", "crash keep=all"}) {
      run_workload_and_check("@write " + std::to_string(k) + " " + mode);
    }
  }
}

TEST(Kill9Recovery, EveryScriptedSyncCrashPointRecoversALegalPrefix) {
  for (int k = 1; k <= kWorkloadPuts; ++k) {
    run_workload_and_check("@sync " + std::to_string(k) + " crash");
    run_workload_and_check("@sync " + std::to_string(k) + " crash after");
  }
}

TEST(Kill9Recovery, SyncCrashAfterMakesTheInFlightPutDurable) {
  // Sharper than the prefix rule: dying just AFTER fsync #k means put #k is
  // on the media, so recovery must land on state k exactly.
  MemEnv mem;
  FaultyEnv env(mem);
  fault::StorageFaultPlan plan;
  ASSERT_TRUE(
      fault::parse_storage_fault_plan("@sync 3 crash after", &plan, nullptr));
  env.arm(plan);
  auto store = open_or_die(env);
  ASSERT_NE(store, nullptr);
  for (int i = 0; i < kWorkloadPuts; ++i) {
    store->put("key" + std::to_string(i % 3), "value" + std::to_string(i));
    if (!store->last_status().is_ok()) break;
  }
  store.reset();
  env.recover();
  store = open_or_die(env);
  ASSERT_NE(store, nullptr);
  const auto expected = state_after(3);
  for (const auto& [key, value] : expected) {
    EXPECT_EQ(store->get(key), value) << key;
  }
}

// --- RecoveringPaxos over the real WAL: kill -9 a replica, reboot, check
// --- the consensus invariants across the incarnations ---

/// Per-process durable stack: MemEnv media, FaultyEnv crash layer, durable
/// storage — owned outside the protocol so a "reboot" (reopen + fresh
/// protocol instance over the same storage) sees what survived.
struct DurableFleet {
  explicit DurableFleet(std::uint32_t n) {
    for (std::uint32_t i = 0; i < n; ++i) {
      mems.push_back(std::make_unique<MemEnv>());
      envs.push_back(std::make_unique<FaultyEnv>(*mems.back()));
      stores.emplace_back();
      reopen(i);
    }
  }

  void reopen(std::uint32_t p) {
    stores[p].reset();
    const Status s =
        DurableStableStorage::open(*envs[p], kDir, {}, &stores[p]);
    ASSERT_TRUE(s.is_ok()) << "p" << p << ": " << s.to_string();
  }

  sim::SimConsensusFactory factory() {
    return [this](ProcessId self, GroupParams group,
                  consensus::ConsensusHost& host, const fd::OmegaView& omega,
                  const fd::SuspectView&) {
      return std::unique_ptr<consensus::Consensus>(
          std::make_unique<consensus::RecoveringPaxosConsensus>(
              self, group, host, omega, *stores[self]));
    };
  }

  std::vector<std::unique_ptr<MemEnv>> mems;
  std::vector<std::unique_ptr<FaultyEnv>> envs;
  std::vector<std::unique_ptr<DurableStableStorage>> stores;
};

check::ConsensusObs observe(const check::ConsensusNet& net,
                            std::vector<Value> proposals, bool stable) {
  check::ConsensusObs obs;
  obs.group = net.group();
  obs.proposals = std::move(proposals);
  obs.stable = stable;
  obs.quiescent = true;
  obs.procs.resize(obs.group.n);
  for (ProcessId p = 0; p < obs.group.n; ++p) {
    const consensus::Consensus& proto = net.protocol(p);
    obs.procs[p].crashed = net.crashed(p);
    obs.procs[p].proposed = proto.proposed();
    obs.procs[p].decided = proto.decided();
    if (proto.decided()) {
      obs.procs[p].decision = proto.decision();
      obs.procs[p].steps = proto.decision_steps();
      obs.procs[p].path = proto.decision_path();
      obs.procs[p].decision_deliveries = 1;
    }
  }
  return obs;
}

TEST(DurableFleet, CleanRunMeetsZeroDegradationOverTheRealWal) {
  DurableFleet fleet(3);
  check::ConsensusNet net(GroupParams{3, 1}, fleet.factory());
  net.set_leader_everywhere(0);
  const std::vector<Value> proposals = {"a", "b", "c"};
  for (ProcessId p = 0; p < 3; ++p) net.propose(p, proposals[p]);
  net.deliver_all();

  // check_consensus applies agreement/validity/integrity AND the two-step
  // stable bound (zero-degradation) — paying for durability with fsyncs,
  // not with extra communication steps, is the paper's whole point.
  const auto violation = check::check_consensus(
      observe(net, proposals, /*stable=*/true),
      check::step_bounds_for("rec-paxos"));
  ASSERT_FALSE(violation.has_value())
      << violation->invariant << ": " << violation->detail;
  for (ProcessId p = 0; p < 3; ++p) {
    ASSERT_TRUE(net.decided(p));
    EXPECT_EQ(net.decision(p), "a");
    EXPECT_GE(fleet.stores[p]->sync_count(), 1u)
        << "acceptance must hit the WAL before the 2b leaves p" << p;
  }
}

/// The recovery schedule, parameterized by how p1 dies:
///   ballot 0: p0 leads, p0+p1 accept "zero"; p1's 2b reaches p0 only if
///   `after_2b_escaped` — then p0 decides. p1 is killed (power cut), its
///   un-escaped traffic dies with it, it reboots from the WAL and re-proposes.
///   Ballot 2: p2 (own leader) runs phase 1 against {p1, p2} and drives to a
///   decision. The invariants must hold whatever p1's WAL retained.
void run_kill9_schedule(bool after_2b_escaped, const Value& expected_p2) {
  SCOPED_TRACE(after_2b_escaped ? "after 2b escaped" : "before 2b escaped");
  DurableFleet fleet(3);
  check::ConsensusNet net(GroupParams{3, 1}, fleet.factory());
  net.fd(0).omega.value = 0;
  net.fd(1).omega.value = 0;
  net.fd(2).omega.value = 2;
  const std::vector<Value> proposals = {"zero", "one", "two"};

  net.propose(0, "zero");
  net.propose(1, "one");

  ASSERT_TRUE(net.deliver_one(0, 0));  // 2a -> p0: accepts, 2b out
  ASSERT_TRUE(net.deliver_one(0, 1));  // 2a -> p1: accepts (WAL sync), 2b out
  ASSERT_TRUE(net.deliver_one(0, 0));  // own 2b -> p0
  if (after_2b_escaped) {
    ASSERT_TRUE(net.deliver_one(1, 0));  // p1's 2b -> p0: majority, decides
    ASSERT_TRUE(net.decided(0));
    ASSERT_EQ(net.decision(0), "zero");
  }

  // kill -9 p1 (and silence p0, whose remaining traffic never leaves).
  net.crash(0);
  net.crash(1);
  for (ProcessId to = 0; to < 3; ++to) {
    net.drop_edge(0, to);  // p0's unsent traffic dies with its silence
    net.drop_edge(1, to);  // p1 died: nothing un-escaped gets out
  }
  fleet.envs[1]->crash_now(fault::CrashKeep::kNone);
  fleet.envs[1]->recover();
  fleet.reopen(1);  // the WAL replays whatever the write-ahead sync saved
  net.replace_protocol(1, fleet.factory());
  net.propose(1, "one");

  net.propose(2, "two");
  net.deliver_all();

  ASSERT_TRUE(net.decided(2));
  EXPECT_EQ(net.decision(2), expected_p2);
  // Uniform agreement across incarnations, via the shared invariant library:
  // p0's pre-silence decision (if any) binds p2's.
  check::ConsensusObs obs = observe(net, proposals, /*stable=*/false);
  const auto violation = check::check_consensus(
      obs, check::step_bounds_for("rec-paxos"));
  ASSERT_FALSE(violation.has_value())
      << violation->invariant << ": " << violation->detail;
}

TEST(DurableFleet, RecoveredWalPromiseForcesTheDecidedValue) {
  // p1's acceptance was synced to the WAL *before* its 2b escaped, so after
  // the kill -9 its phase-1 answer resurrects ("zero", ballot 0) and p2 is
  // forced onto the decided value.
  run_kill9_schedule(/*after_2b_escaped=*/true, "zero");
}

TEST(DurableFleet, UndecidedCrashLeavesTheNextBallotFree) {
  // p1 died before its 2b reached anyone: no decision exists, and the WAL
  // still resurrects the acceptance — phase 1 re-proposes "zero" even though
  // nothing forced it. Safety holds either way; this pins the actual value
  // so a change in recovery behavior is noticed.
  run_kill9_schedule(/*after_2b_escaped=*/false, "zero");
}

}  // namespace
}  // namespace zdc::storage

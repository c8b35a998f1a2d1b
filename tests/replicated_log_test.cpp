// Unit and replication tests for the append-only replicated log.
#include <gtest/gtest.h>

#include <memory>
#include <string>
#include <vector>

#include "check/direct_net.h"
#include "core/replicated_log.h"

#include "abcast/c_abcast.h"

namespace zdc::core {
namespace {

TEST(ReplicatedLog, AppendReturnsStableIndices) {
  ReplicatedLogStateMachine log;
  EXPECT_EQ(log.apply(log_append("a")), "idx:0");
  EXPECT_EQ(log.apply(log_append("b")), "idx:1");
  EXPECT_EQ(log.apply(log_append("c")), "idx:2");
  EXPECT_EQ(log.size(), 3u);
}

TEST(ReplicatedLog, ReadAndRange) {
  ReplicatedLogStateMachine log;
  log.apply(log_append("alpha"));
  log.apply(log_append("beta"));
  EXPECT_EQ(log.apply(log_read(0)), "data:alpha");
  EXPECT_EQ(log.apply(log_read(1)), "data:beta");
  EXPECT_EQ(log.apply(log_read(2)), "out_of_range");
  EXPECT_EQ(log.apply(log_len()), "len:2");
}

TEST(ReplicatedLog, TrimKeepsIndicesStable) {
  ReplicatedLogStateMachine log;
  for (int i = 0; i < 5; ++i) log.apply(log_append("e" + std::to_string(i)));
  EXPECT_EQ(log.apply(log_trim(3)), "ok");
  EXPECT_EQ(log.first_index(), 3u);
  EXPECT_EQ(log.apply(log_read(2)), "out_of_range");  // trimmed away
  EXPECT_EQ(log.apply(log_read(3)), "data:e3");       // index unchanged
  EXPECT_EQ(log.apply(log_append("e5")), "idx:5");    // numbering continues
}

// The index contract from replicated_log.h, pinned: LEN is the *logical*
// length (end_index(), unchanged by TRIM) while size() is the *live* count
// (end_index() - first_index(), shrinks on TRIM). They only coincide before
// the first trim.
TEST(ReplicatedLog, LenIsLogicalLengthSizeIsLiveCountAfterTrim) {
  ReplicatedLogStateMachine log;
  for (int i = 0; i < 6; ++i) log.apply(log_append("e" + std::to_string(i)));
  EXPECT_EQ(log.apply(log_len()), "len:6");
  EXPECT_EQ(log.size(), 6u);

  EXPECT_EQ(log.apply(log_trim(4)), "ok");
  EXPECT_EQ(log.apply(log_len()), "len:6") << "LEN must survive TRIM";
  EXPECT_EQ(log.size(), 2u) << "size() is the live count";
  EXPECT_EQ(log.first_index(), 4u);
  EXPECT_EQ(log.end_index(), 6u);

  // Appends keep numbering from the logical length, so "idx:<n>" results
  // stay meaningful against LEN.
  EXPECT_EQ(log.apply(log_append("e6")), "idx:6");
  EXPECT_EQ(log.apply(log_len()), "len:7");
  EXPECT_EQ(log.size(), 3u);
}

// READ serves exactly the half-open window [first_index(), end_index()).
TEST(ReplicatedLog, ReadBoundariesPinnedToWindow) {
  ReplicatedLogStateMachine log;
  EXPECT_EQ(log.apply(log_read(0)), "out_of_range");  // empty log
  for (int i = 0; i < 5; ++i) log.apply(log_append("e" + std::to_string(i)));
  log.apply(log_trim(2));
  ASSERT_EQ(log.first_index(), 2u);
  ASSERT_EQ(log.end_index(), 5u);
  EXPECT_EQ(log.apply(log_read(1)), "out_of_range");  // below first_index()
  EXPECT_EQ(log.apply(log_read(2)), "data:e2");       // oldest readable
  EXPECT_EQ(log.apply(log_read(4)), "data:e4");       // newest readable
  EXPECT_EQ(log.apply(log_read(5)), "out_of_range");  // end_index() excluded
  // Trimming everything leaves an empty window at a nonzero position.
  log.apply(log_trim(5));
  EXPECT_EQ(log.size(), 0u);
  EXPECT_EQ(log.apply(log_read(4)), "out_of_range");
  EXPECT_EQ(log.apply(log_len()), "len:5");
}

TEST(ReplicatedLog, MalformedRejected) {
  ReplicatedLogStateMachine log;
  EXPECT_EQ(log.apply("junk"), "error:malformed");
  EXPECT_EQ(log.size(), 0u);
}

TEST(ReplicatedLog, SnapshotTracksContentAndFrame) {
  ReplicatedLogStateMachine a, b;
  EXPECT_EQ(a.snapshot(), b.snapshot());
  a.apply(log_append("x"));
  EXPECT_NE(a.snapshot(), b.snapshot());
  b.apply(log_append("x"));
  EXPECT_EQ(a.snapshot(), b.snapshot());
  a.apply(log_trim(1));
  EXPECT_NE(a.snapshot(), b.snapshot());  // same bytes, different frame
}

// Replication: concurrent appends through atomic broadcast land at the same
// indices on every replica — the order-dependent-result property.
TEST(ReplicatedLog, ConcurrentAppendsGetIdenticalIndicesEverywhere) {
  constexpr GroupParams kGroup{4, 1};
  check::AbcastNet net(
      kGroup, [](ProcessId s, GroupParams g, abcast::AbcastHost& h,
                 const fd::OmegaView& o, const fd::SuspectView&) {
        return std::unique_ptr<abcast::AtomicBroadcast>(
            abcast::make_c_abcast_l(s, g, h, o));
      });

  for (ProcessId p = 0; p < 4; ++p) {
    net.a_broadcast(p, log_append("from-p" + std::to_string(p)));
  }
  net.settle();

  // Apply each replica's delivery history to its own log; results (the
  // assigned indices) must agree replica-by-replica.
  std::vector<std::vector<std::string>> results(4);
  std::vector<std::string> snapshots;
  for (ProcessId p = 0; p < 4; ++p) {
    ReplicatedLogStateMachine log;
    for (const auto& m : net.delivered(p)) {
      results[p].push_back(log.apply(m.payload));
    }
    snapshots.push_back(log.snapshot());
    ASSERT_EQ(results[p].size(), 4u);
  }
  for (ProcessId p = 1; p < 4; ++p) {
    EXPECT_EQ(results[p], results[0]) << "replica " << p;
    EXPECT_EQ(snapshots[p], snapshots[0]) << "replica " << p;
  }
}

}  // namespace
}  // namespace zdc::core

// Tests for the zdc_analyze static analyzer (tools/analyze_core.*): the
// lexer's contract on comments, raw strings, preprocessor lines and
// multi-char punctuation; each check family against a fixture with seeded
// violations plus near-misses that must stay silent; the lock-order graph
// itself; cross-file alias resolution; and the suppression grammar
// (allow / allow-file, mandatory justification, unknown rule names).
#include <algorithm>
#include <fstream>
#include <set>
#include <sstream>
#include <string>
#include <utility>
#include <vector>

#include <gtest/gtest.h>

#include "analyze_core.h"

namespace zdc::analyze {
namespace {

std::string read_fixture(const std::string& name) {
  const std::string path = std::string(ANALYZE_FIXTURE_DIR) + "/" + name;
  std::ifstream in(path, std::ios::binary);
  EXPECT_TRUE(in.good()) << "missing fixture " << path;
  std::ostringstream buf;
  buf << in.rdbuf();
  return buf.str();
}

using Hits = std::vector<std::pair<int, std::string>>;

/// Analyzes one fixture as a whole program and returns (line, rule) pairs,
/// sorted. `deterministic` turns on the determinism rules, mirroring a file
/// living under one of the replay-bit-for-bit directories.
Hits hits(const std::string& name, bool deterministic = false,
          LockGraph* graph = nullptr) {
  const std::vector<SourceFile> files = {
      {name, read_fixture(name), deterministic}};
  Hits out;
  for (const Finding& f : analyze(files, graph)) {
    EXPECT_EQ(f.file, name);
    out.emplace_back(f.line, f.rule);
  }
  std::sort(out.begin(), out.end());
  return out;
}

// ---------------------------------------------------------------------------
// Lexer.

TEST(AnalyzeLex, CommentsAreConsumedAndLinesTracked) {
  const auto t = lex("int a; // fsync(\n/* span\nlines */ int b;\n");
  ASSERT_EQ(t.size(), 6u);
  EXPECT_EQ(t[0].text, "int");
  EXPECT_EQ(t[0].line, 1);
  EXPECT_EQ(t[1].text, "a");
  EXPECT_EQ(t[3].text, "int");
  EXPECT_EQ(t[3].line, 3);  // the block comment spanned two newlines
  EXPECT_EQ(t[4].text, "b");
  EXPECT_EQ(t[4].line, 3);
}

TEST(AnalyzeLex, RawStringsDropContentsAndCountLines) {
  // The raw string swallows a fake fsync( call and one newline; tokens after
  // it must land on the right lines and its contents must not leak.
  const auto t = lex("auto s = R\"zz(line one\nfsync( two)zz\";\nint z;");
  ASSERT_EQ(t.size(), 8u);
  EXPECT_EQ(t[3].kind, Tok::kString);
  EXPECT_EQ(t[3].text, "");
  EXPECT_EQ(t[3].line, 1);
  EXPECT_EQ(t[4].text, ";");
  EXPECT_EQ(t[4].line, 2);
  EXPECT_EQ(t[5].text, "int");
  EXPECT_EQ(t[5].line, 3);
}

TEST(AnalyzeLex, PreprocessorLinesAreSkippedIncludingContinuations) {
  const auto t = lex("#define FSYNC fsync \\\n  fsync(fd)\nint q;");
  ASSERT_EQ(t.size(), 3u);
  EXPECT_EQ(t[0].text, "int");
  EXPECT_EQ(t[0].line, 3);  // the continuation consumed line 2
  EXPECT_EQ(t[1].text, "q");
}

TEST(AnalyzeLex, QualificationPunctuationIsOneToken) {
  const auto t = lex("p->q::r");
  ASSERT_EQ(t.size(), 5u);
  EXPECT_EQ(t[1].text, "->");
  EXPECT_EQ(t[1].kind, Tok::kPunct);
  EXPECT_EQ(t[3].text, "::");
  EXPECT_EQ(t[3].kind, Tok::kPunct);
}

TEST(AnalyzeLex, NumbersAndCharLiterals) {
  // Digit separators, exponent suffixes and hex stay one token; a char
  // literal's contents are dropped like a string's.
  const auto t = lex("1'000'000 1e9f 0x1Fu 'x'");
  ASSERT_EQ(t.size(), 4u);
  EXPECT_EQ(t[0].kind, Tok::kNumber);
  EXPECT_EQ(t[0].text, "1'000'000");
  EXPECT_EQ(t[1].text, "1e9f");
  EXPECT_EQ(t[2].text, "0x1Fu");
  EXPECT_EQ(t[3].kind, Tok::kChar);
  EXPECT_EQ(t[3].text, "");
}

// ---------------------------------------------------------------------------
// Lock-graph family.

TEST(AnalyzeTest, LockOrderCycle) {
  LockGraph graph;
  EXPECT_EQ(hits("lock_cycle.cpp", false, &graph),
            (Hits{{42, "lock-order-cycle"}}));
  // Both inconsistent edges are in the graph, each via the call that closes
  // the window from one class's mutex into the other's.
  ASSERT_EQ(graph.edges.size(), 2u);
  EXPECT_EQ(graph.edges[0].from, "A::mu_");
  EXPECT_EQ(graph.edges[0].to, "B::mu_");
  EXPECT_EQ(graph.edges[0].via, "poke");
  EXPECT_EQ(graph.edges[1].from, "B::mu_");
  EXPECT_EQ(graph.edges[1].to, "A::mu_");
  EXPECT_EQ(graph.edges[1].via, "jab");
}

TEST(AnalyzeTest, ConsistentOrderIsClean) {
  LockGraph graph;
  EXPECT_TRUE(hits("lock_cycle_clean.cpp", false, &graph).empty());
  // The two call sites (step, stride) collapse into one deduplicated edge.
  ASSERT_EQ(graph.edges.size(), 1u);
  EXPECT_EQ(graph.edges[0].from, "Lo::mu_");
  EXPECT_EQ(graph.edges[0].to, "Hi::mu_");
  EXPECT_EQ(graph.edges[0].via, "poke");
  EXPECT_EQ(graph.mutexes,
            (std::vector<std::string>{"Hi::mu_", "Lo::mu_"}));
}

TEST(AnalyzeTest, RecursiveLock) {
  // Direct re-acquisition in one scope, and re-acquisition through a call
  // while the first guard is still live. The sibling() call after the inner
  // scope closes stays silent.
  EXPECT_EQ(hits("recursive_lock.cpp"),
            (Hits{{11, "recursive-lock"}, {20, "recursive-lock"}}));
}

TEST(AnalyzeTest, BlockingUnderLock) {
  // fsync directly under the guard, through the flush() callee, and ppoll
  // under the guard.
  EXPECT_EQ(hits("blocking_under_lock.cpp"),
            (Hits{{10, "blocking-under-lock"},
                  {14, "blocking-under-lock"},
                  {26, "blocking-under-lock"}}));
}

TEST(AnalyzeTest, BlockingNearMissesAreSilent) {
  // Guard scope closed before fsync; fsync( in comments and strings; a
  // method merely named fsync_meta called under the lock.
  EXPECT_TRUE(hits("blocking_clean.cpp").empty());
}

TEST(AnalyzeTest, CvWaitWithMultipleLocks) {
  // wait_two holds a_ and b_ across cv_.wait(); wait_one's single-lock wait
  // is the normal pattern and stays silent.
  EXPECT_EQ(hits("cv_wait.cpp"), (Hits{{11, "cv-wait-multi-lock"}}));
}

// ---------------------------------------------------------------------------
// Discarded-error family.

TEST(AnalyzeTest, DiscardedStatus) {
  // The bare sync() in careless() and the outer latch(wal.sync()) in wrap()
  // fire; assignment, (void), condition use, return-forwarding and the void
  // QuietStore::sync() stay silent.
  EXPECT_EQ(hits("discarded_status.cpp"),
            (Hits{{17, "discarded-status"}, {32, "discarded-status"}}));
}

// ---------------------------------------------------------------------------
// Determinism family.

TEST(AnalyzeTest, AliasResolvedClockAndRandom) {
  // Direct spellings fire (23, 40, 43), also on an alias declaration line
  // (7, 9); alias uses fire (13, 16, 19; two on one line dedupe) except on
  // an alias's own declaration line (8). C time and RNG calls fire in
  // free-call position only (38, 39, 41): the time() member declaration, the
  // m.time() call and the arrival_time identifier stay silent.
  EXPECT_EQ(hits("alias_det.cpp", /*deterministic=*/true),
            (Hits{{7, "wall-clock"},
                  {9, "raw-random"},
                  {13, "wall-clock"},
                  {16, "wall-clock"},
                  {19, "raw-random"},
                  {23, "raw-random"},
                  {38, "wall-time"},
                  {39, "wall-time"},
                  {40, "wall-clock"},
                  {41, "raw-random"},
                  {43, "raw-random"}}));
}

TEST(AnalyzeTest, AliasRulesAreScopedToDeterministicFiles) {
  EXPECT_TRUE(hits("alias_det.cpp", /*deterministic=*/false).empty());
}

TEST(AnalyzeTest, UnorderedFlow) {
  // Unordered iteration (range-for or begin(); direct, through the alias or
  // over a temporary) fires only in deterministic files; the
  // encode/fingerprint flow fires everywhere. Ordered containers and the
  // count() lookup stay silent.
  EXPECT_EQ(hits("unordered_flow.cpp", /*deterministic=*/true),
            (Hits{{20, "unordered-iter"},
                  {25, "unordered-iter"},
                  {29, "unordered-iter"},
                  {30, "unordered-encode-flow"},
                  {43, "unordered-encode-flow"},
                  {43, "unordered-iter"},
                  {48, "unordered-iter"},
                  {51, "unordered-iter"},
                  {52, "unordered-iter"},
                  {57, "unordered-iter"}}));
  EXPECT_EQ(hits("unordered_flow.cpp", /*deterministic=*/false),
            (Hits{{30, "unordered-encode-flow"},
                  {43, "unordered-encode-flow"}}));
}

TEST(AnalyzeTest, CrossFileAliasResolution) {
  // The aliases live in wire_alias.h; the deterministic .cpp never spells
  // the banned types. Both uses still resolve and fire.
  const std::vector<SourceFile> files = {
      {"wire_alias.h", read_fixture("wire_alias.h"), false},
      {"wire_alias_use.cpp", read_fixture("wire_alias_use.cpp"), true}};
  Hits out;
  for (const Finding& f : analyze(files)) {
    EXPECT_EQ(f.file, "wire_alias_use.cpp");
    out.emplace_back(f.line, f.rule);
  }
  std::sort(out.begin(), out.end());
  EXPECT_EQ(out, (Hits{{7, "wall-clock"}, {12, "unordered-iter"}}));
}

// ---------------------------------------------------------------------------
// Hygiene family.

TEST(AnalyzeTest, HygieneRules) {
  // Every analyzed file, deterministic or not (near-misses: hygiene.cpp).
  const Hits expected = {{7, "bare-assert"}, {8, "std-cout"}};
  EXPECT_EQ(hits("hygiene.cpp", /*deterministic=*/false), expected);
  EXPECT_EQ(hits("hygiene.cpp", /*deterministic=*/true), expected);
}

// ---------------------------------------------------------------------------
// Suppression grammar.

TEST(AnalyzeTest, AllowMarkers) {
  // A justified allow suppresses, on the line above (suppressed()) or the
  // same line (same_line()); no marker leaves the finding live (live()); a
  // reasonless marker reports allow-needs-reason AND leaves the finding live
  // (reasonless()); an unknown rule name reports unknown-allow likewise
  // (unknown_rule()); a marker for a different rule suppresses nothing
  // (wrong_rule()).
  EXPECT_EQ(hits("allow_marker.cpp"),
            (Hits{{20, "discarded-status"},
                  {24, "allow-needs-reason"},
                  {25, "discarded-status"},
                  {29, "unknown-allow"},
                  {30, "discarded-status"},
                  {35, "discarded-status"}}));
}

TEST(AnalyzeTest, AllowFileMarker) {
  // One justified allow-file(discarded-status) covers every drop in the file.
  EXPECT_TRUE(hits("allow_file.cpp").empty());
}

// ---------------------------------------------------------------------------
// Negative corpus, formatting, directory walk.

TEST(AnalyzeTest, CleanFile) {
  // Banned names confined to comments/strings/raw strings or contained in
  // longer identifiers, a consistent single-mutex class, every Status
  // consumed, ordered iteration feeding an Encoder, an unordered lookup:
  // nothing fires, under either rule scope.
  EXPECT_TRUE(hits("clean.cpp", /*deterministic=*/true).empty());
  EXPECT_TRUE(hits("clean.cpp", /*deterministic=*/false).empty());
}

TEST(AnalyzeTest, FormatIsStable) {
  const Finding f{"src/storage/wal.cpp", 7, "discarded-status", "boom"};
  EXPECT_EQ(format(f), "src/storage/wal.cpp:7: [discarded-status] boom");
}

TEST(AnalyzeTest, RunWalksFixtureTree) {
  // Drive the directory walker over the fixture dir as one whole program:
  // the seeded lock-order cycle is found, the hygiene rules run without
  // det_dirs, and with no det_dirs configured none of the determinism-only
  // rules fire.
  RunConfig cfg;
  cfg.root = ANALYZE_FIXTURE_DIR;
  cfg.analyze_dirs = {"."};
  cfg.det_dirs = {};
  std::set<std::string> rules;
  std::set<std::string> files;
  for (const Finding& f : run(cfg)) {
    rules.insert(f.rule);
    files.insert(f.file);
  }
  EXPECT_EQ(rules.count("lock-order-cycle"), 1u) << "seeded cycle not found";
  EXPECT_EQ(rules.count("bare-assert"), 1u) << "hygiene rule did not run";
  for (const char* det_only :
       {"wall-clock", "wall-time", "raw-random", "unordered-iter"}) {
    EXPECT_EQ(rules.count(det_only), 0u)
        << det_only << " fired without det_dirs";
  }
  bool saw_blocking = false;
  for (const std::string& f : files) {
    saw_blocking |= f.find("blocking_under_lock.cpp") != std::string::npos;
  }
  EXPECT_TRUE(saw_blocking) << "walker missed blocking_under_lock.cpp";
}

}  // namespace
}  // namespace zdc::analyze

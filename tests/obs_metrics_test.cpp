// MetricsRegistry semantics (family identity, label points, histogram
// bucketing), the concurrent-hammer test that gives TSan a real
// multi-writer/snapshot workload to chew on, and the check that the metric
// catalog in docs/OBSERVABILITY.md names exactly the families src/ registers.
#include "obs/metrics.h"

#include <gtest/gtest.h>

#include <filesystem>
#include <fstream>
#include <iterator>
#include <regex>
#include <set>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

namespace zdc::obs {
namespace {

TEST(MetricsRegistry, SameNameAndLabelsIsSameCounter) {
  MetricsRegistry reg;
  Counter& a = reg.counter("requests_total", {{"process", "0"}});
  Counter& b = reg.counter("requests_total", {{"process", "0"}});
  EXPECT_EQ(&a, &b);
  a.inc();
  b.inc(2);
  EXPECT_EQ(a.value(), 3u);
}

TEST(MetricsRegistry, LabelOrderDoesNotMatter) {
  MetricsRegistry reg;
  Counter& a = reg.counter("m", {{"x", "1"}, {"y", "2"}});
  Counter& b = reg.counter("m", {{"y", "2"}, {"x", "1"}});
  EXPECT_EQ(&a, &b);
}

TEST(MetricsRegistry, DistinctLabelsAreDistinctPoints) {
  MetricsRegistry reg;
  reg.counter("m", {{"process", "0"}}).inc(5);
  reg.counter("m", {{"process", "1"}}).inc(7);
  const auto snap = reg.snapshot();
  ASSERT_EQ(snap.size(), 1u);
  ASSERT_EQ(snap[0].points.size(), 2u);
  EXPECT_EQ(snap[0].points[0].counter, 5u);
  EXPECT_EQ(snap[0].points[1].counter, 7u);
}

TEST(MetricsRegistry, GaugeSetAndAdd) {
  MetricsRegistry reg;
  Gauge& g = reg.gauge("depth");
  g.set(4.0);
  g.add(1.5);
  g.add(-2.0);
  EXPECT_DOUBLE_EQ(g.value(), 3.5);
}

TEST(MetricsRegistry, HistogramBucketsAndMoments) {
  MetricsRegistry reg;
  Histogram& h = reg.histogram("lat", {1.0, 10.0});
  h.observe(0.5);   // bucket 0 (<= 1)
  h.observe(1.0);   // bucket 0 (boundary is inclusive)
  h.observe(5.0);   // bucket 1
  h.observe(99.0);  // overflow bucket
  EXPECT_EQ(h.count(), 4u);
  EXPECT_DOUBLE_EQ(h.sum(), 105.5);
  ASSERT_EQ(h.bounds().size(), 2u);
  EXPECT_EQ(h.bucket(0), 2u);
  EXPECT_EQ(h.bucket(1), 1u);
  EXPECT_EQ(h.bucket(2), 1u);
}

TEST(MetricsRegistry, EmptyBoundsGetDefaultLatencyBuckets) {
  MetricsRegistry reg;
  Histogram& h = reg.histogram("lat", {});
  EXPECT_EQ(h.bounds(), default_latency_buckets_ms());
}

TEST(MetricsRegistry, SnapshotIsSortedByFamilyName) {
  MetricsRegistry reg;
  reg.counter("zebra");
  reg.gauge("alpha");
  reg.histogram("midway", {1.0});
  const auto snap = reg.snapshot();
  ASSERT_EQ(snap.size(), 3u);
  EXPECT_EQ(snap[0].name, "alpha");
  EXPECT_EQ(snap[1].name, "midway");
  EXPECT_EQ(snap[2].name, "zebra");
  EXPECT_EQ(snap[0].kind, MetricKind::kGauge);
  EXPECT_EQ(snap[1].kind, MetricKind::kHistogram);
  EXPECT_EQ(snap[2].kind, MetricKind::kCounter);
}

// The TSan workload: many writer threads hammering a shared counter, a
// per-thread counter and a shared histogram while another thread repeatedly
// snapshots. Exact final counts prove no increment was lost.
TEST(MetricsRegistry, ConcurrentHammerExactCounts) {
  constexpr int kThreads = 8;
  constexpr int kIncrements = 20'000;

  MetricsRegistry reg;
  Counter& shared = reg.counter("hammer_shared_total");
  Histogram& hist = reg.histogram("hammer_lat", {0.5});

  std::atomic<bool> stop{false};
  std::thread snapshotter([&reg, &stop] {
    while (!stop.load(std::memory_order_acquire)) {
      (void)reg.snapshot();
    }
  });

  std::vector<std::thread> writers;
  writers.reserve(kThreads);
  for (int t = 0; t < kThreads; ++t) {
    writers.emplace_back([&reg, &shared, &hist, t] {
      Counter& mine =
          reg.counter("hammer_per_thread_total", {{"t", std::to_string(t)}});
      for (int i = 0; i < kIncrements; ++i) {
        shared.inc();
        mine.inc();
        hist.observe(i % 2 == 0 ? 0.25 : 1.0);
      }
    });
  }
  for (auto& w : writers) w.join();
  stop.store(true, std::memory_order_release);
  snapshotter.join();

  EXPECT_EQ(shared.value(),
            static_cast<std::uint64_t>(kThreads) * kIncrements);
  EXPECT_EQ(hist.count(), static_cast<std::uint64_t>(kThreads) * kIncrements);
  EXPECT_EQ(hist.bucket(0),
            static_cast<std::uint64_t>(kThreads) * (kIncrements / 2));
  for (int t = 0; t < kThreads; ++t) {
    EXPECT_EQ(
        reg.counter("hammer_per_thread_total", {{"t", std::to_string(t)}})
            .value(),
        static_cast<std::uint64_t>(kIncrements));
  }
}

// ---------------------------------------------------------------------------
// The catalog in docs/OBSERVABILITY.md §2 against the code.

namespace fs = std::filesystem;

std::string slurp(const fs::path& path) {
  std::ifstream in(path, std::ios::binary);
  return {std::istreambuf_iterator<char>(in), {}};
}

/// What the first group of `re` captures anywhere in `text`.
std::set<std::string> captures(const std::string& text, const std::regex& re) {
  std::set<std::string> out;
  for (std::sregex_iterator it(text.begin(), text.end(), re), end; it != end;
       ++it) {
    out.insert((*it)[1]);
  }
  return out;
}

TEST(MetricCatalog, ListsExactlyTheFamiliesTheCodeRegisters) {
  // The code side: every complete "zdc_..." string literal under src/
  // ("zdc_check.swarm", a seed label, is not complete).
  const std::regex literal("\"(zdc_[a-z0-9_]+)\"");
  std::set<std::string> code;
  for (const auto& entry :
       fs::recursive_directory_iterator(fs::path(ZDC_SOURCE_DIR) / "src")) {
    const std::string ext = entry.path().extension().string();
    if (ext == ".h" || ext == ".cpp") {
      code.merge(captures(slurp(entry.path()), literal));
    }
  }
  // ProcessShell::kind_family returns "zdc_sim_unknown_total" only after a
  // switch that covers every TraceKind, so no run registers it and the
  // catalog leaves it out. The literal must still exist, so this exemption
  // goes stale loudly if the fallback is ever removed.
  ASSERT_EQ(code.erase("zdc_sim_unknown_total"), 1u);

  // The doc side: the backticked names in the first column of the §2
  // tables.
  const std::regex name("`(zdc_[a-z0-9_]+)`");
  std::set<std::string> doc;
  std::istringstream lines(
      slurp(fs::path(ZDC_SOURCE_DIR) / "docs" / "OBSERVABILITY.md"));
  bool in_catalog = false;
  for (std::string line; std::getline(lines, line);) {
    if (line.rfind("## ", 0) == 0) in_catalog = line.rfind("## 2.", 0) == 0;
    if (in_catalog && line.rfind("| `", 0) == 0) {
      doc.merge(captures(line.substr(0, line.find('|', 1)), name));
    }
  }

  for (const std::string& family : code) {
    EXPECT_EQ(doc.count(family), 1u)
        << family << " is registered under src/ but missing from the catalog";
  }
  for (const std::string& family : doc) {
    EXPECT_EQ(code.count(family), 1u)
        << family << " is in the catalog but nothing under src/ registers it";
  }
}

}  // namespace
}  // namespace zdc::obs

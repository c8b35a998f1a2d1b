// Self-test of the benchmark's statistics (stats.h). run.py runs it before
// every benchmark run and refuses to report when it fails.
#include <cstdio>
#include <cstdlib>
#include <vector>

#include "stats.h"

namespace {

int failures = 0;

void check(bool ok, const char* what, int line) {
  if (!ok) {
    std::fprintf(stderr, "stats_test.cpp:%d: FAILED: %s\n", line, what);
    ++failures;
  }
}

#define CHECK(cond) check((cond), #cond, __LINE__)

bool near(double a, double b) { return a - b < 1e-9 && b - a < 1e-9; }

std::vector<double> one_to(int n) {
  std::vector<double> v;
  for (int i = 1; i <= n; ++i) v.push_back(i);
  return v;
}

void test_percentile() {
  using zdc::perfbench::percentile;
  // 1000 samples: p99 is the 990th, with exactly ten samples beyond it.
  const auto p99 = percentile(one_to(1000), 99.0);
  CHECK(near(p99.value, 990.0));
  CHECK(p99.beyond == 10);
  CHECK(p99.supported());
  // 999 samples leave only nine beyond p99: reported, but unsupported.
  const auto short_tail = percentile(one_to(999), 99.0);
  CHECK(short_tail.beyond == 9);
  CHECK(!short_tail.supported());
  // Nearest rank: p50 of 1..10 is 5, of 1..11 is 6.
  CHECK(near(percentile(one_to(10), 50.0).value, 5.0));
  CHECK(near(percentile(one_to(11), 50.0).value, 6.0));
  // Edges: empty, p = 0 and p = 100.
  CHECK(percentile({}, 50.0).beyond == 0);
  CHECK(near(percentile({}, 50.0).value, 0.0));
  CHECK(near(percentile(one_to(5), 0.0).value, 1.0));
  CHECK(near(percentile(one_to(5), 100.0).value, 5.0));
  CHECK(percentile(one_to(5), 100.0).beyond == 0);
}

void test_median() {
  using zdc::perfbench::median;
  CHECK(near(median({3.0, 1.0, 2.0}), 2.0));
  CHECK(near(median({4.0, 1.0, 3.0, 2.0}), 2.5));
  CHECK(near(median({7.0}), 7.0));
  CHECK(near(median({}), 0.0));
  // One wild trial does not move the median of a dozen.
  std::vector<double> gaps(12, 31.5);
  gaps[3] = 400.0;
  CHECK(near(median(gaps), 31.5));
}

void test_failover_gap() {
  using zdc::perfbench::failover_gap;
  // Replies every ms; the crash at 50.5 silences the service until 80.
  std::vector<double> replies;
  for (int t = 0; t <= 50; ++t) replies.push_back(t);
  for (int t = 80; t <= 120; ++t) replies.push_back(t);
  CHECK(near(failover_gap(replies, 50.5, 120.0), 30.0));
  // A reply already in flight lands at 51 (after the crash): the outage
  // still counts from 51 to 80.
  std::vector<double> in_flight = replies;
  in_flight.push_back(51.0);
  CHECK(near(failover_gap(in_flight, 50.5, 120.0), 29.0));
  // Input order does not matter.
  std::vector<double> reversed(replies.rbegin(), replies.rend());
  CHECK(near(failover_gap(reversed, 50.5, 120.0), 30.0));
  // No reply after the crash: the gap runs to the end of the load.
  std::vector<double> dead(replies.begin(), replies.begin() + 51);
  CHECK(near(failover_gap(dead, 50.5, 120.0), 70.0));
  // No reply before the crash: the gap starts at the crash.
  CHECK(near(failover_gap({60.0, 61.0}, 50.0, 61.0), 10.0));
  // Replies after the end of the load are not part of the trial.
  CHECK(near(failover_gap({10.0, 11.0, 500.0}, 10.5, 12.0), 1.0));
  // Without a failover the gap is the longest ordinary interval.
  CHECK(near(failover_gap({0.0, 1.0, 3.0, 4.0}, 0.5, 4.0), 2.0));
}

void test_covered() {
  using zdc::perfbench::covered;
  CHECK(near(covered(0.0, 10.0, {}), 0.0));
  CHECK(near(covered(0.0, 10.0, {{2.0, 4.0}, {6.0, 7.0}}), 3.0));
  // Overlapping and nested spans count once.
  CHECK(near(covered(0.0, 10.0, {{1.0, 5.0}, {3.0, 6.0}, {2.0, 3.0}}), 5.0));
  // Spans sticking out of the interval are clipped.
  CHECK(near(covered(2.0, 8.0, {{0.0, 3.0}, {7.0, 12.0}}), 2.0));
  CHECK(near(covered(2.0, 8.0, {{9.0, 12.0}, {0.0, 1.0}}), 0.0));
}

void test_op_counts() {
  using zdc::perfbench::is_error_reply;
  using zdc::perfbench::OpCounts;
  CHECK(is_error_reply("error:timeout"));
  CHECK(is_error_reply("error:stale"));
  CHECK(!is_error_reply("ok"));
  CHECK(!is_error_reply("value:error:x"));
  CHECK(!is_error_reply(""));
  OpCounts a;
  a.add(true);
  a.add(!is_error_reply("error:timeout"));
  a.add(true);
  CHECK(a.attempted == 3 && a.failed == 1);
}

}  // namespace

int main() {
  test_percentile();
  test_median();
  test_failover_gap();
  test_covered();
  test_op_counts();
  if (failures != 0) {
    std::fprintf(stderr, "%d statistics check(s) failed\n", failures);
    return EXIT_FAILURE;
  }
  return EXIT_SUCCESS;
}

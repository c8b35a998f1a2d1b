// The benchmark's own statistics: tail percentiles that say how many
// samples support them, medians over trials, the failover gap and the
// covered part of a span. Header-only and free of the library so that
// stats_test.cpp pins it without building a cluster.
#pragma once

#include <algorithm>
#include <cmath>
#include <cstddef>
#include <cstdint>
#include <string_view>
#include <utility>
#include <vector>

namespace zdc::perfbench {

/// A timing percentile is reported only when at least this many samples lie
/// beyond it; below that the tail is one or two unlucky samples.
inline constexpr std::size_t kMinBeyond = 10;

struct Percentile {
  double value = 0.0;
  std::size_t beyond = 0;  ///< samples strictly after the chosen rank
  [[nodiscard]] bool supported() const { return beyond >= kMinBeyond; }
};

/// Nearest-rank percentile of an ascending sample: the smallest sample s
/// such that at least p% of the samples are <= s. Empty -> {0, 0}.
inline Percentile percentile(const std::vector<double>& sorted, double p) {
  if (sorted.empty()) return {};
  const double n = static_cast<double>(sorted.size());
  std::size_t rank = static_cast<std::size_t>(std::ceil(p / 100.0 * n));
  rank = std::clamp<std::size_t>(rank, 1, sorted.size());
  return {sorted[rank - 1], sorted.size() - rank};
}

/// Median for trial-level figures: the middle value, or the mean of the
/// two middle values for an even count. Empty -> 0.
inline double median(std::vector<double> v) {
  if (v.empty()) return 0.0;
  std::sort(v.begin(), v.end());
  const std::size_t mid = v.size() / 2;
  return v.size() % 2 == 1 ? v[mid] : (v[mid - 1] + v[mid]) / 2.0;
}

/// The longest interval without a successful reply around a crash at
/// `crash`, with the load running until `end`. The interval starts at the
/// last reply at or before the crash (the crash itself when there is none)
/// and the candidates are the intervals between consecutive later replies,
/// up to `end` when no reply follows. Replies that were already in flight
/// when the leader died may land just after the crash; they end a short
/// interval, and the outage that follows them is still the longest one.
inline double failover_gap(std::vector<double> replies, double crash,
                           double end) {
  std::sort(replies.begin(), replies.end());
  const auto after = std::upper_bound(replies.begin(), replies.end(), crash);
  double prev = after == replies.begin() ? crash : *(after - 1);
  double gap = 0.0;
  for (auto it = after; it != replies.end() && *it <= end; ++it) {
    gap = std::max(gap, *it - prev);
    prev = *it;
  }
  return std::max(gap, end - prev);
}

/// Length of the part of [lo, hi] that the union of `spans` covers; spans
/// may overlap, nest or stick out of the interval.
inline double covered(double lo, double hi,
                      std::vector<std::pair<double, double>> spans) {
  std::sort(spans.begin(), spans.end());
  double total = 0.0;
  double reach = lo;  // everything in [lo, reach] is already counted
  for (const auto& [start, finish] : spans) {
    const double a = std::max(start, reach);
    const double b = std::min(finish, hi);
    if (b > a) {
      total += b - a;
      reach = b;
    }
  }
  return total;
}

/// A client reply that reports a failure ("error:timeout" included).
inline bool is_error_reply(std::string_view reply) {
  return reply.substr(0, 6) == "error:";
}

/// Attempted and failed operations of one run. An operation fails when it
/// gets an error reply or is still uncommitted when the drain ends.
struct OpCounts {
  std::uint64_t attempted = 0;
  std::uint64_t failed = 0;

  void add(bool ok) {
    ++attempted;
    if (!ok) ++failed;
  }
};

}  // namespace zdc::perfbench

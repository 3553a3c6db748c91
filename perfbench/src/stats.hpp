// Order statistics for the benchmark's latency and per-window figures.
#pragma once

#include <algorithm>
#include <cmath>
#include <cstddef>
#include <vector>

namespace perfbench {

/// Nearest-rank percentile: the smallest sample with at least p% of the
/// samples at or below it. `sorted` must be ascending and non-empty.
inline double percentile_sorted(const std::vector<double>& sorted, double p) {
  const double n = static_cast<double>(sorted.size());
  std::size_t rank = static_cast<std::size_t>(std::ceil(p / 100.0 * n));
  rank = std::clamp<std::size_t>(rank, 1, sorted.size());
  return sorted[rank - 1];
}

/// Samples strictly above the nearest-rank p-th percentile's position — how
/// many observations the percentile rests on from above. A p99 is reported
/// only when this is at least 10 (n >= 1000).
inline std::size_t samples_beyond(std::size_t n, double p) {
  const auto rank =
      static_cast<std::size_t>(std::ceil(p / 100.0 * static_cast<double>(n)));
  return n - std::min(n, rank);
}

/// Median of a copy (mean of the two middle values for even counts).
inline double median(std::vector<double> v) {
  if (v.empty()) return 0.0;
  std::sort(v.begin(), v.end());
  const std::size_t mid = v.size() / 2;
  return v.size() % 2 == 1 ? v[mid] : (v[mid - 1] + v[mid]) / 2.0;
}

/// Latency summary of one measurement window.
struct LatencySummary {
  std::size_t samples = 0;
  double p50_us = 0.0;
  double p99_us = 0.0;
};

inline LatencySummary summarize(std::vector<double> latencies_us) {
  LatencySummary s;
  s.samples = latencies_us.size();
  if (latencies_us.empty()) return s;
  std::sort(latencies_us.begin(), latencies_us.end());
  s.p50_us = percentile_sorted(latencies_us, 50.0);
  s.p99_us = percentile_sorted(latencies_us, 99.0);
  return s;
}

}  // namespace perfbench

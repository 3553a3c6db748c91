// What one benchmark run reports, and the names every workload shares.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

namespace perfbench {

struct Options {
  std::string workload;
  std::uint64_t seed = 1;
  int seconds = 10;
  bool trace = false;
  /// Directory for the echo episodes' Unix-domain sockets; keep the
  /// path short (sun_path holds 107 bytes).
  std::string sock_dir = ".bench_build/sock";
};

struct Metric {
  std::string name;
  double value = 0.0;
  std::string unit;
};

struct Outcome {
  std::uint64_t attempted = 0;
  std::uint64_t failed = 0;
  /// False when any check failed or a run aborted.
  bool correct = true;
  std::vector<Metric> metrics;

  void add(std::string name, double value, std::string unit) {
    metrics.push_back({std::move(name), value, std::move(unit)});
  }
  /// Record one failed check (the first few are printed to stderr).
  void fail(const std::string& what);
};

/// Windows an untraced MCAM run splits --seconds into; its timing figures
/// are medians over them.
inline constexpr int kWindows = 16;
/// Each window runs until it holds this many latency samples, so its p99
/// rests on at least ten samples beyond it.
inline constexpr std::size_t kMinSamples = 1000;
/// An untraced MCAM run sets up at least kSetups times, and until
/// kSetupShare of --seconds went to set-up (at most kMaxSetups times).
inline constexpr std::size_t kSetups = 3;
inline constexpr double kSetupShare = 0.25;
inline constexpr std::size_t kMaxSetups = 16;
/// A run fails when its pinned CPU sat idle for more than this share of
/// the run (see CpuIdleMeter).
inline constexpr double kMaxIdleShare = 0.05;

/// One measured window.
struct WindowFigures {
  double rate = 0.0;
  double p50_us = 0.0;
  double p99_us = 0.0;
};

/// Add req_per_s, req_p50_us and req_p99_us: medians over the windows.
void add_window_medians(Outcome& out,
                        const std::vector<WindowFigures>& windows);

/// Process high-water resident set (VmHWM), in MiB.
[[nodiscard]] double peak_rss_mb();

/// Every per-layer metric, in BENCHMARK.json order, so a traced run reports
/// the full set on every workload (0 where a layer is not on the path).
extern const char* const kLayerMetrics[];
extern const std::size_t kLayerMetricCount;

/// Fill in any per-layer metric the workload did not measure with 0, and
/// order them as kLayerMetrics.
void complete_layer_metrics(Outcome& out);

Outcome run_mcam(const Options& opt);

/// The distributed runtime's per-layer metrics (estelle.transport.* and
/// estelle.dist.*), from echo episodes of the §5.1 test environment over
/// two nodes; the mcam_catalog traced run appends them.
void add_dist_layer_metrics(const Options& opt, Outcome& out);

}  // namespace perfbench

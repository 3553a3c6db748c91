#include "outcome.hpp"

#include <algorithm>
#include <cstdio>
#include <fstream>
#include <string>

#include "stats.hpp"

namespace perfbench {

const char* const kLayerMetrics[] = {
    "estelle.guards_per_req",
    "estelle.candidates_per_req",
    "estelle.rounds_per_req",
    "estelle.fired_per_req",
    "estelle.alloc_rounds_per_req",
    "estelle.sched_us_per_req",
    "estelle.run_calls_per_req",
    "osi.presentation_us_per_req",
    "osi.session_us_per_req",
    "osi.transport_us_per_req",
    "osi.transport_retransmits_per_req",
    "osi.isode_us_per_req",
    "osi.generated_over_isode",
    "mcam.mca_client_us_per_req",
    "mcam.mca_server_us_per_req",
    "mcam.pdu_codec_us_per_req",
    "mcam.pdu_codec_allocs_per_req",
    "mcam.pdu_bytes_per_req",
    "directory.read_us_per_op",
    "directory.write_us_per_op",
    "directory.hits_per_search",
    "estelle.transport.frames_per_req",
    "estelle.transport.bytes_per_req",
    "estelle.transport.syscalls_per_req",
    "estelle.transport.send_us_per_req",
    "estelle.transport.flush_us_per_req",
    "estelle.transport.recv_blocked_us_per_round",
    "estelle.dist.rounds_per_req",
    "estelle.dist.round_us",
    "estelle.dist.null_rounds_per_round",
    "estelle.dist.parallel_round_share",
    "estelle.dist.overlap_polls_per_round",
    "estelle.dist.wide_over_narrow_req_per_s",
    "estelle.dist.wide_p99_us",
    "trace.overhead_frac",
    "trace.accounted_frac",
};
const std::size_t kLayerMetricCount = std::size(kLayerMetrics);

namespace {

const char* layer_unit(const std::string& name) {
  if (name.ends_with("_us") || name.find("_us_per_") != std::string::npos)
    return "us";
  if (name.find("bytes") != std::string::npos) return "bytes";
  if (name.ends_with("_frac") || name.ends_with("_share") ||
      name.find("_over_") != std::string::npos)
    return "ratio";
  return "count";
}

}  // namespace

void Outcome::fail(const std::string& what) {
  constexpr std::uint64_t kPrinted = 10;
  if (failed < kPrinted) std::fprintf(stderr, "FAILED: %s\n", what.c_str());
  ++failed;
  correct = false;
}

void add_window_medians(Outcome& out,
                        const std::vector<WindowFigures>& windows) {
  std::vector<double> rates, p50s, p99s;
  for (const WindowFigures& w : windows) {
    rates.push_back(w.rate);
    p50s.push_back(w.p50_us);
    p99s.push_back(w.p99_us);
  }
  out.add("req_per_s", median(rates), "1/s");
  out.add("req_p50_us", median(p50s), "us");
  out.add("req_p99_us", median(p99s), "us");
}

double peak_rss_mb() {
  std::ifstream status("/proc/self/status");
  std::string line;
  while (std::getline(status, line))
    if (line.starts_with("VmHWM:"))
      return std::stod(line.substr(6)) / 1024.0;  // kB
  return 0.0;
}

void complete_layer_metrics(Outcome& out) {
  std::vector<Metric> ordered;
  for (std::size_t i = 0; i < kLayerMetricCount; ++i) {
    const std::string name = kLayerMetrics[i];
    auto it = std::find_if(out.metrics.begin(), out.metrics.end(),
                           [&](const Metric& m) { return m.name == name; });
    ordered.push_back(it != out.metrics.end()
                          ? *it
                          : Metric{name, 0.0, layer_unit(name)});
  }
  out.metrics = std::move(ordered);
}

}  // namespace perfbench

// perfbench — the repository's end-to-end benchmark.
//
//   perfbench --workload mcam_control|mcam_catalog --seed N
//             --seconds S --trace 0|1 [--sock-dir DIR]
//
// Progress and per-window figures go to stderr; the last line on stdout is
// one JSON object: {"correct", "attempted", "failed", "metrics"}. With
// --trace 0 the metrics are the end-to-end set, measured untraced; with
// --trace 1 they are the per-layer set.
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <exception>
#include <string>

#include "outcome.hpp"

namespace {

int usage(const char* argv0) {
  std::fprintf(stderr,
               "usage: %s --workload mcam_control|mcam_catalog "
               "--seed N --seconds S --trace 0|1 [--sock-dir DIR]\n",
               argv0);
  return 2;
}

void print_json(const perfbench::Outcome& out) {
  std::printf("{\"correct\": %s, \"attempted\": %llu, \"failed\": %llu, "
              "\"metrics\": {",
              out.correct ? "true" : "false",
              static_cast<unsigned long long>(out.attempted),
              static_cast<unsigned long long>(out.failed));
  for (std::size_t i = 0; i < out.metrics.size(); ++i) {
    const perfbench::Metric& m = out.metrics[i];
    const double v = std::isfinite(m.value) ? m.value : 0.0;
    std::printf("%s\"%s\": {\"value\": %.17g, \"unit\": \"%s\"}",
                i == 0 ? "" : ", ", m.name.c_str(), v, m.unit.c_str());
  }
  std::printf("}}\n");
}

}  // namespace

int main(int argc, char** argv) {
  perfbench::Options opt;
  bool have_trace = false;
  for (int i = 1; i < argc; ++i) {
    const auto want = [&](const char* flag) {
      return std::strcmp(argv[i], flag) == 0 && i + 1 < argc;
    };
    if (want("--workload")) {
      opt.workload = argv[++i];
    } else if (want("--seed")) {
      opt.seed = std::strtoull(argv[++i], nullptr, 10);
    } else if (want("--seconds")) {
      opt.seconds = std::atoi(argv[++i]);
    } else if (want("--trace")) {
      opt.trace = std::strcmp(argv[++i], "0") != 0;
      have_trace = true;
    } else if (want("--sock-dir")) {
      opt.sock_dir = argv[++i];
    } else {
      return usage(argv[0]);
    }
  }
  if ((opt.workload != "mcam_control" && opt.workload != "mcam_catalog") ||
      opt.seconds < 1 || !have_trace)
    return usage(argv[0]);

  try {
    perfbench::Outcome out = perfbench::run_mcam(opt);
    if (opt.trace) perfbench::complete_layer_metrics(out);
    if (out.attempted == 0) out.correct = false;
    std::fflush(stderr);
    print_json(out);
  } catch (const std::exception& e) {
    std::fprintf(stderr, "perfbench: %s\n", e.what());
    return 1;
  }
  return 0;
}

// sfbench: runs one benchmark workload against the SmartFlux libraries and
// prints its result as the last line of standard output, one JSON object:
//   {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}
//
//   sfbench --workload <http_ingest|lrb_adaptive|read_under_ingest>
//           --seed <n> --seconds <s> --trace <0|1>
//           [--t0-ns <CLOCK_MONOTONIC ns at launch>] [--data-dir <dir>]
//           [--perturb 1]
//
// --trace 0 reports the end-to-end metrics, --trace 1 the per-layer ones.
// --perturb 1 alters one value the output check reads, so the run must
// report correct=false (the check's self-test).

#include <sys/resource.h>

#include <cmath>
#include <cstdio>
#include <cstring>
#include <exception>
#include <string>
#include <thread>

#include "common.h"

namespace perfbench {

namespace {
const Clock::time_point g_main_start = Clock::now();
}  // namespace

Clock::time_point process_start(const RunOptions& options) {
  if (options.t0_ns <= 0) return g_main_start;
  // libstdc++'s steady_clock reads CLOCK_MONOTONIC, the launcher's clock.
  return Clock::time_point(std::chrono::nanoseconds(options.t0_ns));
}

double peak_rss_mb() {
  rusage usage{};
  getrusage(RUSAGE_SELF, &usage);
  return static_cast<double>(usage.ru_maxrss) / 1024.0;
}

std::string fresh_dir(const std::string& dir) {
  std::filesystem::remove_all(dir);
  std::filesystem::create_directories(dir);
  return dir;
}

std::size_t hardware_threads(std::size_t cap) {
  const std::size_t n = std::thread::hardware_concurrency();
  return std::max<std::size_t>(1, std::min(cap, n));
}

}  // namespace perfbench

namespace {

void print_result(const perfbench::Result& result) {
  for (const std::string& note : result.notes) std::printf("%s\n", note.c_str());
  std::printf("{\"correct\": %s, \"attempted\": %llu, \"failed\": %llu, \"metrics\": {",
              result.correct ? "true" : "false",
              static_cast<unsigned long long>(result.attempted),
              static_cast<unsigned long long>(result.failed));
  bool first = true;
  for (const auto& [name, metric] : result.metrics) {
    std::printf("%s\"%s\": {\"value\": %.17g, \"unit\": \"%s\"}", first ? "" : ", ", name.c_str(),
                std::isfinite(metric.value) ? metric.value : 0.0, metric.unit.c_str());
    first = false;
  }
  std::printf("}}\n");
  std::fflush(stdout);
}

}  // namespace

int main(int argc, char** argv) {
  perfbench::RunOptions options;
  for (int i = 1; i + 1 < argc; i += 2) {
    const std::string flag = argv[i];
    const char* value = argv[i + 1];
    if (flag == "--workload") {
      options.workload = value;
    } else if (flag == "--seed") {
      options.seed = std::strtoull(value, nullptr, 10);
    } else if (flag == "--seconds") {
      options.seconds = std::strtod(value, nullptr);
    } else if (flag == "--trace") {
      options.trace = std::strcmp(value, "0") != 0;
    } else if (flag == "--perturb") {
      options.perturb = std::strcmp(value, "0") != 0;
    } else if (flag == "--t0-ns") {
      options.t0_ns = std::strtoll(value, nullptr, 10);
    } else if (flag == "--data-dir") {
      options.data_dir = value;
    } else {
      std::fprintf(stderr, "unknown flag %s\n", flag.c_str());
      return 2;
    }
  }
  try {
    perfbench::Result result;
    if (options.workload == "http_ingest") {
      result = perfbench::run_http_ingest(options);
    } else if (options.workload == "lrb_adaptive") {
      result = perfbench::run_lrb_adaptive(options);
    } else if (options.workload == "read_under_ingest") {
      result = perfbench::run_read_under_ingest(options);
    } else {
      std::fprintf(stderr, "unknown workload '%s'\n", options.workload.c_str());
      return 2;
    }
    print_result(result);
  } catch (const std::exception& e) {
    std::fprintf(stderr, "benchmark error: %s\n", e.what());
    return 1;
  }
  return 0;
}

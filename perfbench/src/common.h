#pragma once

// Shared pieces of the benchmark program: run options, the result line,
// seeded draws, percentiles, clocks and the data directory.

#include <algorithm>
#include <chrono>
#include <cstdint>
#include <filesystem>
#include <map>
#include <string>
#include <utility>
#include <vector>

namespace perfbench {

using Clock = std::chrono::steady_clock;

struct RunOptions {
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = 10.0;
  bool trace = false;
  /// Self-test: alter one value the output check reads, so a correct run
  /// must be reported incorrect.
  bool perturb = false;
  /// CLOCK_MONOTONIC reading taken by the launcher just before it started
  /// this process; set-up time is measured from it. 0 = from main().
  std::int64_t t0_ns = 0;
  /// Directory (inside the checkout) for the durable store's files.
  std::string data_dir = ".bench_data";
};

struct Metric {
  double value = 0.0;
  std::string unit;
};

/// What one workload run reports: the result line's fields.
struct Result {
  bool correct = true;
  std::uint64_t attempted = 0;
  std::uint64_t failed = 0;
  std::map<std::string, Metric> metrics;
  /// Human-readable notes printed before the result line.
  std::vector<std::string> notes;

  void set(const std::string& name, double value, const std::string& unit) {
    metrics[name] = Metric{value, unit};
  }
  /// Records a failed output check; the run then reports correct=false.
  void fail_check(const std::string& what) {
    correct = false;
    notes.push_back("CHECK FAILED: " + what);
  }
};

/// SplitMix64: the benchmark's only source of generated inputs.
inline std::uint64_t mix64(std::uint64_t x) noexcept {
  x += 0x9e3779b97f4a7c15ULL;
  x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9ULL;
  x = (x ^ (x >> 27)) * 0x94d049bb133111ebULL;
  return x ^ (x >> 31);
}

inline std::uint64_t draw(std::uint64_t seed, std::uint64_t a, std::uint64_t b = 0,
                          std::uint64_t c = 0) noexcept {
  return mix64(mix64(mix64(seed ^ 0x5bd1e995ULL) + a) + (b << 1) + c * 0x2545f4914f6cdd1dULL);
}

/// Nearest-rank percentile (q in [0,1]) of an unsorted sample; 0 if empty.
inline double percentile(std::vector<double> v, double q) {
  if (v.empty()) return 0.0;
  std::sort(v.begin(), v.end());
  const auto rank = static_cast<std::size_t>(q * static_cast<double>(v.size() - 1) + 0.5);
  return v[std::min(rank, v.size() - 1)];
}

/// Robust summary of a run's latencies, given in the order they were taken:
/// the run is cut into up to ten windows of at least twenty samples, the
/// q-quantile is taken in each, and the median of those is returned. A burst
/// of slowness confined to one window barely moves it.
inline double windowed_percentile(const std::vector<double>& v, double q) {
  const std::size_t windows = std::clamp<std::size_t>(v.size() / 20, 1, 10);
  const std::size_t per = v.size() / windows;
  std::vector<double> per_window;
  for (std::size_t w = 0; w < windows; ++w) {
    const auto first = v.begin() + static_cast<std::ptrdiff_t>(w * per);
    const auto last = w + 1 == windows ? v.end() : first + static_cast<std::ptrdiff_t>(per);
    per_window.push_back(percentile(std::vector<double>(first, last), q));
  }
  return percentile(per_window, 0.5);
}

inline double ms_between(Clock::time_point a, Clock::time_point b) {
  return std::chrono::duration<double, std::milli>(b - a).count();
}

inline double seconds_since(Clock::time_point a) {
  return std::chrono::duration<double>(Clock::now() - a).count();
}

/// Process start as a steady-clock point (the launcher's reading when given).
Clock::time_point process_start(const RunOptions& options);

/// Peak resident set size of this process, in MB.
double peak_rss_mb();

/// Removes and recreates `dir`; returns it.
std::string fresh_dir(const std::string& dir);

/// Hardware threads, at least 1 and at most `cap`.
std::size_t hardware_threads(std::size_t cap);

Result run_http_ingest(const RunOptions& options);
Result run_lrb_adaptive(const RunOptions& options);
Result run_read_under_ingest(const RunOptions& options);

}  // namespace perfbench

// read_under_ingest: open-loop reads beside a fixed-rate keyed writer on the
// AQHI serving stack. Set-up populates the whole sensor grid. The timed part
// runs, each on its own connection and at a fixed rate well below
// saturation: GET /get point reads of random sensor cells, streamed
// GET /scan of the whole sensor table, and POST /ingest/sensors of rows
// overwriting existing cells. Waves drain the writer's rows at a fixed pace.
// Every latency is timed from the request's due time, so a stall also
// counts against the requests queued behind it.

#include <cstdio>
#include <algorithm>
#include <cstdlib>
#include <exception>
#include <memory>
#include <mutex>
#include <thread>

#include "common.h"
#include "http_client.h"
#include "layers.h"
#include "stack.h"

namespace perfbench {

namespace {

constexpr std::size_t kGrid = 32;  ///< 3072 sensor cells
constexpr std::size_t kCells = kGrid * kGrid * 3;
constexpr std::size_t kDetectorsPerRequest = 16;
constexpr std::size_t kSetupDetectorsPerRequest = 64;
constexpr std::size_t kServerLoops = 1;
constexpr double kWavePaceMs = 50.0;
constexpr double kWriterRate = 200.0;  ///< POSTs per second
constexpr double kGetRate = 500.0;  ///< GETs per second
constexpr double kScanRate = 5.0;  ///< whole-table scans per second

/// Values posted per cell, in posting order. The writer appends before it
/// sends, so a value is on record before any reader can see it.
struct PostedValues {
  std::mutex mutex;
  std::vector<std::vector<double>> values = std::vector<std::vector<double>>(kCells);
  void add(std::size_t cell, double v) {
    std::lock_guard lock(mutex);
    values[cell].push_back(v);
  }
};

/// What one open-loop generator thread saw.
struct LoopLog {
  std::vector<double> latency_ms;  ///< due time -> response complete
  std::vector<double> late_ms;     ///< due time -> send
  std::uint64_t attempted = 0;
  std::uint64_t failed = 0;
  std::vector<std::pair<std::size_t, double>> reads;  ///< /get: (cell, value)
  std::string error;
  std::string bad_scan;
};

/// Runs `op(i)` at `rate` per second from `start` until `deadline`; `op`
/// returns false when the operation failed.
template <typename Op>
void open_loop(double rate, Clock::time_point start, Clock::time_point deadline, LoopLog& log,
               Op op) {
  try {
    for (std::uint64_t i = 0;; ++i) {
      const auto due = start + std::chrono::duration_cast<Clock::duration>(
                                   std::chrono::duration<double>(static_cast<double>(i) / rate));
      if (due >= deadline) break;
      std::this_thread::sleep_until(due);
      const auto sent = Clock::now();
      ++log.attempted;
      const bool ok = op(i);
      log.latency_ms.push_back(ms_between(due, Clock::now()));
      log.late_ms.push_back(ms_between(due, sent));
      if (!ok) ++log.failed;
    }
  } catch (const std::exception& e) {
    log.error = e.what();
  }
}

/// Check of one streamed scan: parses, strict (row, column) order, exactly
/// the table's cell count. Returns an empty string when it holds.
std::string check_scan(const std::string& body, std::size_t perturb_line) {
  std::size_t lines = 0;
  std::string prev_row;
  std::string prev_col;
  std::size_t pos = 0;
  while (pos < body.size()) {
    const std::size_t eol = body.find('\n', pos);
    if (eol == std::string::npos) return "unterminated line";
    const std::size_t c1 = body.find(',', pos);
    const std::size_t c2 = c1 == std::string::npos ? c1 : body.find(',', c1 + 1);
    if (c2 == std::string::npos || c2 > eol) return "unparsable line";
    std::string row = body.substr(pos, c1 - pos);
    std::string col = body.substr(c1 + 1, c2 - c1 - 1);
    char* end = nullptr;
    std::strtod(body.c_str() + c2 + 1, &end);
    if (end != body.c_str() + eol) return "unparsable value";
    if (lines == perturb_line) std::swap(col, prev_col);
    if (lines > 0 && !(prev_row < row || (prev_row == row && prev_col < col))) {
      return "out of (row, column) order at line " + std::to_string(lines + 1);
    }
    prev_row = std::move(row);
    prev_col = std::move(col);
    ++lines;
    pos = eol + 1;
  }
  if (lines != kCells) return std::to_string(lines) + " cells, expected " + std::to_string(kCells);
  return {};
}

}  // namespace

Result run_read_under_ingest(const RunOptions& options) {
  Result result;
  const std::string dir = fresh_dir(options.data_dir);
  std::unique_ptr<LayerProbe> probe = options.trace ? std::make_unique<LayerProbe>() : nullptr;
  auto stack = std::make_unique<ServingStack>(dir, kGrid, kServerLoops, probe.get());
  PostedValues posted;

  if (!stack->populate(options.seed, kSetupDetectorsPerRequest, kWavePaceMs,
                       [&](std::size_t cell, double v) { posted.add(cell, v); })) {
    result.fail_check("a set-up POST was refused");
    return result;
  }
  const double setup_s = seconds_since(process_start(options));

  LoopLog gets;
  LoopLog scans;
  LoopLog writes;
  const auto start = Clock::now();
  const auto deadline = start + std::chrono::duration_cast<Clock::duration>(
                                    std::chrono::duration<double>(options.seconds));
  const std::uint16_t port = stack->port();
  const std::uint64_t seed = options.seed;
  {
    std::vector<std::thread> threads;
    threads.emplace_back([&] {
      HttpClient http(port);
      std::string target;
      open_loop(kGetRate, start, deadline, gets, [&](std::uint64_t i) {
        const std::size_t cell = draw(seed, 0x6e7, i) % kCells;
        const auto [row, col] = sensor_cell(kGrid, cell);
        target = "/get?table=sensors&row=" + row + "&col=" + col;
        const HttpResponse r = http.request("GET", target);
        const std::size_t v = r.body.find("\"value\":");
        if (r.status != 200 || v == std::string::npos) return false;
        gets.reads.emplace_back(cell, std::strtod(r.body.c_str() + v + 8, nullptr));
        return true;
      });
    });
    threads.emplace_back([&] {
      HttpClient http(port);
      open_loop(kScanRate, start, deadline, scans, [&](std::uint64_t i) {
        const HttpResponse r = http.request("GET", "/scan?table=sensors&stream=1");
        if (r.status != 200 || !r.chunked) return false;
        // Self-test: the first scan's checker sees two keys swapped.
        const std::string bad = check_scan(r.body, options.perturb && i == 0 ? 2 : kCells);
        if (!bad.empty() && scans.bad_scan.empty()) scans.bad_scan = bad;
        return true;
      });
    });
    threads.emplace_back([&] {
      HttpClient http(port);
      const std::size_t offset = draw(seed, 0x0ff) % (kGrid * kGrid);
      open_loop(kWriterRate, start, deadline, writes, [&](std::uint64_t i) {
        const std::string body =
            sensor_body(kGrid, seed, 1, i, offset + i * kDetectorsPerRequest, kDetectorsPerRequest,
                        [&](std::size_t cell, double v) { posted.add(cell, v); });
        const HttpResponse r = http.request("POST", "/ingest/sensors", body,
                                            "Idempotency-Key: w-" + std::to_string(i) + "\r\n");
        return r.status == 202;
      });
    });
    for (std::thread& t : threads) t.join();
  }
  const double elapsed = seconds_since(start);
  if (!stack->stop_driver()) result.fail_check("a wave failed");
  stack->stop_server();

  std::vector<double> late_ms;
  for (const LoopLog* log : {&gets, &scans, &writes}) {
    late_ms.insert(late_ms.end(), log->late_ms.begin(), log->late_ms.end());
    result.attempted += log->attempted;
    result.failed += log->failed;
    if (!log->error.empty()) result.fail_check("generator error: " + log->error);
  }
  const std::uint64_t reads = gets.attempted - gets.failed + scans.attempted - scans.failed;
  if (options.perturb && !gets.reads.empty()) gets.reads.front().second += 0.5;
  for (const auto& [cell, value] : gets.reads) {
    const auto& values = posted.values[cell];
    if (std::find(values.begin(), values.end(), value) == values.end()) {
      result.fail_check("/get of " + sensor_cell(kGrid, cell).first + " returned " +
                        std::to_string(value) + ", never posted for it");
      break;
    }
  }
  if (!scans.bad_scan.empty()) result.fail_check("scan: " + scans.bad_scan);

  result.notes.push_back(
      "read_under_ingest: " + std::to_string(reads) + " reads, " +
      std::to_string(writes.attempted) + " writes, " + std::to_string(stack->commits().size()) +
      " waves; generator late p50 " + std::to_string(percentile(late_ms, 0.5)) + " ms, p99 " +
      std::to_string(percentile(late_ms, 0.99)) + " ms; writer ack p50 " +
      std::to_string(percentile(writes.latency_ms, 0.5)) + " ms");

  if (probe) {
    probe->report(result, &stack->server(), &stack->bridge(), stack->commits().size());
  } else {
    result.set("setup_s", setup_s, "s");
    result.set("peak_rss_mb", peak_rss_mb(), "MB");
    result.set("throughput_per_s", static_cast<double>(reads) / elapsed, "1/s");
    result.set("op_p50_ms", windowed_percentile(gets.latency_ms, 0.50), "ms");
    result.set("op_p90_ms", windowed_percentile(gets.latency_ms, 0.90), "ms");
    result.set("op2_p50_ms", windowed_percentile(scans.latency_ms, 0.50), "ms");
    result.set("op2_p90_ms", windowed_percentile(scans.latency_ms, 0.90), "ms");
    result.set("tolerant_execs_per_wave",
               static_cast<double>(stack->tolerant_executions()) /
                   static_cast<double>(std::max<std::size_t>(1, stack->commits().size())),
               "count");
  }
  stack.reset();
  std::filesystem::remove_all(dir);
  return result;
}

}  // namespace perfbench

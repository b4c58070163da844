// http_ingest: closed-loop keyed ingest over HTTP into the AQHI serving
// stack. Set-up posts the whole detector grid once. In the timed part each
// client owns a contiguous share of the grid and posts its detectors in
// order, `kDetectorsPerRequest` detectors (three pollutant rows each) per
// request, sending the next request only when the previous one was
// acknowledged. A fixed seeded share of requests is sent a second time with
// the same Idempotency-Key and must come back as a duplicate.

#include <cmath>
#include <exception>
#include <limits>
#include <memory>
#include <thread>

#include "common.h"
#include "http_client.h"
#include "layers.h"
#include "stack.h"

namespace perfbench {

namespace ds = smartflux::ds;

namespace {

constexpr std::size_t kGrid = 64;  ///< 64x64 detectors, 12288 sensor cells
constexpr std::size_t kCells = kGrid * kGrid * 3;
constexpr std::size_t kDetectorsPerRequest = 4;  ///< 12 rows per request
constexpr std::size_t kSetupDetectorsPerRequest = 64;
constexpr std::size_t kServerLoops = 1;
constexpr std::uint64_t kReplayOneIn = 16;  ///< share of requests re-sent

struct ClientLog {
  /// (ack time, POST->202 ms) of every POST, original and replay.
  std::vector<std::pair<Clock::time_point, double>> acks;
  std::vector<Clock::time_point> acked;  ///< ack time of each original POST
  std::uint64_t attempted = 0;
  std::uint64_t failed = 0;
  std::uint64_t rows = 0;     ///< distinct rows acknowledged
  std::uint64_t replays = 0;  ///< replays re-acked as duplicates
  std::vector<double> last;  ///< last value acknowledged per owned cell (NaN: none)
  std::string error;
};

void run_client(std::uint16_t port, std::uint64_t seed, std::size_t client,
                std::size_t clients, Clock::time_point deadline, ClientLog& log) {
  try {
    HttpClient http(port);
    const std::size_t first = client * (kGrid * kGrid) / clients;
    const std::size_t owned = (client + 1) * (kGrid * kGrid) / clients - first;
    std::vector<std::pair<std::size_t, double>> cells;
    log.last.assign(owned * 3, std::numeric_limits<double>::quiet_NaN());
    const std::string staged = "\"staged\":" + std::to_string(kDetectorsPerRequest * 3) + ",";
    for (std::uint64_t seq = 0; Clock::now() < deadline; ++seq) {
      cells.clear();
      const std::string body = sensor_body(
          kGrid, seed, 1 + client, seq, first + (seq * kDetectorsPerRequest) % owned,
          kDetectorsPerRequest, [&](std::size_t cell, double v) { cells.emplace_back(cell, v); });
      const std::string key_header =
          "Idempotency-Key: c" + std::to_string(client) + "-" + std::to_string(seq) + "\r\n";
      const bool replay = draw(seed, 0xfeed, client, seq) % kReplayOneIn == 0;
      for (int send = 0; send < (replay ? 2 : 1); ++send) {
        ++log.attempted;
        const auto t0 = Clock::now();
        const HttpResponse r = http.request("POST", "/ingest/sensors", body, key_header);
        const auto t1 = Clock::now();
        log.acks.emplace_back(t1, ms_between(t0, t1));
        const bool ok = r.status == 202 &&
                        r.body.find(send == 0 ? staged : "\"duplicate\":true") != std::string::npos;
        if (!ok) {
          ++log.failed;
        } else if (send == 1) {
          ++log.replays;
        } else {
          log.acked.push_back(t1);
          log.rows += cells.size();
          for (const auto& [cell, value] : cells) log.last[cell - first * 3] = value;
        }
      }
    }
  } catch (const std::exception& e) {
    log.error = e.what();
  }
}

double concentration(double o3, double pm25, double no2) {
  // §5.1 step 2: the weighted multiplicative model, exponents summing to 1.
  return 100.0 * std::pow(o3 / 100.0, 0.5) * std::pow(pm25 / 100.0, 0.3) *
         std::pow(no2 / 100.0, 0.2);
}

bool close_to(double a, double b) { return std::fabs(a - b) <= 1e-9 * std::max(1.0, std::fabs(b)); }

}  // namespace

Result run_http_ingest(const RunOptions& options) {
  Result result;
  const std::string dir = fresh_dir(options.data_dir);
  std::unique_ptr<LayerProbe> probe = options.trace ? std::make_unique<LayerProbe>() : nullptr;
  auto stack = std::make_unique<ServingStack>(dir, kGrid, kServerLoops, probe.get());
  // The last value posted for each sensor cell, set-up included.
  std::vector<double> expected(kCells, std::numeric_limits<double>::quiet_NaN());
  if (!stack->populate(options.seed, kSetupDetectorsPerRequest, 0.0,
                       [&](std::size_t cell, double v) { expected[cell] = v; })) {
    result.fail_check("a set-up POST was refused");
    return result;
  }
  const std::uint64_t setup_rows = kCells;
  const double setup_s = seconds_since(process_start(options));

  const std::size_t clients = hardware_threads(2);
  std::vector<ClientLog> logs(clients);
  const auto start = Clock::now();
  const auto deadline = start + std::chrono::duration_cast<Clock::duration>(
                                    std::chrono::duration<double>(options.seconds));
  {
    std::vector<std::thread> threads;
    for (std::size_t c = 0; c < clients; ++c) {
      threads.emplace_back(run_client, stack->port(), options.seed, c, clients, deadline,
                           std::ref(logs[c]));
    }
    for (std::thread& t : threads) t.join();
  }
  const double elapsed = seconds_since(start);
  const bool waves_ok = stack->stop_driver();
  stack->stop_server();

  std::vector<std::pair<Clock::time_point, double>> acks;
  std::vector<Clock::time_point> acked;
  std::uint64_t rows = 0;
  std::uint64_t replays = 0;
  for (std::size_t c = 0; c < clients; ++c) {
    ClientLog& log = logs[c];
    result.attempted += log.attempted;
    result.failed += log.failed;
    rows += log.rows;
    replays += log.replays;
    acks.insert(acks.end(), log.acks.begin(), log.acks.end());
    acked.insert(acked.end(), log.acked.begin(), log.acked.end());
    const std::size_t first_cell = 3 * (c * (kGrid * kGrid) / clients);
    for (std::size_t i = 0; i < log.last.size(); ++i) {
      if (!std::isnan(log.last[i])) expected[first_cell + i] = log.last[i];
    }
    if (!log.error.empty()) result.fail_check("client error: " + log.error);
  }
  if (!waves_ok) result.fail_check("a wave failed");

  // Durable latency: a request's rows were staged before its 202 left the
  // server, so they are in the first wave whose drain began after the ack
  // arrived, or an earlier one. Counting against that wave's commit makes
  // this an upper bound, exact up to the ack's own flight time.
  std::sort(acks.begin(), acks.end());
  std::vector<double> ack_ms;
  ack_ms.reserve(acks.size());
  for (const auto& [t, ms] : acks) ack_ms.push_back(ms);
  std::sort(acked.begin(), acked.end());
  const auto& drains = stack->drains().starts;
  const auto& commits = stack->commits();
  std::vector<double> durable_ms;
  durable_ms.reserve(acked.size());
  std::size_t k = 0;
  for (const Clock::time_point t : acked) {
    while (k < drains.size() && drains[k] < t) ++k;
    if (k >= commits.size()) {
      result.fail_check("an acknowledged request was never drained into a wave");
      break;
    }
    durable_ms.push_back(ms_between(t, commits[k]));
  }

  // Throughput: the median of the run's whole seconds, each counting the
  // rows acknowledged in it, so a slow first second or a stall does not
  // move the figure as much as it would move the mean.
  const std::size_t rows_per_request = kDetectorsPerRequest * 3;
  std::vector<double> per_second(static_cast<std::size_t>(options.seconds), 0.0);
  for (const Clock::time_point t : acked) {
    const auto w = static_cast<std::size_t>(std::chrono::duration<double>(t - start).count());
    if (w < per_second.size()) per_second[w] += static_cast<double>(rows_per_request);
  }
  const double rows_per_s = per_second.empty() ? static_cast<double>(rows) / elapsed
                                               : percentile(per_second, 0.5);

  // Check 1: two independent totals — rows the bridge drained against the
  // distinct rows acknowledged, and duplicates it counted against replays.
  const auto stats = stack->bridge().stats();
  if (stats.rows_ingested != setup_rows + rows) {
    result.fail_check("bridge drained " + std::to_string(stats.rows_ingested) +
                      " rows, " + std::to_string(setup_rows + rows) + " were acknowledged");
  }
  if (stats.duplicates != replays) {
    result.fail_check("bridge counted " + std::to_string(stats.duplicates) +
                      " duplicates, clients replayed " + std::to_string(replays));
  }

  // Check 2: each sensor cell holds the last value posted for it.
  if (options.perturb) expected[0] += 1.0;
  const StoreContents live = read_contents(stack->store());
  const auto sensors_it = live.find("sensors");
  bool sensors_ok = sensors_it != live.end() && sensors_it->second.size() == kCells;
  for (std::size_t cell = 0; sensors_ok && cell < kCells; ++cell) {
    const auto got = sensors_it->second.find(sensor_cell(kGrid, cell));
    sensors_ok = got != sensors_it->second.end() && got->second == expected[cell];
  }
  if (!sensors_ok) result.fail_check("sensors table differs from the last values posted");

  // Check 3: concentration and zones recomputed from the posted values.
  std::map<std::string, double> conc;
  for (std::size_t d = 0; d < kGrid * kGrid; ++d) {
    conc[detector_row(d / kGrid, d % kGrid)] =
        concentration(expected[d * 3], expected[d * 3 + 1], expected[d * 3 + 2]);
  }
  const auto conc_it = live.find("concentration");
  bool conc_ok = conc_it != live.end() && conc_it->second.size() == conc.size();
  if (conc_ok) {
    for (const auto& [cell, value] : conc_it->second) {
      const auto want = conc.find(cell.first);
      conc_ok = conc_ok && cell.second == "conc" && want != conc.end() &&
                close_to(value, want->second);
    }
  }
  if (!conc_ok) result.fail_check("concentration differs from its recomputation");
  const std::size_t zone = 2;  // AqhiParams::zone
  const auto zones_it = live.find("zones");
  bool zones_ok = zones_it != live.end() &&
                  zones_it->second.size() == (kGrid / zone) * (kGrid / zone);
  for (std::size_t zx = 0; zones_ok && zx < kGrid / zone; ++zx) {
    for (std::size_t zy = 0; zones_ok && zy < kGrid / zone; ++zy) {
      double sum = 0.0;
      std::size_t n = 0;
      for (std::size_t dx = 0; dx < zone; ++dx) {
        for (std::size_t dy = 0; dy < zone; ++dy) {
          const auto it = conc.find(detector_row(zx * zone + dx, zy * zone + dy));
          if (it != conc.end()) {
            sum += it->second;
            ++n;
          }
        }
      }
      const std::string row = "z" + std::to_string(zx) + "_" + std::to_string(zy);
      const auto got = zones_it->second.find({row, "conc"});
      zones_ok = got != zones_it->second.end() &&
                 close_to(got->second, n == 0 ? 0.0 : sum / static_cast<double>(n));
    }
  }
  if (!zones_ok) result.fail_check("zones differ from their recomputation");

  if (options.trace) {
    probe->report(result, &stack->server(), &stack->bridge(), stack->commits().size());
  } else {
    result.set("setup_s", setup_s, "s");
    result.set("throughput_per_s", rows_per_s, "1/s");
    result.set("op_p50_ms", windowed_percentile(ack_ms, 0.50), "ms");
    result.set("op_p90_ms", windowed_percentile(ack_ms, 0.90), "ms");
    result.set("op2_p50_ms", windowed_percentile(durable_ms, 0.50), "ms");
    result.set("op2_p90_ms", windowed_percentile(durable_ms, 0.90), "ms");
    result.set("tolerant_execs_per_wave",
               static_cast<double>(stack->tolerant_executions()) /
                   static_cast<double>(std::max<std::size_t>(1, stack->commits().size())),
               "count");
  }
  result.notes.push_back("http_ingest: " + std::to_string(rows) + " rows in " +
                         std::to_string(acked.size()) + " requests + " + std::to_string(replays) +
                         " replays, " + std::to_string(stack->commits().size()) + " waves over " +
                         std::to_string(elapsed) + " s");

  if (!options.trace) result.set("peak_rss_mb", peak_rss_mb(), "MB");

  // Check 4: recovery of the data directory yields the live contents.
  stack.reset();
  probe.reset();
  {
    ds::ShardOptions shards;
    shards.shards = 4;
    const auto recovered = ds::DataStore::recover(dir, {}, 2, nullptr, shards);
    if (read_contents(*recovered) != live) {
      result.fail_check("recovered store differs from the live store");
    }
  }
  std::filesystem::remove_all(dir);
  return result;
}

}  // namespace perfbench

#pragma once

// The serving composition `examples/aqhi_monitor --serve` ships, built from
// the program's public API: a durable 4-shard store (WAL flushed at every
// wave commit), the multi-loop HTTP server and gateway, the IngestBridge,
// and a driver thread that runs the AQHI compute workflow wave by wave
// through WorkflowEngine::run_waves_pipelined under a SyncController.

#include <atomic>
#include <cstdio>
#include <cstdlib>
#include <map>
#include <memory>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include "common.h"
#include "http_client.h"
#include "datastore/datastore.h"
#include "layers.h"
#include "net/bridge.h"
#include "net/server.h"
#include "wms/engine.h"
#include "workloads/aqhi/aqhi.h"

namespace perfbench {

/// Every cell of every table: table -> (row, column) -> value.
using StoreContents = std::map<std::string, std::map<std::pair<std::string, std::string>, double>>;

StoreContents read_contents(const smartflux::ds::DataStore& store);

/// "d<x>_<y>", the AQHI workload's detector row key.
std::string detector_row(std::size_t x, std::size_t y);

/// The three sensor columns of a detector row; cell index = detector * 3 + p.
inline constexpr const char* kPollutants[3] = {"o3", "pm25", "no2"};

/// Row key and column of sensor cell `cell` on a `grid`-wide detector grid.
std::pair<std::string, std::string> sensor_cell(std::size_t grid, std::size_t cell);

/// An ingest body (`row,col,value` lines) for `detectors` consecutive
/// detectors from `first` (wrapping), three pollutant rows each, with
/// values drawn from (seed, stream, seq). `record(cell, value)` receives the
/// value each row carries, parsed back from the text that was posted.
template <typename Record>
std::string sensor_body(std::size_t grid, std::uint64_t seed, std::uint64_t stream,
                        std::uint64_t seq, std::size_t first, std::size_t detectors,
                        Record&& record) {
  std::string body;
  char value_text[32];
  for (std::size_t i = 0; i < detectors; ++i) {
    const std::size_t d = (first + i) % (grid * grid);
    const std::string row = detector_row(d / grid, d % grid);
    for (std::size_t p = 0; p < 3; ++p) {
      const double value =
          1.0 + static_cast<double>(draw(seed, stream, seq, d * 3 + p) % 99000) / 1000.0;
      std::snprintf(value_text, sizeof value_text, "%.3f", value);
      record(d * 3 + p, std::strtod(value_text, nullptr));
      body.append(row).append(",").append(kPollutants[p]).append(",").append(value_text);
      body.append("\n");
    }
  }
  return body;
}

class ServingStack {
 public:
  /// `probe` (nullable) turns on the program's sinks and the wrappers.
  ServingStack(const std::string& data_dir, std::size_t grid, std::size_t loops,
               LayerProbe* probe);
  ~ServingStack();
  ServingStack(const ServingStack&) = delete;
  ServingStack& operator=(const ServingStack&) = delete;

  std::uint16_t port() const { return server_->port(); }

  /// Starts the wave driver. pace_ms > 0 starts a wave every pace_ms;
  /// 0 runs waves back to back.
  void start_driver(double pace_ms);
  /// Stops the driver after its current wave, then runs one more wave so
  /// everything staged so far is drained and committed. Returns false if
  /// a wave failed.
  bool stop_driver();
  /// Set-up: posts the whole sensor grid over one connection, `per_request`
  /// detectors at a time, starts the driver and waits until a wave has
  /// drained every cell. `record` sees each posted value. False when a
  /// POST was refused.
  template <typename Record>
  bool populate(std::uint64_t seed, std::size_t per_request, double pace_ms, Record&& record);

  /// Stops the HTTP server (idempotent).
  void stop_server();

  smartflux::ds::DataStore& store() { return *store_; }
  smartflux::net::IngestBridge& bridge() { return *bridge_; }
  const smartflux::net::Server& server() const { return *server_; }
  const DrainLog& drains() const { return drains_; }
  /// Return time of each wave's engine call, in wave order.
  const std::vector<Clock::time_point>& commits() const { return commits_; }
  std::uint64_t tolerant_executions() const { return tolerant_executions_; }

 private:
  void run_one_wave();

  LayerProbe* probe_;
  std::size_t grid_;
  std::unique_ptr<smartflux::ds::DataStore> store_;
  smartflux::workloads::AqhiWorkload workload_;
  std::unique_ptr<smartflux::wms::WorkflowEngine> engine_;
  std::unique_ptr<smartflux::net::IngestBridge> bridge_;
  std::unique_ptr<smartflux::net::Server> server_;
  DrainLog drains_;
  smartflux::wms::WaveIngest ingest_;
  smartflux::wms::SyncController sync_;
  std::vector<std::size_t> tolerant_;
  smartflux::ds::Timestamp next_wave_ = 1;
  std::vector<Clock::time_point> commits_;
  std::uint64_t tolerant_executions_ = 0;
  std::uint64_t failed_steps_ = 0;
  bool wave_error_ = false;
  std::atomic<bool> stop_{false};
  std::thread driver_;  ///< last: joins before the state it uses goes away
};

template <typename Record>
bool ServingStack::populate(std::uint64_t seed, std::size_t per_request, double pace_ms,
                            Record&& record) {
  const std::size_t detectors = grid_ * grid_;
  {
    HttpClient http(port());
    for (std::size_t d = 0; d < detectors; d += per_request) {
      const std::string body = sensor_body(grid_, seed, 0, d, d, per_request, record);
      const HttpResponse r = http.request("POST", "/ingest/sensors", body,
                                          "Idempotency-Key: init-" + std::to_string(d) + "\r\n");
      if (r.status != 202) return false;
    }
  }
  start_driver(pace_ms);
  while (store_->cell_count("sensors") < detectors * 3) {
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
  }
  return true;
}

}  // namespace perfbench

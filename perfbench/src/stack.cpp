#include "stack.h"

#include <cstdio>
#include <exception>

#include "net/gateway.h"

namespace perfbench {

namespace ds = smartflux::ds;
namespace net = smartflux::net;
namespace wms = smartflux::wms;

StoreContents read_contents(const ds::DataStore& store) {
  StoreContents out;
  for (const std::string& table : store.table_names()) {
    auto& cells = out[table];
    store.scan_container(ds::ContainerRef::whole_table(table),
                         [&cells](const ds::RowKey& row, const ds::ColumnKey& col, double v) {
                           cells[{row, col}] = v;
                         });
  }
  return out;
}

std::string detector_row(std::size_t x, std::size_t y) {
  return "d" + std::to_string(x) + "_" + std::to_string(y);
}

std::pair<std::string, std::string> sensor_cell(std::size_t grid, std::size_t cell) {
  const std::size_t d = cell / 3;
  return {detector_row(d / grid, d % grid), kPollutants[cell % 3]};
}

namespace {

smartflux::workloads::AqhiParams aqhi_params(std::size_t grid) {
  smartflux::workloads::AqhiParams params;
  params.grid = grid;
  return params;
}

}  // namespace

ServingStack::ServingStack(const std::string& data_dir, std::size_t grid, std::size_t loops,
                           LayerProbe* probe)
    : probe_(probe), grid_(grid), workload_(aqhi_params(grid)) {
  ds::ShardOptions shards;
  shards.shards = 4;
  store_ = std::make_unique<ds::DataStore>(2, shards);
  if (probe_ != nullptr) store_->set_instrumentation(&probe_->registry);
  ds::DurabilityOptions durability;
  durability.flush = ds::WalFlushPolicy::kEveryWave;
  durability.metrics = probe_ != nullptr ? &probe_->registry : nullptr;
  store_->enable_durability(data_dir, durability);

  wms::WorkflowSpec spec = workload_.make_compute_workflow();
  if (probe_ != nullptr) spec = wrap_steps(spec, *probe_);
  tolerant_ = spec.error_tolerant_steps();
  wms::WorkflowEngine::Options engine_options;
  if (probe_ != nullptr) {
    engine_options.metrics = &probe_->registry;
    engine_options.tracer = &probe_->tracer;
  }
  engine_ = std::make_unique<wms::WorkflowEngine>(std::move(spec), *store_, engine_options);

  net::IngestBridge::Options bridge_options;
  if (probe_ != nullptr) bridge_options.metrics = &probe_->registry;
  bridge_ = std::make_unique<net::IngestBridge>(bridge_options);
  ingest_ = wrap_ingest(bridge_->make_ingest(), *bridge_, drains_, probe_);

  net::GatewayOptions gateway;
  gateway.store = store_.get();
  gateway.ingest = bridge_.get();
  if (probe_ != nullptr) gateway.metrics = &probe_->registry;
  net::ServerOptions server_options;
  server_options.loop_threads = loops;
  if (probe_ != nullptr) server_options.metrics = &probe_->registry;
  server_ = std::make_unique<net::Server>(net::make_gateway_router(gateway), server_options);
  server_->start();
}

ServingStack::~ServingStack() {
  stop_.store(true);
  if (driver_.joinable()) driver_.join();
  stop_server();
}

void ServingStack::stop_server() {
  if (server_ != nullptr) server_->stop();
}

void ServingStack::run_one_wave() {
  const auto t0 = Clock::now();
  std::vector<wms::WaveResult> results;
  try {
    results = engine_->run_waves_pipelined(next_wave_++, 1, sync_, ingest_);
  } catch (const std::exception& e) {
    std::fprintf(stderr, "wave failed: %s\n", e.what());
    wave_error_ = true;
    return;
  }
  const auto t1 = Clock::now();
  commits_.push_back(t1);
  if (probe_ != nullptr) probe_->add_wave(ms_between(t0, t1));
  for (const wms::WaveResult& r : results) {
    for (std::size_t idx : tolerant_) tolerant_executions_ += r.executed[idx] ? 1 : 0;
    failed_steps_ += r.failed_count();
  }
}

void ServingStack::start_driver(double pace_ms) {
  driver_ = std::thread([this, pace_ms] {
    const auto start = Clock::now();
    for (std::size_t k = 1; !stop_.load(std::memory_order_relaxed) && !wave_error_; ++k) {
      run_one_wave();
      if (pace_ms > 0.0) {
        std::this_thread::sleep_until(
            start + std::chrono::duration_cast<Clock::duration>(
                        std::chrono::duration<double, std::milli>(pace_ms * static_cast<double>(k))));
      }
    }
  });
}

bool ServingStack::stop_driver() {
  stop_.store(true);
  if (driver_.joinable()) driver_.join();
  run_one_wave();
  return !wave_error_ && failed_steps_ == 0;
}

}  // namespace perfbench

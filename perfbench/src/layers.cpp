#include "layers.h"

#include <algorithm>
#include <string>
#include <utility>

namespace perfbench {

namespace obs = smartflux::obs;
namespace wms = smartflux::wms;

namespace {

bool labels_match(const obs::Labels& labels, const char* key, const char* value) {
  if (key == nullptr) return true;
  for (const auto& [k, v] : labels) {
    if (k == key) return v == value;
  }
  return false;
}

/// Every series of histogram family `name` (optionally only those with
/// label key=value) merged into one distribution.
obs::HistogramSnapshot merged_histogram(const obs::MetricsSnapshot& snapshot,
                                        const std::string& name, const char* key = nullptr,
                                        const char* value = nullptr) {
  obs::HistogramSnapshot merged;
  for (const obs::MetricSnapshot& m : snapshot.metrics) {
    if (m.name != name || m.kind != obs::MetricKind::kHistogram) continue;
    if (!labels_match(m.labels, key, value)) continue;
    if (merged.counts.empty()) {
      merged = m.histogram;
      continue;
    }
    for (std::size_t i = 0; i < merged.counts.size() && i < m.histogram.counts.size(); ++i) {
      merged.counts[i] += m.histogram.counts[i];
    }
    merged.sum += m.histogram.sum;
    merged.count += m.histogram.count;
  }
  return merged;
}

std::uint64_t counter_sum(const obs::MetricsSnapshot& snapshot, const std::string& name) {
  std::uint64_t total = 0;
  for (const obs::MetricSnapshot& m : snapshot.metrics) {
    if (m.name == name && m.kind == obs::MetricKind::kCounter) total += m.counter_value;
  }
  return total;
}

}  // namespace

void LayerProbe::add_step(double ms) {
  std::lock_guard lock(mutex_);
  busy_in_wave_ += ms;
  ++steps_executed_;
}

void LayerProbe::add_wave(double wave_ms) {
  std::lock_guard lock(mutex_);
  wave_ms_.push_back(wave_ms);
  wave_busy_ms_.push_back(busy_in_wave_);
  busy_in_wave_ = 0.0;
}

void LayerProbe::add_drain(double ms, std::uint64_t rows, std::uint64_t staged_before) {
  std::lock_guard lock(mutex_);
  drain_ms_.push_back(ms);
  rows_per_wave_.push_back(static_cast<double>(rows));
  staged_peak_ = std::max(staged_peak_, staged_before);
}

void LayerProbe::add_gate(double us, bool execute) {
  std::lock_guard lock(mutex_);
  gate_us_.push_back(us);
  ++(execute ? triggered_ : skipped_);
}

void LayerProbe::add_train_wave(double ms) {
  std::lock_guard lock(mutex_);
  train_wave_ms_.push_back(ms);
}

void LayerProbe::report(Result& result, const smartflux::net::Server* server,
                        const smartflux::net::IngestBridge* bridge, std::uint64_t waves) {
  std::lock_guard lock(mutex_);
  const obs::MetricsSnapshot snap = registry.snapshot();

  const auto req = merged_histogram(snap, "sf_net_request_duration_seconds");
  result.set("net.handle_ms_p50", 1e3 * req.quantile(0.50), "ms");
  result.set("net.handle_ms_p99", 1e3 * req.quantile(0.99), "ms");
  result.set("net.requests", static_cast<double>(counter_sum(snap, "sf_net_requests_total")),
             "count");
  result.set("net.bytes_written",
             static_cast<double>(counter_sum(snap, "sf_net_bytes_written_total")), "bytes");
  result.set("net.peak_write_buffer_kb",
             server != nullptr ? static_cast<double>(server->stats().peak_write_buffer) / 1024.0
                               : 0.0,
             "KiB");

  result.set("bridge.drain_ms_p50", percentile(drain_ms_, 0.50), "ms");
  result.set("bridge.drain_ms_p99", percentile(drain_ms_, 0.99), "ms");
  result.set("bridge.rows_per_wave_p50", percentile(rows_per_wave_, 0.50), "rows");
  result.set("bridge.staged_rows_peak", static_cast<double>(staged_peak_), "rows");
  result.set("bridge.duplicates",
             bridge != nullptr ? static_cast<double>(bridge->stats().duplicates) : 0.0,
             "count");

  result.set("wms.wave_ms_p50", percentile(wave_ms_, 0.50), "ms");
  result.set("wms.step_busy_ms_p50", percentile(wave_busy_ms_, 0.50), "ms");
  result.set("wms.steps_executed", static_cast<double>(steps_executed_), "count");

  const auto put_batch = merged_histogram(snap, "sf_ds_op_duration_seconds", "op", "put_batch");
  const auto scan = merged_histogram(snap, "sf_ds_op_duration_seconds", "op", "scan");
  const auto get = merged_histogram(snap, "sf_ds_op_duration_seconds", "op", "get");
  const auto fsync = merged_histogram(snap, "sf_ds_wal_fsync_duration_seconds");
  result.set("ds.put_batch_ms_p50", 1e3 * put_batch.quantile(0.50), "ms");
  result.set("ds.fsync_ms_p50", 1e3 * fsync.quantile(0.50), "ms");
  result.set("ds.fsync_ms_p99", 1e3 * fsync.quantile(0.99), "ms");
  result.set("ds.wal_bytes_per_wave",
             waves > 0 ? static_cast<double>(counter_sum(snap, "sf_ds_wal_bytes_total")) /
                             static_cast<double>(waves)
                       : 0.0,
             "bytes");
  result.set("ds.scan_ms_p50", 1e3 * scan.quantile(0.50), "ms");
  result.set("ds.scan_ms_p99", 1e3 * scan.quantile(0.99), "ms");
  result.set("ds.get_us_p50", 1e6 * get.quantile(0.50), "us");

  // Each gate call runs one multi-label predict; the ML layer's histogram
  // holds one sample per forest, so its sum over the gate calls is the
  // predict share of a gate call and the rest is the ι harvest.
  const auto predict = merged_histogram(snap, "sf_ml_predict_duration_seconds");
  const double gate_p50 = percentile(gate_us_, 0.50);
  const double predict_per_gate =
      gate_us_.empty() ? 0.0 : 1e6 * predict.sum / static_cast<double>(gate_us_.size());
  result.set("core.gate_us_p50", gate_p50, "us");
  result.set("core.harvest_us_p50",
             gate_us_.empty() ? 0.0 : std::max(0.0, gate_p50 - predict_per_gate), "us");
  result.set("core.triggered", static_cast<double>(triggered_), "count");
  result.set("core.skipped", static_cast<double>(skipped_), "count");
  result.set("core.train_wave_ms_p50", percentile(train_wave_ms_, 0.50), "ms");
  result.set("ml.predict_us_p50", 1e6 * predict.quantile(0.50), "us");

  // Training time from the program's tracer: the forests' fit spans.
  double fit_ms = 0.0;
  for (const obs::SpanRecord& span : tracer.snapshot()) {
    if (span.name == "forest_fit") {
      fit_ms += std::chrono::duration<double, std::milli>(span.duration).count();
    }
  }
  result.set("ml.train_ms", fit_ms, "ms");
}

wms::WorkflowSpec wrap_steps(const wms::WorkflowSpec& spec, LayerProbe& probe) {
  std::vector<wms::StepSpec> steps = spec.steps();
  for (wms::StepSpec& step : steps) {
    step.fn = [inner = std::move(step.fn), p = &probe](wms::StepContext& ctx) {
      const auto t0 = Clock::now();
      inner(ctx);
      p->add_step(ms_between(t0, Clock::now()));
    };
  }
  return wms::WorkflowSpec(spec.name(), std::move(steps));
}

bool GateProbe::should_execute(const wms::WorkflowSpec& spec, std::size_t step_index,
                               smartflux::ds::Timestamp wave) {
  const auto t0 = Clock::now();
  const bool execute = inner_->should_execute(spec, step_index, wave);
  probe_->add_gate(1e3 * ms_between(t0, Clock::now()), execute);
  return execute;
}

wms::WaveIngest wrap_ingest(wms::WaveIngest inner, smartflux::net::IngestBridge& bridge,
                            DrainLog& log, LayerProbe* probe) {
  return [inner = std::move(inner), b = &bridge, l = &log, probe](
             smartflux::ds::Client& client, smartflux::ds::Timestamp wave) {
    const auto t0 = Clock::now();
    {
      std::lock_guard lock(l->mutex);
      l->starts.push_back(t0);
    }
    if (probe == nullptr) {
      inner(client, wave);
      return;
    }
    const std::uint64_t staged = b->staged_rows();
    const std::uint64_t before = b->stats().rows_ingested;
    inner(client, wave);
    probe->add_drain(ms_between(t0, Clock::now()), b->stats().rows_ingested - before, staged);
  };
}

}  // namespace perfbench

#pragma once

// Per-layer attribution for the traced run. Everything here sits outside the
// program: wrappers around public calls (each StepSpec::fn, the bridge's
// WaveIngest, a TriggerController decorator) time the work that crosses a
// layer boundary, and the program's own MetricsRegistry and Tracer sinks are
// read back through their public snapshots at the end of the run.

#include <cstdint>
#include <mutex>
#include <vector>

#include "common.h"
#include "net/bridge.h"
#include "net/server.h"
#include "obs/metrics.h"
#include "obs/trace.h"
#include "wms/engine.h"

namespace perfbench {

/// The program's sinks plus the samples the benchmark's wrappers take.
/// Wrappers may run on the engine's ingest thread and on the wave thread
/// at once, so every sample goes in under one mutex (spans are per step or
/// per wave, far off any per-row path).
class LayerProbe {
 public:
  smartflux::obs::MetricsRegistry registry;
  smartflux::obs::Tracer tracer{1 << 16};

  void add_step(double ms);
  /// Closes one wave: its engine-call time and the step time it contained.
  void add_wave(double wave_ms);
  void add_drain(double ms, std::uint64_t rows, std::uint64_t staged_before);
  void add_gate(double us, bool execute);
  void add_train_wave(double ms);

  /// Fills every per-layer metric. `server` is null for workloads without
  /// the network front-end; `bridge` likewise. `waves` is the number of
  /// wave commits the WAL bytes are divided by.
  void report(Result& result, const smartflux::net::Server* server,
              const smartflux::net::IngestBridge* bridge, std::uint64_t waves);

 private:
  std::mutex mutex_;
  std::vector<double> wave_ms_;
  std::vector<double> wave_busy_ms_;
  double busy_in_wave_ = 0.0;
  std::uint64_t steps_executed_ = 0;
  std::vector<double> drain_ms_;
  std::vector<double> rows_per_wave_;
  std::uint64_t staged_peak_ = 0;
  std::vector<double> gate_us_;
  std::uint64_t triggered_ = 0;
  std::uint64_t skipped_ = 0;
  std::vector<double> train_wave_ms_;
};

/// The workflow with every StepSpec::fn wrapped in a timer feeding `probe`.
smartflux::wms::WorkflowSpec wrap_steps(const smartflux::wms::WorkflowSpec& spec,
                                        LayerProbe& probe);

/// TriggerController decorator: times each should_execute of `inner` and
/// counts its decisions; every other callback is forwarded unchanged.
class GateProbe final : public smartflux::wms::TriggerController {
 public:
  GateProbe(smartflux::wms::TriggerController& inner, LayerProbe& probe)
      : inner_(&inner), probe_(&probe) {}
  void begin_wave(smartflux::ds::Timestamp wave) override { inner_->begin_wave(wave); }
  bool should_execute(const smartflux::wms::WorkflowSpec& spec, std::size_t step_index,
                      smartflux::ds::Timestamp wave) override;
  void on_step_executed(const smartflux::wms::WorkflowSpec& spec, std::size_t step_index,
                        smartflux::ds::Timestamp wave) override {
    inner_->on_step_executed(spec, step_index, wave);
  }
  void end_wave(smartflux::ds::Timestamp wave) override { inner_->end_wave(wave); }

 private:
  smartflux::wms::TriggerController* inner_;
  LayerProbe* probe_;
};

/// Drain times of the bridge's WaveIngest, in wave order: the start of each
/// drain, against which a request's ack is matched to the wave holding it.
struct DrainLog {
  std::mutex mutex;
  std::vector<Clock::time_point> starts;
};

/// Wraps the bridge's WaveIngest: stamps each drain's start into `log` and,
/// when `probe` is set, times the drain and the rows it moved.
smartflux::wms::WaveIngest wrap_ingest(smartflux::wms::WaveIngest inner,
                                       smartflux::net::IngestBridge& bridge, DrainLog& log,
                                       LayerProbe* probe);

}  // namespace perfbench

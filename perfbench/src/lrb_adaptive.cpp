// lrb_adaptive: the paper's Linear Road workflow at max_ε = 10%, run
// adaptively through SmartFluxEngine on a durable 4-shard store. Set-up
// precomputes the traffic, runs the training waves and builds the model.
// The timed part is application waves whose 1_feed step writes the
// position reports. After each timed wave, and outside its timing, a
// synchronous shadow engine runs the same wave on its own in-memory store;
// the check compares every error-tolerant step's output against it.

#include <cmath>
#include <memory>

#include "common.h"
#include "core/smartflux.h"
#include "datastore/datastore.h"
#include "layers.h"
#include "workloads/lrb/lrb.h"

namespace perfbench {

namespace core = smartflux::core;
namespace ds = smartflux::ds;
namespace wms = smartflux::wms;

namespace {

constexpr std::size_t kTrainingWaves = 300;
/// Waves tolerant_execs_per_wave is counted over (the first timed ones), so
/// the count does not depend on how many waves a run fits in.
constexpr std::size_t kCountedWaves = 2000;
/// Precomputed traffic horizon past training; a run stops there at the latest.
constexpr std::size_t kMaxTimedWaves = 5000;
constexpr std::size_t kBlockWaves = 100;
constexpr double kMaxError = 0.10;
constexpr double kConfidence = 0.95;

/// Eq. 3 of the paper, computed here apart from the program:
/// ε = (Σ|x_i − x'_i| · m) / (Σx'_i · n), with x the fresh (shadow) output,
/// x' the adaptive one, m the cells that differ and n the fresh cell count.
double relative_error(const ds::FlatSnapshot& fresh, const ds::FlatSnapshot& stale,
                      double fresh_offset) {
  double stale_total = 0.0;
  for (const ds::FlatEntry& e : stale.entries()) stale_total += e.value;
  double diff = 0.0;
  std::size_t modified = 0;
  auto f = fresh.begin();
  auto s = stale.begin();
  auto note = [&](double a, double b) {
    diff += std::fabs(a - b);
    ++modified;
  };
  bool first = true;
  while (f != fresh.end() || s != stale.end()) {
    int cmp = 0;
    if (f == fresh.end()) {
      cmp = 1;
    } else if (s == stale.end()) {
      cmp = -1;
    } else if ((cmp = f->row->compare(*s->row)) == 0) {
      cmp = f->col->compare(*s->col);
    }
    if (cmp < 0) {
      note(f->value, 0.0);
      ++f;
    } else if (cmp > 0) {
      note(0.0, s->value);
      ++s;
    } else {
      const double fv = f->value + (first ? fresh_offset : 0.0);
      if (fv != s->value) note(fv, s->value);
      ++f;
      ++s;
    }
    first = false;
  }
  if (modified == 0) return 0.0;
  const std::size_t n = fresh.empty() ? stale.size() : fresh.size();
  const double numerator = diff * static_cast<double>(modified);
  const double denominator = stale_total * static_cast<double>(n);
  if (denominator <= 0.0) return 1.0;
  return std::min(1.0, numerator / denominator);
}

}  // namespace

Result run_lrb_adaptive(const RunOptions& options) {
  Result result;
  const std::string dir = fresh_dir(options.data_dir);
  std::unique_ptr<LayerProbe> probe = options.trace ? std::make_unique<LayerProbe>() : nullptr;

  smartflux::workloads::LrbParams params;
  params.max_error = kMaxError;
  params.seed = options.seed;
  params.total_waves = kTrainingWaves + kMaxTimedWaves + 1;
  const smartflux::workloads::LrbWorkload workload(params);

  ds::ShardOptions shards;
  shards.shards = 4;
  ds::DataStore store(2, shards);
  if (probe) store.set_instrumentation(&probe->registry);
  ds::DurabilityOptions durability;
  durability.flush = ds::WalFlushPolicy::kEveryWave;
  durability.metrics = probe ? &probe->registry : nullptr;
  store.enable_durability(dir, durability);

  const wms::WorkflowSpec plain = workload.make_workflow();
  wms::WorkflowEngine::Options engine_options;
  core::SmartFluxOptions sf_options;
  if (probe) {
    engine_options.metrics = &probe->registry;
    engine_options.tracer = &probe->tracer;
    sf_options.metrics = &probe->registry;
    sf_options.tracer = &probe->tracer;
  }
  wms::WorkflowEngine engine(probe ? wrap_steps(plain, *probe) : plain, store, engine_options);
  core::SmartFluxEngine smartflux(engine, sf_options);
  if (probe) {
    for (std::size_t w = 1; w <= kTrainingWaves; ++w) {
      const auto t0 = Clock::now();
      smartflux.train(w, 1);
      probe->add_train_wave(ms_between(t0, Clock::now()));
    }
  } else {
    smartflux.train(1, kTrainingWaves);
  }
  smartflux.build_model();
  const double setup_s = seconds_since(process_start(options));

  // The synchronous shadow, brought level with the end of training.
  ds::DataStore shadow_store(2, shards);
  wms::WorkflowEngine shadow(plain, shadow_store);
  wms::SyncController sync;
  shadow.run_waves(1, kTrainingWaves, sync);

  const std::vector<std::size_t> tolerant = plain.error_tolerant_steps();
  std::vector<bool> is_tolerant(plain.size(), false);
  for (std::size_t idx : tolerant) is_tolerant[idx] = true;
  std::vector<std::size_t> within(tolerant.size(), 0);
  std::unique_ptr<GateProbe> gate;
  if (probe) gate = std::make_unique<GateProbe>(smartflux.controller(), *probe);

  std::vector<double> wave_ms;
  std::vector<double> shadow_ms;
  std::uint64_t executions = 0;
  std::uint64_t counted_executions = 0;
  std::uint64_t intolerant_misses = 0;
  const auto start = Clock::now();
  std::size_t waves = 0;
  for (; waves < kMaxTimedWaves; ++waves) {
    if (waves >= kCountedWaves && seconds_since(start) >= options.seconds) break;
    const ds::Timestamp wave = kTrainingWaves + 1 + waves;
    ++result.attempted;
    const auto t0 = Clock::now();
    const wms::WaveResult r = gate ? engine.run_wave(wave, *gate) : smartflux.run_wave(wave);
    const auto t1 = Clock::now();
    wave_ms.push_back(ms_between(t0, t1));
    if (probe) probe->add_wave(wave_ms.back());
    if (r.failed_count() > 0) ++result.failed;
    for (std::size_t i = 0; i < plain.size(); ++i) {
      if (is_tolerant[i]) {
        executions += r.executed[i] ? 1 : 0;
        if (waves < kCountedWaves) counted_executions += r.executed[i] ? 1 : 0;
      } else if (!r.executed[i]) {
        ++intolerant_misses;
      }
    }

    const auto s0 = Clock::now();
    shadow.run_wave(wave, sync);
    shadow_ms.push_back(ms_between(s0, Clock::now()));
    for (std::size_t t = 0; t < tolerant.size(); ++t) {
      const wms::StepSpec& step = plain.step_at(tolerant[t]);
      // Self-test: shift one reference cell of the last tolerant step.
      const double offset = options.perturb && t + 1 == tolerant.size() ? 1e6 : 0.0;
      double err = 0.0;
      for (const ds::ContainerRef& container : step.outputs) {
        err = std::max(err, relative_error(shadow_store.snapshot_flat(container),
                                           store.snapshot_flat(container), offset));
      }
      within[t] += err <= *step.max_error ? 1 : 0;
    }
  }

  for (std::size_t t = 0; t < tolerant.size(); ++t) {
    const double confidence = static_cast<double>(within[t]) / static_cast<double>(waves);
    result.notes.push_back("lrb_adaptive: " + plain.step_at(tolerant[t]).id +
                           " within max_e on " + std::to_string(100.0 * confidence) + "% of waves");
    if (confidence < kConfidence) {
      result.fail_check(plain.step_at(tolerant[t]).id + " within max_e on only " +
                        std::to_string(100.0 * confidence) + "% of waves");
    }
  }
  const std::uint64_t shadow_executions = static_cast<std::uint64_t>(tolerant.size()) * waves;
  if (executions >= shadow_executions) {
    result.fail_check("adaptive run executed " + std::to_string(executions) +
                      " tolerant steps, the synchronous shadow " +
                      std::to_string(shadow_executions));
  }
  if (intolerant_misses > 0) {
    result.fail_check(std::to_string(intolerant_misses) + " intolerant step runs were skipped");
  }
  result.notes.push_back("lrb_adaptive: " + std::to_string(waves) + " timed waves, " +
                         std::to_string(executions) + " of " + std::to_string(shadow_executions) +
                         " tolerant step executions");

  if (probe) {
    probe->report(result, nullptr, nullptr, store.last_committed_wave().value_or(0));
  } else {
    // Waves per second of engine time: the median over blocks of
    // kBlockWaves consecutive waves, so one slow stretch moves it little.
    std::vector<double> block_rates;
    for (std::size_t i = 0; i + kBlockWaves <= wave_ms.size(); i += kBlockWaves) {
      double block_ms = 0.0;
      for (std::size_t j = i; j < i + kBlockWaves; ++j) block_ms += wave_ms[j];
      block_rates.push_back(1e3 * static_cast<double>(kBlockWaves) / block_ms);
    }
    result.set("setup_s", setup_s, "s");
    result.set("peak_rss_mb", peak_rss_mb(), "MB");
    result.set("throughput_per_s", percentile(block_rates, 0.5), "1/s");
    result.set("op_p50_ms", windowed_percentile(wave_ms, 0.50), "ms");
    result.set("op_p90_ms", windowed_percentile(wave_ms, 0.90), "ms");
    result.set("op2_p50_ms", windowed_percentile(shadow_ms, 0.50), "ms");
    result.set("op2_p90_ms", windowed_percentile(shadow_ms, 0.90), "ms");
    result.set("tolerant_execs_per_wave",
               static_cast<double>(counted_executions) / static_cast<double>(kCountedWaves),
               "count");
  }
  std::filesystem::remove_all(dir);
  return result;
}

}  // namespace perfbench

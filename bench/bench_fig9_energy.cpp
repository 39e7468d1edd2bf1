// Reproduces Fig 9 — network energy per inference normalized to the
// conventional implementation, grouped as in the paper: (a) 2-layer
// MLPs, (b) 5-6 layer MLPs, (c) 6-layer CNN — then cross-checks the
// static model's activity assumptions by replaying the digit MLP *and*
// the LeNet CNN through the fixed-point engine: once per registered
// kernel backend (scalar reference, blocked, SIMD — all must agree bit
// for bit, dense and conv plans alike; any divergence exits 1, the CI
// gate) and once through the batched multi-threaded runtime — and
// traces the batch-as-lanes curve: per backend, ns/sample of the
// digit MLP at B = 1..64 through the per-sample gather path, the
// batched dense tail forced at every width, and infer_batch_into as
// shipped (per-backend crossover), each checked bit for bit.
// Fixed-iteration mode for CI via MAN_REPLAY_SAMPLES /
// MAN_REPLAY_CNN_SAMPLES; per-backend timings land in MAN_BENCH_JSON
// when set.
#include <algorithm>
#include <array>
#include <cstdlib>
#include <filesystem>
#include <fstream>
#include <functional>
#include <iostream>
#include <span>

#include "bench_common.h"
#include "man/artifact/plan_artifact.h"
#include "man/backend/kernel_backend.h"
#include "man/engine/batch_runner.h"
#include "man/hw/network_cost.h"
#include "man/nn/constraint_projection.h"
#include "man/util/rng.h"
#include "man/util/stopwatch.h"

namespace {

using man::apps::AppId;
using man::core::AlphabetSet;
using man::core::MultiplierKind;
using man::hw::compute_network_energy;
using man::hw::with_uniform_scheme;

/// Seconds over a value count as nanoseconds per value (0 when none
/// were counted) — shared by the breakdown table and its JSON twin.
double ns_per_value(double seconds, std::uint64_t values) {
  return values > 0 ? seconds * 1e9 / static_cast<double>(values) : 0.0;
}

std::size_t samples_from_env(const char* env_name,
                             std::size_t fallback) {
  if (const char* env = std::getenv(env_name)) {
    const int value = std::atoi(env);
    if (value > 0) return static_cast<std::size_t>(value);
  }
  return fallback;
}

/// ASM-4 engine for one registered app (weights projected to the
/// alphabet set first, so the datapath is exercised, not the
/// projection error).
man::engine::FixedNetwork build_replay_engine(AppId id) {
  const auto& app = man::apps::get_app(id);
  man::nn::Network net = app.build_network(/*seed=*/21);
  const AlphabetSet set = AlphabetSet::four();
  const man::nn::ProjectionPlan projection(app.quant(), set,
                                           net.num_weight_layers());
  projection.project_network(net);
  return man::engine::FixedNetwork(
      net, app.quant(),
      man::engine::LayerAlphabetPlan::uniform_asm(net.num_weight_layers(),
                                                  set));
}

struct BackendResult {
  std::string name;
  std::string description;
  double seconds = 0.0;
  bool matches = false;
};

struct ReplayResult {
  std::size_t samples = 0;
  int workers = 0;
  std::vector<BackendResult> backends;
  double scalar_s = 0.0;
  double par_s = 0.0;
  std::string par_backend;
  bool identical = true;
  // Per-element phase attribution (single thread, auto backend).
  man::engine::PhaseProfile phases;
  std::size_t phase_samples = 0;
  std::string phase_backend;
};

/// Replays `samples` random inferences through every registered
/// kernel backend (single worker) and through the multi-worker
/// BatchRunner, judging outputs and per-layer EngineStats against the
/// scalar reference. Prints the per-backend table; any divergence
/// clears `identical`.
ReplayResult run_replay(const man::engine::FixedNetwork& engine,
                        std::size_t samples, int workers) {
  ReplayResult result;
  result.samples = samples;
  result.workers = workers;

  man::util::Rng rng(2016);
  std::vector<float> batch(samples * engine.input_size());
  for (float& p : batch) p = static_cast<float>(rng.next_double());

  // Reference: the scalar backend, single worker. Every other backend
  // and the parallel run are judged against this output.
  std::vector<std::int64_t> raw_ref(samples * engine.output_size());
  man::engine::BatchRunner reference(
      engine, man::engine::BatchOptions{
                  .workers = 1,
                  .backend = man::backend::BackendKind::kScalar});
  reference.run(batch, raw_ref);  // warm caches and page in the plan
  reference.reset_stats();
  man::util::Stopwatch ref_watch;
  reference.run(batch, raw_ref);
  result.scalar_s = ref_watch.seconds();

  // The scalar reference run above doubles as the scalar backend's
  // measurement (re-running it would only add jitter to a 1.00x row).
  result.backends.push_back(BackendResult{
      "scalar",
      man::backend::backend_for(man::backend::BackendKind::kScalar)
          .description(),
      result.scalar_s, true});
  for (const auto* backend : man::backend::all_backends()) {
    if (backend->kind() == man::backend::BackendKind::kScalar) continue;
    std::vector<std::int64_t> raw(samples * engine.output_size());
    man::engine::BatchRunner runner(
        engine, man::engine::BatchOptions{.workers = 1,
                                          .backend = backend->kind()});
    runner.run(batch, raw);  // warmup
    man::util::Stopwatch watch;
    runner.run(batch, raw);
    const double seconds = watch.seconds();
    const bool matches = raw == raw_ref;
    result.identical = result.identical && matches;
    result.backends.push_back(BackendResult{
        backend->name(), backend->description(), seconds, matches});
  }

  man::util::Table backends_table({"Backend", "Description", "ms",
                                   "Speedup vs scalar", "Bit-identical"});
  for (const BackendResult& row : result.backends) {
    backends_table.add_row(
        {row.name, row.description,
         man::util::format_double(row.seconds * 1e3, 1),
         man::util::format_double(
             row.seconds > 0 ? result.scalar_s / row.seconds : 0.0, 2),
         row.matches ? "yes" : "NO"});
  }
  std::cout << backends_table.to_string();

  // Per-element phase attribution: where a single-thread inference
  // spends its wall clock — CSHM staging (flat-table fill + copy),
  // the activation LUT sweep, the kernel accumulation, pooling, and
  // input quantization. Recorded in the bench JSON so a regression in
  // the backend-shared staging/LUT paths is attributable to its
  // phase, not smeared over total time.
  {
    result.phase_samples = std::min<std::size_t>(samples, 64);
    auto prof_scratch = engine.make_scratch();
    prof_scratch.profile = &result.phases;
    auto prof_stats = engine.make_stats();
    std::vector<std::int64_t> prof_out(engine.output_size());
    for (std::size_t s = 0; s < result.phase_samples; ++s) {
      engine.infer_into(
          std::span<const float>(batch.data() + s * engine.input_size(),
                                 engine.input_size()),
          prof_out, prof_stats, prof_scratch);
    }
    result.phase_backend = engine.default_kernel().name();
    man::util::Table phase_table({"Phase", "ms", "ns/value"});
    phase_table.add_row(
        {"staging", man::util::format_double(result.phases.staging_s * 1e3, 2),
         man::util::format_double(
             ns_per_value(result.phases.staging_s,
                          result.phases.staged_values),
             2)});
    phase_table.add_row(
        {"lut", man::util::format_double(result.phases.lut_s * 1e3, 2),
         man::util::format_double(
             ns_per_value(result.phases.lut_s, result.phases.lut_values),
             2)});
    phase_table.add_row(
        {"kernel (" + result.phase_backend + ")",
         man::util::format_double(result.phases.kernel_s * 1e3, 2), "-"});
    phase_table.add_row(
        {"pool", man::util::format_double(result.phases.pool_s * 1e3, 2),
         "-"});
    phase_table.add_row(
        {"quantize",
         man::util::format_double(result.phases.quantize_s * 1e3, 2), "-"});
    std::cout << "Per-element phase breakdown ("
              << result.phase_samples << " samples, 1 thread):\n"
              << phase_table.to_string();
  }

  // Batched runtime on the auto backend: outputs and the per-layer
  // activity reduction must both match the sequential reference.
  std::vector<std::int64_t> raw_par(samples * engine.output_size());
  man::engine::BatchRunner parallel(
      engine, man::engine::BatchOptions{.workers = workers});
  man::util::Stopwatch par_watch;
  parallel.run(batch, raw_par);
  result.par_s = par_watch.seconds();
  result.identical = result.identical && raw_par == raw_ref;

  const auto& seq_stats = reference.stats();
  const auto& par_stats = parallel.stats();
  result.par_backend = par_stats.backend;
  man::util::Table replay({"Layer", "MACs", "Bank firings", "Total ops",
                           "Matches sequential"});
  for (std::size_t i = 0; i < seq_stats.layers.size(); ++i) {
    const auto& seq_layer = seq_stats.layers[i];
    const auto& par_layer = par_stats.layers[i];
    const bool layer_match = seq_layer.macs == par_layer.macs &&
                             seq_layer.bank_activations ==
                                 par_layer.bank_activations &&
                             seq_layer.ops == par_layer.ops;
    result.identical = result.identical && layer_match;
    replay.add_row({par_layer.name, std::to_string(par_layer.macs),
                    std::to_string(par_layer.bank_activations),
                    std::to_string(par_layer.ops.total()),
                    layer_match ? "yes" : "NO"});
  }
  std::cout << replay.to_string();
  std::cout << samples << " inferences: scalar "
            << man::util::format_double(result.scalar_s * 1e3, 1) << " ms, "
            << workers << " workers (" << result.par_backend << ") "
            << man::util::format_double(result.par_s * 1e3, 1)
            << " ms (speedup "
            << man::util::format_double(
                   result.par_s > 0 ? result.scalar_s / result.par_s : 0.0, 2)
            << "x)\n";
  return result;
}

/// Delegates every kernel to `inner` but reports min_batch_lanes() 1,
/// so infer_batch_into runs the batch-as-lanes tail at every tile
/// width — the curve needs the batched cost below each crossover too.
class ForcedBatchKernel final : public man::backend::KernelBackend {
 public:
  explicit ForcedBatchKernel(const KernelBackend& inner) : inner_(inner) {}
  [[nodiscard]] man::backend::BackendKind kind() const noexcept override {
    return inner_.kind();
  }
  [[nodiscard]] const char* name() const noexcept override {
    return inner_.name();
  }
  [[nodiscard]] const char* description() const noexcept override {
    return inner_.description();
  }
  [[nodiscard]] bool accelerated() const noexcept override {
    return inner_.accelerated();
  }
  void accumulate_dense(const man::backend::DenseLayerPlan& plan,
                        const std::int32_t* multiples,
                        std::int64_t* out) const override {
    inner_.accumulate_dense(plan, multiples, out);
  }
  void accumulate_dense_batch(const man::backend::DenseLayerPlan& plan,
                              const std::int32_t* multiples, int lanes,
                              int col_begin, int col_end,
                              std::int64_t* out) const override {
    inner_.accumulate_dense_batch(plan, multiples, lanes, col_begin, col_end,
                                  out);
  }
  [[nodiscard]] int min_batch_lanes() const noexcept override { return 1; }
  void exact_dense(const man::backend::DenseLayerPlan& plan,
                   const std::int64_t* activations,
                   std::int64_t* out) const override {
    inner_.exact_dense(plan, activations, out);
  }
  void accumulate_conv(const man::backend::ConvLayerPlan& plan,
                       const std::int32_t* multiples,
                       std::int64_t* out) const override {
    inner_.accumulate_conv(plan, multiples, out);
  }
  void exact_conv(const man::backend::ConvLayerPlan& plan,
                  const std::int64_t* activations,
                  std::int64_t* out) const override {
    inner_.exact_conv(plan, activations, out);
  }

 private:
  const KernelBackend& inner_;
};

/// Batch sizes the lanes curve samples (B = 1..64).
constexpr std::size_t kCurveBatches[] = {1, 2, 3, 4, 5, 6, 7, 8,
                                         10, 12, 16, 24, 32, 48, 64};

struct CurvePoint {
  std::size_t batch = 0;
  double gather_ns = 0.0;   ///< infer_into per sample
  double batched_ns = 0.0;  ///< batch-as-lanes tail at every width
  double shipped_ns = 0.0;  ///< infer_batch_into as dispatched
};

/// Independent timing passes over the whole B sweep per backend; the
/// reported crossover is their median.
constexpr std::size_t kCurvePasses = 3;

struct BackendCurve {
  std::string name;
  int min_batch_lanes = 0;
  /// Median of pass_crossovers (0: batched never wins).
  std::size_t measured_crossover = 0;
  std::size_t pass_crossovers[kCurvePasses] = {};
  std::vector<CurvePoint> points;  ///< per-B medians across the passes
};

struct LanesCurve {
  std::vector<BackendCurve> backends;
  bool identical = true;
};

/// Best-of ns/sample of each of `runs` (each infers `samples`
/// samples), timed alternately within every round so host drift lands
/// on all of them alike: rounds continue until at least 3 have passed
/// and 5 ms of wall clock, so one stalled repetition cannot set a
/// point.
template <std::size_t N, typename Run>
std::array<double, N> best_ns_per_sample_interleaved(
    const std::array<Run, N>& runs, std::size_t samples) {
  std::array<double, N> best{};
  double total = 0.0;
  for (int rep = 0; rep < 3 || total < 5e-3; ++rep) {
    for (std::size_t r = 0; r < N; ++r) {
      man::util::Stopwatch watch;
      runs[r]();
      const double seconds = watch.seconds();
      total += seconds;
      if (rep == 0 || seconds < best[r]) best[r] = seconds;
    }
  }
  for (double& b : best) b = b * 1e9 / static_cast<double>(samples);
  return best;
}

/// The smallest sampled B from which the batched tail beats the
/// gather path at every larger sampled B (0: never).
std::size_t crossover_of(const std::vector<CurvePoint>& points) {
  std::size_t crossover = 0;
  for (auto it = points.rbegin(); it != points.rend(); ++it) {
    if (it->batched_ns >= it->gather_ns) break;
    crossover = it->batch;
  }
  return crossover;
}

template <typename T>
T median_of_passes(T (&values)[kCurvePasses]) {
  T sorted[kCurvePasses];
  std::copy(std::begin(values), std::end(values), sorted);
  std::sort(std::begin(sorted), std::end(sorted));
  return sorted[kCurvePasses / 2];
}

bool same_stats(const man::engine::EngineStats& a,
                const man::engine::EngineStats& b) {
  if (a.inferences != b.inferences || a.layers.size() != b.layers.size()) {
    return false;
  }
  for (std::size_t i = 0; i < a.layers.size(); ++i) {
    if (a.layers[i].macs != b.layers[i].macs ||
        a.layers[i].bank_activations != b.layers[i].bank_activations ||
        !(a.layers[i].ops == b.layers[i].ops)) {
      return false;
    }
  }
  return true;
}

/// The batch-as-lanes curve of one engine on every backend: ns/sample
/// through the per-sample gather path, the batched tail forced at
/// every width, and infer_batch_into as shipped, the three timed
/// alternately at each B. The sweep runs kCurvePasses times; each
/// pass yields a crossover and the curve reports their median (and
/// per-B medians), so one noisy point cannot move it. Outputs of every
/// run and the forced path's EngineStats must match the scalar
/// per-sample reference; any divergence clears `identical`.
LanesCurve run_lanes_curve(const man::engine::FixedNetwork& engine) {
  const std::size_t max_batch = kCurveBatches[std::size(kCurveBatches) - 1];
  const std::size_t in = engine.input_size();
  const std::size_t out = engine.output_size();
  man::util::Rng rng(1664);
  std::vector<float> inputs(max_batch * in);
  for (float& p : inputs) p = static_cast<float>(rng.next_double());

  const auto& scalar =
      man::backend::backend_for(man::backend::BackendKind::kScalar);
  std::vector<std::int64_t> reference(max_batch * out);
  {
    auto scratch = engine.make_scratch();
    auto stats = engine.make_stats();
    for (std::size_t i = 0; i < max_batch; ++i) {
      engine.infer_into(std::span<const float>(inputs).subspan(i * in, in),
                        std::span<std::int64_t>(reference).subspan(i * out,
                                                                   out),
                        stats, scratch, scalar);
    }
  }

  LanesCurve curve;
  for (const auto* backend : man::backend::all_backends()) {
    const ForcedBatchKernel forced(*backend);
    BackendCurve row{backend->name(), backend->min_batch_lanes(), 0, {}, {}};
    auto scratch = engine.make_scratch();
    std::vector<std::int64_t> raw(max_batch * out);
    // passes[p][i]: pass p's timing of kCurveBatches[i].
    std::vector<CurvePoint> passes[kCurvePasses];
    for (std::size_t pass = 0; pass < kCurvePasses; ++pass) {
      for (const std::size_t batch : kCurveBatches) {
        const auto batch_in = std::span<const float>(inputs).first(batch * in);
        const auto batch_out = std::span<std::int64_t>(raw).first(batch * out);
        const auto expected =
            std::span<const std::int64_t>(reference).first(batch * out);
        const auto check_outputs = [&] {
          curve.identical = curve.identical &&
                            std::equal(expected.begin(), expected.end(),
                                       batch_out.begin());
        };
        auto gather_stats = engine.make_stats();
        auto batched_stats = engine.make_stats();
        auto shipped_stats = engine.make_stats();
        const std::array<std::function<void()>, 3> runs = {
            [&] {
              for (std::size_t i = 0; i < batch; ++i) {
                engine.infer_into(batch_in.subspan(i * in, in),
                                  batch_out.subspan(i * out, out),
                                  gather_stats, scratch, *backend);
              }
              check_outputs();
            },
            [&] {
              batched_stats.reset();
              engine.infer_batch_into(batch_in, batch_out, batched_stats,
                                      scratch, forced);
              check_outputs();
            },
            [&] {
              engine.infer_batch_into(batch_in, batch_out, shipped_stats,
                                      scratch, *backend);
              check_outputs();
            }};
        const auto ns = best_ns_per_sample_interleaved(runs, batch);
        passes[pass].push_back(CurvePoint{batch, ns[0], ns[1], ns[2]});
        if (pass > 0) continue;
        // One batched pass must charge exactly what `batch` per-sample
        // passes do, or modeled energy would move.
        auto per_sample_stats = engine.make_stats();
        for (std::size_t i = 0; i < batch; ++i) {
          engine.infer_into(batch_in.subspan(i * in, in),
                            batch_out.subspan(i * out, out),
                            per_sample_stats, scratch, *backend);
        }
        curve.identical =
            curve.identical && same_stats(batched_stats, per_sample_stats);
      }
      row.pass_crossovers[pass] = crossover_of(passes[pass]);
    }
    // Reported: the median crossover of the passes and, per B, the
    // median of each path's ns/sample.
    row.measured_crossover = median_of_passes(row.pass_crossovers);
    for (std::size_t i = 0; i < std::size(kCurveBatches); ++i) {
      double gather[kCurvePasses], batched[kCurvePasses],
          shipped[kCurvePasses];
      for (std::size_t pass = 0; pass < kCurvePasses; ++pass) {
        gather[pass] = passes[pass][i].gather_ns;
        batched[pass] = passes[pass][i].batched_ns;
        shipped[pass] = passes[pass][i].shipped_ns;
      }
      row.points.push_back(CurvePoint{kCurveBatches[i],
                                      median_of_passes(gather),
                                      median_of_passes(batched),
                                      median_of_passes(shipped)});
    }
    curve.backends.push_back(std::move(row));
  }

  man::util::Table table({"Backend", "B", "gather ns/sample",
                          "batched ns/sample", "shipped ns/sample",
                          "batched speedup"});
  for (const BackendCurve& row : curve.backends) {
    for (const CurvePoint& point : row.points) {
      table.add_row(
          {row.name, std::to_string(point.batch),
           man::util::format_double(point.gather_ns, 0),
           man::util::format_double(point.batched_ns, 0),
           man::util::format_double(point.shipped_ns, 0),
           man::util::format_double(point.gather_ns / point.batched_ns, 2)});
    }
  }
  std::cout << table.to_string();
  const auto crossover_text = [](std::size_t b) {
    return b == 0 ? std::string("never") : std::to_string(b);
  };
  man::util::Table crossovers({"Backend", "min_batch_lanes()",
                               "measured crossover (median)", "passes"});
  for (const BackendCurve& row : curve.backends) {
    std::string passes;
    for (std::size_t pass = 0; pass < kCurvePasses; ++pass) {
      passes += (pass == 0 ? "" : ", ") +
                crossover_text(row.pass_crossovers[pass]);
    }
    crossovers.add_row(
        {row.name,
         row.min_batch_lanes == man::backend::kNeverBatchLanes
             ? "never"
             : std::to_string(row.min_batch_lanes),
         crossover_text(row.measured_crossover), passes});
  }
  std::cout << crossovers.to_string()
            << "batched outputs + EngineStats vs per-sample reference: "
            << (curve.identical ? "bit-identical" : "MISMATCH") << "\n";
  return curve;
}

void emit_lanes_curve(std::ofstream& out, const LanesCurve& curve) {
  out << "  \"batch_lanes_curve\": {\n    \"bit_identical\": "
      << (curve.identical ? "true" : "false") << ",\n    \"backends\": {\n";
  for (std::size_t b = 0; b < curve.backends.size(); ++b) {
    const BackendCurve& row = curve.backends[b];
    out << "      \"" << row.name << "\": {\"min_batch_lanes\": "
        << (row.min_batch_lanes == man::backend::kNeverBatchLanes
                ? 0
                : row.min_batch_lanes)
        << ", \"measured_crossover\": " << row.measured_crossover
        << ", \"pass_crossovers\": [";
    for (std::size_t pass = 0; pass < kCurvePasses; ++pass) {
      out << (pass == 0 ? "" : ", ") << row.pass_crossovers[pass];
    }
    out << "], \"points\": [";
    for (std::size_t i = 0; i < row.points.size(); ++i) {
      const CurvePoint& p = row.points[i];
      out << (i == 0 ? "" : ", ") << "{\"batch\": " << p.batch
          << ", \"gather_ns\": " << man::util::format_double(p.gather_ns, 1)
          << ", \"batched_ns\": " << man::util::format_double(p.batched_ns, 1)
          << ", \"shipped_ns\": " << man::util::format_double(p.shipped_ns, 1)
          << "}";
    }
    out << "]}" << (b + 1 < curve.backends.size() ? "," : "") << "\n";
  }
  out << "    }\n  },\n";
}

struct ColdStartResult {
  double compile_s = 0.0;
  double load_s = 0.0;
  bool identical = false;

  [[nodiscard]] double speedup() const {
    return load_s > 0 ? compile_s / load_s : 0.0;
  }
};

/// Cold-start cost of the digit MLP engine: a fresh in-process build
/// (network construction, constraint projection, schedule
/// compilation, conv autotune) vs mmap-loading a published plan
/// artifact, bit-identity checked between the two on a shared sample
/// batch. This is the serving cold-start path: a process with a warm
/// MAN_PLAN_CACHE does the `load` column, one without does `compile`.
ColdStartResult run_cold_start(const man::engine::FixedNetwork& engine) {
  ColdStartResult result;
  man::util::Stopwatch compile_watch;
  const man::engine::FixedNetwork rebuilt =
      build_replay_engine(AppId::kDigitMlp8);
  result.compile_s = compile_watch.seconds();

  const auto dir =
      std::filesystem::temp_directory_path() / "man_fig9_cold_start";
  std::filesystem::create_directories(dir);
  const std::string key = "fig9_cold_start|digit_mlp8|asm4";
  const std::string path = man::artifact::artifact_path(dir.string(), key);
  man::artifact::save_engine(engine, path, key);

  man::util::Stopwatch load_watch;
  const auto loaded = man::artifact::load_engine(path, key);
  result.load_s = load_watch.seconds();

  result.identical = true;
  man::util::Rng rng(77);
  auto scratch = engine.make_scratch();
  auto stats = engine.make_stats();
  auto loaded_scratch = loaded->make_scratch();
  auto loaded_stats = loaded->make_stats();
  std::vector<float> pixels(engine.input_size());
  std::vector<std::int64_t> expected(engine.output_size());
  std::vector<std::int64_t> raw(loaded->output_size());
  for (int sample = 0; sample < 8; ++sample) {
    for (float& p : pixels) p = static_cast<float>(rng.next_double());
    engine.infer_into(pixels, expected, stats, scratch);
    loaded->infer_into(pixels, raw, loaded_stats, loaded_scratch);
    if (raw != expected) result.identical = false;
  }
  std::filesystem::remove_all(dir);
  return result;
}

void emit_json_section(std::ofstream& out, const char* name,
                       const ReplayResult& result, bool last) {
  out << "  \"" << name << "\": {\n    \"samples\": " << result.samples
      << ",\n    \"bit_identical\": "
      << (result.identical ? "true" : "false") << ",\n    \"auto_backend\": \""
      << man::backend::to_string(man::backend::detect_best_backend())
      << "\",\n    \"parallel_workers\": " << result.workers
      << ",\n    \"parallel_speedup\": "
      << man::util::format_double(
             result.par_s > 0 ? result.scalar_s / result.par_s : 0.0, 3)
      << ",\n    \"scalar_ms_per_sample\": "
      << man::util::format_double(
             result.samples > 0
                 ? result.scalar_s * 1e3 / static_cast<double>(result.samples)
                 : 0.0,
             4)
      << ",\n    \"backends\": {\n";
  for (std::size_t i = 0; i < result.backends.size(); ++i) {
    out << "      \"" << result.backends[i].name << "\": {\"ms\": "
        << man::util::format_double(result.backends[i].seconds * 1e3, 3)
        << ", \"speedup\": "
        << man::util::format_double(result.backends[i].seconds > 0
                                        ? result.scalar_s /
                                              result.backends[i].seconds
                                        : 0.0,
                                    3)
        << "}" << (i + 1 < result.backends.size() ? "," : "") << "\n";
  }
  out << "    },\n    \"phase_breakdown\": {\n      \"samples\": "
      << result.phase_samples << ",\n      \"backend\": \""
      << result.phase_backend << "\",\n      \"staging_ms\": "
      << man::util::format_double(result.phases.staging_s * 1e3, 3)
      << ",\n      \"lut_ms\": "
      << man::util::format_double(result.phases.lut_s * 1e3, 3)
      << ",\n      \"kernel_ms\": "
      << man::util::format_double(result.phases.kernel_s * 1e3, 3)
      << ",\n      \"pool_ms\": "
      << man::util::format_double(result.phases.pool_s * 1e3, 3)
      << ",\n      \"quantize_ms\": "
      << man::util::format_double(result.phases.quantize_s * 1e3, 3)
      << ",\n      \"staging_ns_per_value\": "
      << man::util::format_double(
             ns_per_value(result.phases.staging_s,
                          result.phases.staged_values),
             3)
      << ",\n      \"lut_ns_per_value\": "
      << man::util::format_double(
             ns_per_value(result.phases.lut_s, result.phases.lut_values), 3)
      << "\n    }\n  }" << (last ? "\n" : ",\n");
}

void print_group(const char* title, const std::vector<AppId>& ids) {
  std::cout << "\n" << title << "\n";
  man::util::Table table({"Application", "conv (nJ)", "4 {1,3,5,7}",
                          "2 {1,3}", "1 {1} (MAN)", "MAN saving (%)"});
  for (AppId id : ids) {
    const auto spec = man::apps::get_app(id).energy_spec();
    const double conv =
        compute_network_energy(spec).total_energy_pj;
    std::vector<std::string> cells{
        man::apps::get_app(id).name,
        man::util::format_double(conv * 1e-3, 2)};
    double man_energy = conv;
    for (std::size_t n : {4u, 2u, 1u}) {
      const AlphabetSet set = AlphabetSet::first_n(n);
      const auto kind = n == 1 ? MultiplierKind::kMan : MultiplierKind::kAsm;
      const double energy =
          compute_network_energy(with_uniform_scheme(spec, kind, set))
              .total_energy_pj;
      if (n == 1) man_energy = energy;
      cells.push_back(man::util::format_double(energy / conv, 3));
    }
    cells.push_back(man::util::format_percent(1.0 - man_energy / conv));
    table.add_row(cells);
  }
  std::cout << table.to_string();
}

}  // namespace

int main() {
  man::bench::print_banner(
      "Fig 9: network energy per inference, normalized to conventional");

  print_group("(a) 2-layer MLPs",
              {AppId::kDigitMlp8, AppId::kFaceMlp12});
  print_group("(b) 5-6 layer MLPs",
              {AppId::kSvhnMlp8, AppId::kTichMlp8});
  print_group("(c) 6-layer CNN", {AppId::kDigitCnn12});

  // Paper: "the amount of energy savings increases almost linearly
  // with the increase in NN size" — absolute savings per app:
  man::bench::print_banner("Absolute MAN savings vs network size");
  man::util::Table table({"Application", "MACs/inference",
                          "conv energy (nJ)", "MAN saving (nJ)"});
  for (const auto& app : man::apps::all_apps()) {
    const auto spec = app.energy_spec();
    const double conv = compute_network_energy(spec).total_energy_pj;
    const double man_energy =
        compute_network_energy(
            with_uniform_scheme(spec, MultiplierKind::kMan,
                                AlphabetSet::man()))
            .total_energy_pj;
    table.add_row({app.name, std::to_string(spec.total_macs()),
                   man::util::format_double(conv * 1e-3, 2),
                   man::util::format_double((conv - man_energy) * 1e-3, 2)});
  }
  std::cout << table.to_string();

  // Engine replays: the per-layer activity behind the Fig 9 numbers,
  // recorded live — once per registered kernel backend sequentially,
  // once through the batched runtime, for the digit MLP (dense plans)
  // and the LeNet CNN (conv plans). Any divergence would invalidate
  // the energy accounting, so a mismatch fails the bench. This is the
  // CI bit-exactness gate for the multi-backend dispatch.
  const int workers = [] {
    const int requested = man::bench::bench_workers();
    return requested > 0 ? requested : 8;
  }();
  const std::size_t mlp_samples = samples_from_env("MAN_REPLAY_SAMPLES", 512);
  const std::size_t cnn_samples =
      samples_from_env("MAN_REPLAY_CNN_SAMPLES", 128);

  man::bench::print_banner(
      "Engine activity replay: per-backend + BatchRunner(" +
      std::to_string(workers) + " workers), digit MLP, ASM 4 {1,3,5,7}");
  const man::engine::FixedNetwork mlp_engine =
      build_replay_engine(AppId::kDigitMlp8);
  const ReplayResult mlp = run_replay(mlp_engine, mlp_samples, workers);
  std::cout << "auto-dispatch resolves to: "
            << man::backend::to_string(man::backend::detect_best_backend())
            << "\n";

  man::bench::print_banner(
      "CNN engine replay: per-backend + BatchRunner(" +
      std::to_string(workers) + " workers), LeNet digit CNN (12-bit), "
      "ASM 4 {1,3,5,7}");
  const man::engine::FixedNetwork cnn_engine =
      build_replay_engine(AppId::kDigitCnn12);
  const ReplayResult cnn = run_replay(cnn_engine, cnn_samples, workers);

  man::bench::print_banner(
      "Batch-as-lanes curve: digit MLP ns/sample at B = 1..64, per backend "
      "(gather = per-sample path, batched = lanes tail at every width, "
      "shipped = infer_batch_into)");
  const LanesCurve lanes_curve = run_lanes_curve(mlp_engine);

  man::bench::print_banner(
      "Plan-artifact cold start: mmap load vs in-process build, digit MLP");
  const ColdStartResult cold = run_cold_start(mlp_engine);
  std::cout << "build (projection + compile + autotune): "
            << man::util::format_double(cold.compile_s * 1e3, 2)
            << " ms, artifact mmap load: "
            << man::util::format_double(cold.load_s * 1e3, 3)
            << " ms (speedup "
            << man::util::format_double(cold.speedup(), 1)
            << "x), outputs "
            << (cold.identical ? "bit-identical" : "MISMATCH") << "\n";

  const bool identical = mlp.identical && cnn.identical && cold.identical &&
                         lanes_curve.identical;
  std::cout << "per-backend raw outputs + per-layer EngineStats "
            << "(MLP + CNN + lanes curve): " << (identical ? "bit-identical" : "MISMATCH")
            << "\n";

  if (const std::string json = man::bench::bench_json_path(); !json.empty()) {
    std::ofstream out(json);
    out << "{\n";
    emit_json_section(out, "fig9_replay", mlp, /*last=*/false);
    emit_json_section(out, "fig9_cnn_replay", cnn, /*last=*/false);
    emit_lanes_curve(out, lanes_curve);
    out << "  \"artifact_cold_start\": {\n    \"compile_ms\": "
        << man::util::format_double(cold.compile_s * 1e3, 3)
        << ",\n    \"load_ms\": "
        << man::util::format_double(cold.load_s * 1e3, 4)
        << ",\n    \"speedup\": "
        << man::util::format_double(cold.speedup(), 2)
        << ",\n    \"bit_identical\": "
        << (cold.identical ? "true" : "false") << "\n  }\n";
    out << "}\n";
  }
  return identical ? 0 : 1;
}

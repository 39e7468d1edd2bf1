// Per-layer probes of one replayed model, timed from outside the
// library around calls to its public functions:
//
//   engine_cache   compile + publish with no artifact present
//   artifact       load_engine (mmap + validate), artifact size, and
//                  the first batch after a fresh load (page-in)
//   engine         PhaseProfile split of single-thread infer_into, and
//                  the cost of attaching it (tracing overhead)
//   backend        GMAC/s of every synapse stage's kernel on its own
//                  compiled plan, and the conv tile autotune's choice
//   batch_runner   parallel efficiency of the kPoolThreads-worker pool
//   counts         MACs, pre-computer firings and modeled energy per
//                  sample and layer, from EngineStats
#include <algorithm>
#include <filesystem>
#include <random>
#include <variant>

#include "man/apps/activity_energy.h"
#include "man/apps/app_registry.h"
#include "man/artifact/plan_artifact.h"
#include "man/backend/kernel_backend.h"
#include "man/engine/batch_runner.h"
#include "workloads.h"

namespace perfbench {

namespace {

using man::backend::ConvLayerPlan;
using man::backend::DenseLayerPlan;
using man::backend::KernelBackend;
using man::engine::FixedNetwork;

constexpr int kCompileReps = 3;
constexpr int kLoadReps = 9;
constexpr int kProfileReps = 5;
constexpr std::size_t kProfileSamples = 256;
constexpr int kKernelRounds = 5;
constexpr double kKernelRoundSeconds = 0.02;
constexpr int kTracedKernelCalls = 256;

bool same(std::span<const std::int64_t> a, std::span<const std::int64_t> b) {
  return std::equal(a.begin(), a.end(), b.begin(), b.end());
}

// Appends rather than `stem + std::to_string(i)`, which trips a GCC 12
// -Wrestrict false positive.
std::string indexed(const std::string& stem, std::size_t i) {
  std::string out = stem;
  out += std::to_string(i);
  return out;
}

/// Tile shape the resolved kernel uses for a conv plan, as a number:
/// 10 * row_tile + col_vecs, 1 for the weight-stationary sweep, 2 for
/// the kernel default (untuned, or a kernel without tiles).
double tile_code(const ConvLayerPlan& plan, const KernelBackend& kernel) {
  man::backend::ConvTileShape shape;
  if (kernel.kind() == man::backend::BackendKind::kAvx512) {
    shape = plan.tile_avx512;
  } else if (kernel.kind() == man::backend::BackendKind::kSimd) {
    shape = plan.tile_avx2;
  }
  if (shape.weight_stationary) return 1.0;
  if (!plan.tiles_tuned || shape.row_tile <= 0) return 2.0;
  return 10.0 * shape.row_tile + shape.col_vecs;
}

/// Seeded kernel input: staged multiples for ASM plans (the caller
/// clears the zero slot or region), activations for exact ones.
std::vector<std::int64_t> kernel_input(std::size_t size, std::uint64_t seed) {
  std::mt19937_64 rng(seed);
  std::uniform_int_distribution<std::int64_t> value(-255, 255);
  std::vector<std::int64_t> buf(size);
  for (auto& v : buf) v = value(rng);
  return buf;
}

/// Median GMAC/s of `call` (which performs `macs` MACs) over timed
/// rounds, after one traced round whose calls are recorded as spans.
template <typename Call>
double kernel_gmacs(Call&& call, double macs, Tracer& tracer,
                    const char* span_name, std::uint64_t group) {
  for (int i = 0; i < kTracedKernelCalls; ++i) {
    ScopedSpan span(tracer, span_name, group);
    call();
  }
  std::vector<double> gmacs;
  for (int round = 0; round < kKernelRounds; ++round) {
    std::uint64_t calls = 0;
    const auto t0 = Clock::now();
    double elapsed = 0.0;
    do {
      call();
      calls += 1;
      elapsed = seconds_between(t0, Clock::now());
    } while (elapsed < kKernelRoundSeconds);
    gmacs.push_back(macs * static_cast<double>(calls) / elapsed / 1e9);
  }
  return median(gmacs);
}

}  // namespace

void probe_model_layers(const Options& options, const ModelCase& model,
                        Report& report, Tracer& tracer) {
  ScratchDir dir;
  const std::string p = model.prefix + ".";
  const std::string key = model.spec.key();
  const std::vector<float> inputs =
      make_images(options.seed, /*stream=*/1, kBatch * kBatches);
  const std::size_t samples = kBatch * kBatches;

  // Compile path: a cache with an empty plan tier compiles (including
  // conv tile autotuning) and publishes the artifact.
  std::vector<double> compile_s;
  std::string plans;
  std::shared_ptr<const FixedNetwork> compiled;
  for (int rep = 0; rep < kCompileReps; ++rep) {
    plans = dir.subdir(indexed("plans", static_cast<std::size_t>(rep)));
    auto cache = make_cache(dir, plans);
    const auto t0 = Clock::now();
    {
      ScopedSpan span(tracer, "EngineCache::get", rep);
      compiled = cache->get(model.spec);
    }
    compile_s.push_back(seconds_between(t0, Clock::now()));
  }
  const std::string path = man::artifact::artifact_path(plans, key);
  man::engine::EngineStats ref_stats;
  std::vector<std::int64_t> expected =
      scalar_reference(*compiled, inputs, &ref_stats);
  const std::size_t out_size = compiled->output_size();
  if (options.corrupt_reference) corrupt(expected, out_size);
  const auto sample_in = [&](std::size_t i, std::size_t n) {
    return std::span<const float>(inputs).subspan(i * kImagePixels,
                                                  n * kImagePixels);
  };
  const auto sample_expected = [&](std::size_t i, std::size_t n) {
    return std::span<const std::int64_t>(expected).subspan(i * out_size,
                                                           n * out_size);
  };

  man::engine::BatchOptions batch_options;
  batch_options.workers = kPoolThreads;

  // Artifact load and the first batch after it.
  std::vector<double> load_ms, first_ms;
  std::shared_ptr<const FixedNetwork> engine;
  std::vector<std::int64_t> out(samples * out_size);
  for (int rep = 0; rep < kLoadReps; ++rep) {
    engine.reset();
    const auto t0 = Clock::now();
    {
      ScopedSpan span(tracer, "artifact::load_engine", rep);
      engine = man::artifact::load_engine(path, key);
    }
    const auto t1 = Clock::now();
    man::engine::BatchRunner runner(*engine, batch_options);
    {
      ScopedSpan span(tracer, "BatchRunner::run", rep);
      runner.run(sample_in(0, kBatch),
                 std::span<std::int64_t>(out).first(kBatch * out_size));
    }
    const auto t2 = Clock::now();
    const auto first = std::span<const std::int64_t>(out).first(
        kBatch * out_size);
    report.check(same(first, sample_expected(0, kBatch)));
    load_ms.push_back(seconds_between(t0, t1) * 1e3);
    first_ms.push_back(seconds_between(t1, t2) * 1e3);
  }
  report.metric(p + "engine_cache.compile_s", median(compile_s), "s");
  report.metric(p + "artifact.load_ms", median(load_ms), "ms");
  report.metric(p + "artifact.bytes",
                static_cast<double>(std::filesystem::file_size(path)),
                "bytes");
  report.metric(p + "engine.first_result_ms", median(first_ms), "ms");

  // Phase split of single-thread infer_into, profile attached vs null.
  const KernelBackend& kernel = man::backend::resolve();
  report.note(p + "backend", kernel.name());
  auto scratch = engine->make_scratch();
  auto stats = engine->make_stats();
  man::engine::PhaseProfile phases;
  std::vector<double> attached_s, null_s;
  const auto sweep = [&](bool attach) {
    man::engine::PhaseProfile profile;
    scratch.profile = attach ? &profile : nullptr;
    std::vector<std::int64_t> one(out_size);
    bool ok = true;
    const auto t0 = Clock::now();
    for (std::size_t i = 0; i < kProfileSamples; ++i) {
      if (attach) {
        ScopedSpan span(tracer, "FixedNetwork::infer_into", i);
        engine->infer_into(sample_in(i, 1), one, stats, scratch, kernel);
      } else {
        engine->infer_into(sample_in(i, 1), one, stats, scratch, kernel);
      }
      ok = same(one, sample_expected(i, 1)) && ok;
    }
    const double elapsed = seconds_between(t0, Clock::now());
    report.check(ok);
    scratch.profile = nullptr;
    phases.quantize_s += profile.quantize_s;
    phases.staging_s += profile.staging_s;
    phases.kernel_s += profile.kernel_s;
    phases.lut_s += profile.lut_s;
    phases.pool_s += profile.pool_s;
    return elapsed;
  };
  for (int rep = 0; rep < kProfileReps; ++rep) {
    null_s.push_back(sweep(false));
    attached_s.push_back(sweep(true));
  }
  const double profiled = static_cast<double>(kProfileReps * kProfileSamples);
  const auto per_sample_ns = [&](double s) { return s * 1e9 / profiled; };
  report.metric(p + "engine.quantize_ns", per_sample_ns(phases.quantize_s),
                "ns");
  report.metric(p + "engine.staging_ns", per_sample_ns(phases.staging_s),
                "ns");
  report.metric(p + "engine.kernel_ns", per_sample_ns(phases.kernel_s), "ns");
  report.metric(p + "engine.lut_ns", per_sample_ns(phases.lut_s), "ns");
  const auto model_desc = engine->compiled_model();
  if (std::any_of(model_desc.stages.begin(), model_desc.stages.end(),
                  [](const auto& stage) {
                    return std::holds_alternative<
                        man::engine::CompiledPoolStage>(stage);
                  })) {
    report.metric(p + "engine.pool_ns", per_sample_ns(phases.pool_s), "ns");
  }
  report.metric(p + "engine.trace_overhead_pct",
                (median(attached_s) / median(null_s) - 1.0) * 100.0, "%");

  // Kernel throughput per synapse stage, in stage order.
  std::size_t dense_i = 0, conv_i = 0, stage_i = 0;
  for (const auto& stage : model_desc.stages) {
    const std::string s = indexed("s", stage_i);
    double gmacs = 0.0;
    if (std::holds_alternative<man::engine::CompiledDenseStage>(stage)) {
      const DenseLayerPlan& plan = engine->plans()[dense_i++];
      auto in = kernel_input(
          plan.exact ? static_cast<std::size_t>(plan.cols)
                           : plan.padded_multiples(),
          options.seed + stage_i);
      if (!plan.exact) in[plan.zero_slot] = 0;
      std::vector<std::int64_t> acc(static_cast<std::size_t>(plan.rows));
      gmacs = kernel_gmacs(
          [&] {
            if (plan.exact) {
              kernel.exact_dense(plan, in.data(), acc.data());
            } else {
              kernel.accumulate_dense(plan, in.data(), acc.data());
            }
          },
          static_cast<double>(plan.rows) * plan.cols, tracer,
          "KernelBackend::accumulate_dense", stage_i);
    } else if (std::holds_alternative<man::engine::CompiledConvStage>(stage)) {
      const ConvLayerPlan& plan = engine->conv_plans()[conv_i++];
      auto in = kernel_input(
          plan.exact ? static_cast<std::size_t>(plan.ic * plan.ih * plan.iw)
                           : plan.padded_multiples(),
          options.seed + stage_i);
      if (!plan.exact) {
        std::fill(in.begin() + plan.zero_base, in.end(), 0);
      }
      std::vector<std::int64_t> acc(static_cast<std::size_t>(plan.oc) *
                                    plan.oh * plan.ow);
      gmacs = kernel_gmacs(
          [&] {
            if (plan.exact) {
              kernel.exact_conv(plan, in.data(), acc.data());
            } else {
              kernel.accumulate_conv(plan, in.data(), acc.data());
            }
          },
          static_cast<double>(plan.oc) * plan.cols * plan.oh * plan.ow,
          tracer, "KernelBackend::accumulate_conv", stage_i);
      report.metric(p + "backend.conv_tile." + s, tile_code(plan, kernel),
                    "code");
    } else {
      continue;
    }
    report.metric(p + "backend." + s + ".gmacs", gmacs, "GMAC/s");
    ++stage_i;
  }

  // Parallel efficiency: single-thread ns/sample over the batch set
  // against kPoolThreads workers' batched ns/sample.
  std::vector<double> single_ns, batched_ns;
  man::engine::BatchRunner runner(*engine, batch_options);
  for (int rep = 0; rep < 3; ++rep) {
    std::vector<std::int64_t> one(out_size);
    auto t0 = Clock::now();
    for (std::size_t i = 0; i < samples; ++i) {
      engine->infer_into(sample_in(i, 1), one, stats, scratch, kernel);
    }
    single_ns.push_back(seconds_between(t0, Clock::now()) * 1e9 /
                        static_cast<double>(samples));
    t0 = Clock::now();
    for (std::size_t b = 0; b < kBatches; ++b) {
      runner.run(sample_in(b * kBatch, kBatch),
                 std::span<std::int64_t>(out).subspan(b * kBatch * out_size,
                                                      kBatch * out_size));
    }
    batched_ns.push_back(seconds_between(t0, Clock::now()) * 1e9 /
                         static_cast<double>(samples));
    report.check(same(out, expected));
  }
  report.metric(p + "batch_runner.parallel_eff",
                median(single_ns) / (kPoolThreads * median(batched_ns)),
                "ratio");

  // Activity counts and modeled energy, per sample.
  const double n = static_cast<double>(ref_stats.inferences);
  std::uint64_t bank_fires = 0;
  for (const auto& layer : ref_stats.layers) {
    bank_fires += layer.bank_activations;
  }
  report.metric(p + "engine.macs_per_sample",
                static_cast<double>(ref_stats.total_macs()) / n, "count");
  report.metric(p + "engine.bank_fires_per_sample",
                static_cast<double>(bank_fires) / n, "count");
  const auto energy = man::apps::energy_from_activity(
      ref_stats, engine->plan(),
      man::apps::get_app(model.spec.app).weight_bits);
  for (std::size_t i = 0; i < energy.layers.size(); ++i) {
    report.metric(indexed(p + "energy.s", i) + ".pj",
                  energy.layers[i].total_pj() / n, "pJ");
  }
}

}  // namespace perfbench

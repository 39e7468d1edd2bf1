#include <algorithm>
#include <memory>

#include "man/backend/conv_autotune.h"
#include "man/backend/kernel_backend.h"
#include "man/engine/batch_runner.h"
#include "workloads.h"

namespace perfbench {

namespace {

using man::engine::BatchRunner;
using man::engine::FixedNetwork;

bool same(std::span<const std::int64_t> a, std::span<const std::int64_t> b) {
  return std::equal(a.begin(), a.end(), b.begin(), b.end());
}

}  // namespace

void run_replay(const Options& options, const ModelCase& model,
                double seconds, bool emit, Report& report, Tracer& tracer) {
  ScratchDir dir;
  const std::string plans = dir.subdir("plans");

  // Prepare (untimed): compile, publish the artifact, draw the seeded
  // batch set and its scalar sequential reference.
  std::vector<float> inputs =
      make_images(options.seed, /*stream=*/1, kBatch * kBatches);
  std::vector<std::int64_t> expected;
  std::size_t out_size = 0;
  {
    auto cache = make_cache(dir, plans);
    const auto compiled = cache->get(model.spec);
    out_size = compiled->output_size();
    expected = scalar_reference(*compiled, inputs);
  }
  if (options.corrupt_reference) corrupt(expected, out_size);
  const auto batch_in = [&](std::size_t b) {
    return std::span<const float>(inputs).subspan(b * kBatch * kImagePixels,
                                                  kBatch * kImagePixels);
  };
  const auto batch_expected = [&](std::size_t b) {
    return std::span<const std::int64_t>(expected).subspan(
        b * kBatch * out_size, kBatch * out_size);
  };

  man::engine::BatchOptions batch_options;
  batch_options.workers = kPoolThreads;

  // Set-up, repeated: a fresh cache mmaps the artifact, a new runner
  // starts its pool, and the first batch must come back correct.
  std::shared_ptr<const FixedNetwork> engine;
  std::unique_ptr<BatchRunner> runner;
  std::vector<std::int64_t> out(kBatch * out_size);
  std::vector<double> setup_s;
  for (int rep = 0; rep < kSetupReps; ++rep) {
    runner.reset();
    engine.reset();
    const auto t0 = Clock::now();
    {
      ScopedSpan setup(tracer, "replay.setup", rep);
      auto cache = make_cache(dir, plans);
      {
        ScopedSpan get(tracer, "EngineCache::get", rep, setup.id());
        engine = cache->get(model.spec);
      }
      runner = std::make_unique<BatchRunner>(*engine, batch_options);
      ScopedSpan run(tracer, "BatchRunner::run", rep, setup.id());
      runner->run(batch_in(0), out);
    }
    report.check(same(out, batch_expected(0)));
    setup_s.push_back(seconds_between(t0, Clock::now()));
  }

  // Untimed warm-up: caches, the pool and the host settle before the
  // timed window.
  const auto warm_until =
      Clock::now() + std::chrono::duration<double>(kWarmupSeconds);
  for (std::size_t n = 0; n < kBatches || Clock::now() < warm_until; ++n) {
    const std::size_t b = n % kBatches;
    runner->run(batch_in(b), out);
    report.check(same(out, batch_expected(b)));
  }

  runner->reset_stats();
  Sliced latency_s;
  const auto start = Clock::now();
  const auto deadline = start + std::chrono::duration<double>(seconds);
  for (std::uint64_t n = 0;; ++n) {
    const std::size_t b = n % kBatches;
    const auto t0 = Clock::now();
    {
      ScopedSpan span(tracer, "BatchRunner::run", kSetupReps + n);
      runner->run(batch_in(b), out);
    }
    const auto t1 = Clock::now();
    const bool ok = report.check(same(out, batch_expected(b)));
    latency_s.add(seconds_between(start, t0), seconds_between(t0, t1),
                  ok ? kBatch : 0);
    if (t1 >= deadline) break;
  }

  const std::vector<double> all = latency_s.all();
  report.note("backend", runner->kernel().name());
  report.note("runner_workers", runner->workers());
  std::string tiles;
  for (const auto& plan : engine->conv_plans()) {
    tiles += (tiles.empty() ? "" : ",") +
             man::backend::to_string(runner->kernel().kind() ==
                                             man::backend::BackendKind::kAvx512
                                         ? plan.tile_avx512
                                         : plan.tile_avx2);
  }
  report.note("conv_tiles", tiles);
  report.note("latency_p99_ms", quantile(all, 0.99) * 1e3);
  report.note("latency_p999_ms", quantile(all, 0.999) * 1e3);
  report.note("latency_samples", static_cast<double>(all.size()));
  if (!emit) return;
  report.metric("samples_per_s", latency_s.rate(), "samples/s");
  report.metric("latency_p50_ms", latency_s.quantile(0.5) * 1e3, "ms");
  report.metric("latency_p90_ms", latency_s.quantile(0.9) * 1e3, "ms");
  report.metric("setup_s", median(setup_s), "s");
  report.metric("peak_rss_mb", peak_rss_mb(), "MB");
  report.metric("energy_nj_per_sample",
                energy_nj_per_sample(runner->stats(), *engine, model.spec),
                "nJ");
}

}  // namespace perfbench

// Shared helpers for the benchmark harness binaries.
#ifndef MAN_BENCH_BENCH_COMMON_H
#define MAN_BENCH_BENCH_COMMON_H

#include <cstdlib>
#include <iostream>
#include <string>
#include <vector>

#include "man/apps/app_registry.h"
#include "man/apps/model_cache.h"
#include "man/engine/batch_runner.h"
#include "man/engine/fixed_network.h"
#include "man/util/stopwatch.h"
#include "man/util/table.h"

namespace man::bench {

/// Dataset scale for the accuracy benches, from MAN_BENCH_SCALE
/// (default 0.5 — halves the per-class counts for a first run that
/// finishes in minutes; use 1.0 for the full corpora).
inline double bench_scale() {
  if (const char* env = std::getenv("MAN_BENCH_SCALE")) {
    const double value = std::atof(env);
    if (value > 0.0) return value;
  }
  return 0.5;
}

/// Worker-pool size for the batched engine runs, from
/// MAN_BENCH_WORKERS (default 0 = auto-detect).
inline int bench_workers() {
  if (const char* env = std::getenv("MAN_BENCH_WORKERS")) {
    const int value = std::atoi(env);
    if (value > 0) return value;
  }
  return 0;
}

/// Machine-readable results sink: when MAN_BENCH_JSON names a file,
/// benches write their headline metrics there (the CI bench-regression
/// job collects these into BENCH_<sha>.json and compares against
/// bench/baseline.json). Empty when unset.
inline std::string bench_json_path() {
  if (const char* env = std::getenv("MAN_BENCH_JSON")) return env;
  return {};
}

/// Batched accuracy over a split (the engine-evaluation loop every
/// accuracy bench goes through).
inline double evaluate_batched(const man::engine::FixedNetwork& engine,
                               std::span<const man::data::Example> examples) {
  man::engine::BatchRunner runner(
      engine, man::engine::BatchOptions{.workers = bench_workers()});
  return runner.evaluate(examples).accuracy;
}

/// One rung of an accuracy ladder (a row of Tables II/III).
struct LadderRow {
  std::string scheme_label;
  double accuracy = 0.0;       ///< fixed-point engine accuracy
  double loss_vs_conventional = 0.0;  ///< percentage points
};

/// Reproduces one Table II/III block: conventional engine accuracy,
/// then ASM 4 {1,3,5,7}, 2 {1,3}, 1 {1} after constrained retraining.
inline std::vector<LadderRow> run_accuracy_ladder(
    const man::apps::AppSpec& app, man::apps::ModelCache& cache,
    const man::data::Dataset& dataset, double scale) {
  using man::core::AlphabetSet;
  using man::engine::FixedNetwork;
  using man::engine::LayerAlphabetPlan;

  std::vector<LadderRow> rows;

  auto baseline = cache.baseline(app, dataset, scale);
  FixedNetwork conventional(
      baseline, app.quant(),
      LayerAlphabetPlan::conventional(baseline.num_weight_layers()));
  const double conv_acc = evaluate_batched(conventional, dataset.test);
  rows.push_back(LadderRow{"conventional NN", conv_acc, 0.0});

  for (std::size_t n : {4u, 2u, 1u}) {
    const AlphabetSet set = AlphabetSet::first_n(n);
    auto net = cache.retrained(app, dataset, scale, set);
    FixedNetwork engine(
        net, app.quant(),
        LayerAlphabetPlan::uniform_asm(net.num_weight_layers(), set));
    const double acc = evaluate_batched(engine, dataset.test);
    rows.push_back(LadderRow{std::to_string(n) + " " + set.to_string(), acc,
                             (conv_acc - acc) * 100.0});
  }
  return rows;
}

/// Prints a header naming the reproduced artifact.
inline void print_banner(const std::string& title) {
  std::cout << "\n=== " << title << " ===\n";
}

}  // namespace man::bench

#endif  // MAN_BENCH_BENCH_COMMON_H

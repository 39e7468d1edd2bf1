// The benchmark's workloads and per-layer probes. Each adds its
// metrics and checked operations to a Report and its spans to a Tracer.
#ifndef PERFBENCH_WORKLOADS_H
#define PERFBENCH_WORKLOADS_H

#include "common.h"
#include "models.h"

namespace perfbench {

/// Samples per replayed batch and distinct batches in a replay set.
inline constexpr std::size_t kBatch = 64;
inline constexpr std::size_t kBatches = 16;
/// Every worker pool the benchmark creates has this many threads, so
/// runs neither depend on nor oversubscribe the host's core count.
inline constexpr int kPoolThreads = 2;
/// Untimed warm-up before every timed window.
inline constexpr double kWarmupSeconds = 1.0;
/// Set-up is repeated this many times per run; setup_s is the median.
inline constexpr int kSetupReps = 31;

/// Closed loop of back-to-back kBatch-sample batches of `model`
/// through a kPoolThreads-worker BatchRunner for `seconds`. With
/// `emit`, adds the end-to-end metrics.
void run_replay(const Options& options, const ModelCase& model,
                double seconds, bool emit, Report& report, Tracer& tracer);

/// Open loop of single-sample HTTP requests, alternating the tiered
/// digit model and the face model, for `seconds`. `emit_e2e` adds the
/// end-to-end metrics, `emit_layers` the serving-layer metrics.
void run_serve(const Options& options, double seconds, bool emit_e2e,
               bool emit_layers, Report& report, Tracer& tracer);

/// Per-layer probes of one model: artifact load, compile, phase
/// split, kernel throughput, parallel efficiency and activity energy.
void probe_model_layers(const Options& options, const ModelCase& model,
                        Report& report, Tracer& tracer);

}  // namespace perfbench

#endif  // PERFBENCH_WORKLOADS_H

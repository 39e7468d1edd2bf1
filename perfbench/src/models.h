// The engines the benchmark drives and the references their outputs
// are checked against. Weights are untrained and deterministic, so no
// run trains; every engine is compiled once per run in an untimed
// prepare step that also publishes its plan artifact.
#ifndef PERFBENCH_MODELS_H
#define PERFBENCH_MODELS_H

#include <cstdint>
#include <memory>
#include <span>
#include <string>
#include <vector>

#include "man/engine/engine_stats.h"
#include "man/engine/fixed_network.h"
#include "man/serve/engine_cache.h"

namespace perfbench {

class ScratchDir;

/// One replayed model: the metric-name prefix and its engine spec.
struct ModelCase {
  std::string prefix;
  man::serve::EngineSpec spec;
};

/// Digit MLP 1024-100-10, 8-bit, ASM-4 {1,3,5,7}.
[[nodiscard]] ModelCase mlp_case();
/// LeNet CNN, 12-bit, ASM-4 {1,3,5,7}.
[[nodiscard]] ModelCase cnn_case();
/// Face MLP 1024-100-2, 12-bit, MAN {1}.
[[nodiscard]] man::serve::EngineSpec face_spec();
/// The digit model's QoS ladder: asm4, asm2, exact.
[[nodiscard]] std::vector<man::serve::QosTier> digit_ladder();

/// An engine cache rooted in `dir` (trained-model cache) whose plan
/// tier is `plan_dir`.
[[nodiscard]] std::unique_ptr<man::serve::EngineCache> make_cache(
    const ScratchDir& dir, const std::string& plan_dir);

/// Raw outputs of `inputs` (count x 1024 floats) run one by one
/// through `engine` on the scalar kernel — the bit-exactness
/// reference. Activity is accumulated into `stats` when non-null.
[[nodiscard]] std::vector<std::int64_t> scalar_reference(
    const man::engine::FixedNetwork& engine, std::span<const float> inputs,
    man::engine::EngineStats* stats = nullptr);

/// Flips the low bit of every sample's first output (self-test).
void corrupt(std::vector<std::int64_t>& expected, std::size_t output_size);

/// Modeled 45 nm energy per inference of the recorded activity, in nJ.
[[nodiscard]] double energy_nj_per_sample(
    const man::engine::EngineStats& stats,
    const man::engine::FixedNetwork& engine,
    const man::serve::EngineSpec& spec);

}  // namespace perfbench

#endif  // PERFBENCH_MODELS_H

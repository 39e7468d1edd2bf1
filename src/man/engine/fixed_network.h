// The fixed-point "processing engine" (paper §V): bit-accurate integer
// forward propagation of a trained network through ASM/MAN/conventional
// multiplier datapaths, with per-layer alphabet schemes.
//
// The engine is built from a trained (and, for ASM schemes, projected)
// float network. Weights are quantized to the QuantSpec grid and — for
// ASM/MAN layers — constrained to the layer's alphabet set; each
// weight's select/shift schedule is precompiled so inference costs a
// few adds per MAC, exactly mirroring the hardware datapath:
//
//   product(w, x) = (-1)^sign(w) · Σ_quartets (a_q · x) << s_q
//
// where a_q·x comes off the shared pre-computer bank (computed once
// per input value, as in the CSHM unit of Fig 3).
#ifndef MAN_ENGINE_FIXED_NETWORK_H
#define MAN_ENGINE_FIXED_NETWORK_H

#include <cstdint>
#include <memory>
#include <span>
#include <string>
#include <utility>
#include <variant>
#include <vector>

#include "man/backend/kernel_backend.h"
#include "man/core/activation.h"
#include "man/core/precomputer_bank.h"
#include "man/engine/engine_stats.h"
#include "man/engine/layer_alphabet_plan.h"
#include "man/nn/network.h"
#include "man/nn/quantize.h"

namespace man::engine {

/// Index of the largest raw accumulator (first max wins) — the one
/// argmax every prediction path shares, so tie-breaking can never
/// diverge between the single-sample and batched runtimes.
[[nodiscard]] inline int argmax_raw(
    std::span<const std::int64_t> raw) noexcept {
  int best = 0;
  for (std::size_t i = 1; i < raw.size(); ++i) {
    if (raw[i] > raw[static_cast<std::size_t>(best)]) {
      best = static_cast<int>(i);
    }
  }
  return best;
}

/// Wall-clock attribution of the per-element phases inside one
/// infer_into() call, accumulated across calls: CSHM staging (flat
/// table fill + copy into the multiples buffer), the activation LUT
/// sweep, the kernel-backend accumulation, pooling, and input
/// quantization. Attach to InferScratch::profile to collect;
/// bench_fig9_energy uses it to emit the per-element breakdown that
/// makes staging/LUT regressions attributable. A batch tile whose
/// dense tail starts at the first stage quantizes while it stages, so
/// that quantization is charged to staging_s.
struct PhaseProfile {
  double quantize_s = 0.0;
  double staging_s = 0.0;
  double kernel_s = 0.0;
  double lut_s = 0.0;
  double pool_s = 0.0;
  std::uint64_t staged_values = 0;  ///< values run through staging
  std::uint64_t lut_values = 0;     ///< values run through apply_raw
};

/// Everything compile_plan() distilled out of one synapse stage
/// besides its plan: the scheme (to rebuild the pre-computer bank),
/// the stats label, and the static per-inference activity. Part of
/// the CompiledModel export the artifact layer serializes.
struct CompiledSynapse {
  LayerScheme scheme;
  std::string name;  ///< stats layer label
  std::uint64_t macs = 0;
  std::uint64_t bank_activations = 0;
  man::core::OpCounts ops_per_inference;
};

struct CompiledDenseStage {
  int in = 0, out = 0;
  CompiledSynapse synapse;
};
struct CompiledConvStage {
  int ic = 0, oc = 0, k = 0, ih = 0, iw = 0, oh = 0, ow = 0;
  CompiledSynapse synapse;
};
struct CompiledPoolStage {
  int c = 0, ih = 0, iw = 0, window = 0, oh = 0, ow = 0;
};
struct CompiledLutStage {
  man::core::ActivationKind kind = man::core::ActivationKind::kIdentity;
};
using CompiledStage = std::variant<CompiledDenseStage, CompiledConvStage,
                                   CompiledPoolStage, CompiledLutStage>;

/// Post-compilation engine description: with plans()/conv_plans()
/// this is everything needed to reconstruct a serving-equivalent
/// FixedNetwork with zero train/compile work — banks and LUT tables
/// are cheap deterministic functions of the descriptors, so they are
/// rebuilt at load instead of being serialized.
struct CompiledModel {
  man::nn::QuantSpec spec;
  int lanes = 4;
  std::vector<CompiledStage> stages;
};

/// Bit-accurate fixed-point inference engine. Immutable once built:
/// every forward pass is const and writes only the caller's stats and
/// scratch (BatchRunner owns both for batched evaluation).
class FixedNetwork {
 public:
  /// Compiles `network` under `spec` and `plan`. The plan must have
  /// exactly one scheme per synapse (dense/conv) layer. `lanes` is the
  /// CSHM sharing degree (paper: 4). Weights not representable under a
  /// layer's alphabet set are constrained to the nearest representable
  /// value (Algorithm 1 semantics) during compilation. Throws
  /// std::invalid_argument when the activation format spans more raw
  /// values than the CSHM staging window holds, or when an ASM stage
  /// fails its int32 overflow proof (|bias| + Σ|w|·max|x| above
  /// INT32_MAX for some neuron; the message names the stage and the
  /// bound).
  FixedNetwork(man::nn::Network& network, man::nn::QuantSpec spec,
               LayerAlphabetPlan plan, int lanes = 4);

  /// Reconstructs an engine from an exported CompiledModel plus its
  /// compiled plans, in stage order (the artifact loader's path): no
  /// float network, no training, no projection — pre-computer banks
  /// and activation LUTs are rebuilt deterministically from the
  /// descriptors, and the result is bit-identical to the engine the
  /// model was exported from. `storage` (may be null) is pinned for
  /// the engine's lifetime; plans with borrowed arrays point into it.
  /// Throws std::invalid_argument when plans and descriptors disagree
  /// (count, geometry, or exact/ASM mode) or the activation format is
  /// too wide to stage. The plans are trusted to have passed their
  /// overflow proof when they were compiled; it is not re-run here.
  FixedNetwork(const CompiledModel& model,
               std::vector<man::backend::DenseLayerPlan> plans,
               std::vector<man::backend::ConvLayerPlan> conv_plans,
               std::shared_ptr<const void> storage);

  /// Stage descriptors of this engine — the serializable complement
  /// of plans()/conv_plans() (see CompiledModel).
  [[nodiscard]] CompiledModel compiled_model() const;

  [[nodiscard]] const man::nn::QuantSpec& quant_spec() const noexcept {
    return spec_;
  }
  [[nodiscard]] const LayerAlphabetPlan& plan() const noexcept {
    return plan_;
  }
  [[nodiscard]] int lanes() const noexcept { return lanes_; }

  /// Pixels per input image / accumulators per output (fixed by the
  /// compiled stage graph).
  [[nodiscard]] std::size_t input_size() const noexcept {
    return input_size_;
  }
  [[nodiscard]] std::size_t output_size() const noexcept {
    return output_size_;
  }

  /// Per-worker mutable state for the re-entrant forward path: the
  /// activation ping-pong buffers plus one PrecomputerCache per
  /// synapse stage, so the CSHM bank outputs computed for one sample
  /// are reused across every later sample fed through the same
  /// scratch (a shard). Obtain via make_scratch(); the engine must
  /// outlive it.
  struct InferScratch {
    /// Current stage activations; for a dense tail that starts at
    /// the first stage, one column block of quantized pixels.
    std::vector<std::int64_t> buffer;
    std::vector<std::int64_t> next;    ///< next stage activations
    /// Bank outputs (int32, as the kernel lanes read them):
    /// k-strided element-major for dense stages, lane-major (plus
    /// zero region) for conv stages, one slot-major column block for
    /// batched dense-tail stages.
    std::vector<std::int32_t> multiples;
    std::vector<man::core::PrecomputerCache> caches;  ///< per synapse stage
    /// Dense-tail activations of one batch tile (infer_batch_into),
    /// lane-major: value c of sample b at c·lanes + b; ping-pong.
    std::vector<std::int64_t> tile;
    std::vector<std::int64_t> tile_next;
    /// Non-null: infer_into()/infer_batch_into() time their
    /// per-element phases into this (adds two clock reads per stage —
    /// leave null on hot paths).
    PhaseProfile* profile = nullptr;
  };
  [[nodiscard]] InferScratch make_scratch() const;

  /// Zeroed stats with this engine's layer layout (names prefilled) —
  /// the shape infer_into() accumulates into and EngineStats::merge()
  /// reduces over.
  [[nodiscard]] EngineStats make_stats() const;

  /// Re-entrant forward pass: quantizes `pixels`, runs every stage,
  /// and writes the final-layer raw accumulators (pre-activation,
  /// product scale) into `out` (size output_size()). Activity is
  /// accumulated into `stats`; `scratch` carries the buffers and the
  /// CSHM caches between calls. Safe to call concurrently from many
  /// threads as long as each thread owns its `stats` and `scratch`.
  /// Synapse stages (dense and conv) run on this engine's default
  /// kernel backend (resolved from MAN_BACKEND / CPU detection at
  /// construction).
  void infer_into(std::span<const float> pixels, std::span<std::int64_t> out,
                  EngineStats& stats, InferScratch& scratch) const;

  /// Same forward pass on an explicit kernel backend (BatchRunner
  /// threads its resolved choice through here). Every backend is
  /// bit-identical by contract, so the outputs cannot depend on
  /// `kernel` — only the wall-clock does.
  void infer_into(std::span<const float> pixels, std::span<std::int64_t> out,
                  EngineStats& stats, InferScratch& scratch,
                  const man::backend::KernelBackend& kernel) const;

  /// Batched forward pass over `count` samples stored contiguously in
  /// `inputs` (count × input_size() floats), raw accumulators into
  /// `outputs` (count × output_size()). The stages before the dense
  /// tail — the longest suffix of ASM dense and LUT stages, from its
  /// first ASM dense stage on — run per sample; the tail runs
  /// batch-as-lanes over tiles of up to kMaxBatchLanes samples
  /// (KernelBackend::accumulate_dense_batch). A tile narrower than
  /// kernel.min_batch_lanes() runs infer_into sample by sample
  /// instead. Outputs and `stats` are bit-identical to calling
  /// infer_into on each sample in order.
  void infer_batch_into(std::span<const float> inputs,
                        std::span<std::int64_t> outputs, EngineStats& stats,
                        InferScratch& scratch,
                        const man::backend::KernelBackend& kernel) const;

  /// MACs per single inference, per synapse layer (static property).
  [[nodiscard]] std::vector<std::uint64_t> macs_per_inference() const;

  /// The compiled per-dense-stage plans, in stage order.
  [[nodiscard]] const std::vector<man::backend::DenseLayerPlan>& plans()
      const noexcept {
    return plans_;
  }

  /// The compiled per-conv-stage plans, in stage order.
  [[nodiscard]] const std::vector<man::backend::ConvLayerPlan>& conv_plans()
      const noexcept {
    return conv_plans_;
  }

  /// The kernel backend infer_into() uses when none is passed
  /// explicitly (resolved once at construction).
  [[nodiscard]] const man::backend::KernelBackend& default_kernel()
      const noexcept {
    return *default_kernel_;
  }

 private:
  // Flattened select/shift schedule: steps_[begin..end) per weight.
  // Shared with the backend layer (the scalar kernel walks exactly
  // this representation).
  using AsmWeight = man::backend::AsmWeight;
  using Step = man::backend::AsmStep;

  /// Shared machinery for dense and conv synapse stages.
  struct SynapseData {
    LayerScheme scheme;
    std::string name;  ///< stats layer label (CompiledSynapse::name)
    std::vector<std::int32_t> weights_raw;  // quantized (+constrained)
    std::vector<std::int64_t> biases_raw;   // product scale
    // ASM compilation (empty for conventional scheme):
    std::vector<AsmWeight> asm_weights;
    std::vector<Step> steps;
    man::core::PrecomputerBank bank{man::core::AlphabetSet::man()};
    // Static per-inference activity (precomputed at build time):
    std::uint64_t macs = 0;
    std::uint64_t bank_activations = 0;
    man::core::OpCounts ops_per_inference;
  };

  struct DenseStage {
    int in = 0, out = 0;
    int plan_index = -1;  ///< into plans_ once compile_plan() has run
    SynapseData synapse;
  };
  struct ConvStage {
    int ic = 0, oc = 0, k = 0, ih = 0, iw = 0, oh = 0, ow = 0;
    int plan_index = -1;  ///< into conv_plans_ once compile_plan() has run
    SynapseData synapse;
  };
  struct PoolStage {
    int c = 0, ih = 0, iw = 0, window = 0, oh = 0, ow = 0;
  };
  struct LutStage {
    man::core::FixedActivationLut lut;
  };
  using Stage = std::variant<DenseStage, ConvStage, PoolStage, LutStage>;

  void compile_synapse(SynapseData& synapse, std::span<const float> weights,
                       std::span<const float> biases, std::uint64_t macs,
                       int out_neurons);

  /// One-time lowering of every synapse stage to a structure-of-arrays
  /// backend plan (contiguous quartet planes + sign masks): dense
  /// stages to DenseLayerPlan, conv stages to ConvLayerPlan. Run once
  /// at the end of construction; the schedules are moved out of
  /// SynapseData into the plans — every synapse hot path runs on the
  /// kernel backends.
  void compile_plan();

  /// Static stage-graph pass shared by both constructors: validates
  /// that consecutive stages agree on activation counts and records
  /// input_size_/output_size_ and tail_begin_.
  void link_stages();

  /// Re-binds a foreign or default-constructed scratch's caches and
  /// sizes default-constructed stats; rejects a mismatched layout.
  void prepare(EngineStats& stats, InferScratch& scratch) const;
  /// One sample through every stage (sizes already validated).
  void forward_one(std::span<const float> pixels, std::span<std::int64_t> out,
                   EngineStats& stats, InferScratch& scratch,
                   const man::backend::KernelBackend& kernel) const;
  /// Stages [0, end) on one sample's quantized pixels in
  /// scratch.buffer, leaving that stage's output there.
  void run_stages(std::size_t end, EngineStats& stats, InferScratch& scratch,
                  const man::backend::KernelBackend& kernel) const;
  /// One tile of `lanes` samples: per-sample stages before the tail,
  /// then the dense tail batch-as-lanes.
  void forward_tile(std::span<const float> inputs,
                    std::span<std::int64_t> outputs, int lanes,
                    EngineStats& stats, InferScratch& scratch,
                    const man::backend::KernelBackend& kernel) const;
  [[nodiscard]] const SynapseData& synapse_at(std::size_t stage_index) const;

  /// The staging window every synapse stage's inputs lie in (the
  /// activation format's raw range). Throws std::invalid_argument when
  /// the format spans more than PrecomputerCache::kMaxFlatSpan values
  /// (both constructors call it first, so such an engine never
  /// exists).
  [[nodiscard]] std::pair<std::int64_t, std::int64_t> staging_window() const;

  man::nn::QuantSpec spec_;
  LayerAlphabetPlan plan_;
  int lanes_;
  std::vector<Stage> stages_;
  std::vector<std::size_t> synapse_stage_indices_;
  std::vector<man::backend::DenseLayerPlan> plans_;
  std::vector<man::backend::ConvLayerPlan> conv_plans_;
  /// Keeps the backing storage of borrowed plan arrays (an mmap'ed
  /// artifact) alive for the engine's lifetime; null for compiled
  /// engines, whose plans own their arrays.
  std::shared_ptr<const void> storage_;
  const man::backend::KernelBackend* default_kernel_ = nullptr;
  std::size_t input_size_ = 0;
  std::size_t output_size_ = 0;
  /// First stage of the dense tail (stages_.size() when there is
  /// none) and the synapse index of that stage.
  std::size_t tail_begin_ = 0;
  std::size_t tail_synapse_ = 0;
};

}  // namespace man::engine

#endif  // MAN_ENGINE_FIXED_NETWORK_H

// Batch-as-lanes dense tails: FixedNetwork::infer_batch_into against
// the sequential scalar infer_into on every backend and batch size
// (outputs and EngineStats), for the shipped MLPs, the CNN's dense
// tail, mixed exact/ASM networks and artifact-loaded engines — plus a
// random-plan differential of KernelBackend::accumulate_dense_batch
// against accumulate_dense over ragged lane counts and column blocks.
#include <gtest/gtest.h>

#include <unistd.h>

#include <filesystem>
#include <memory>
#include <random>
#include <string>
#include <vector>

#include "man/apps/app_registry.h"
#include "man/artifact/plan_artifact.h"
#include "man/backend/kernel_backend.h"
#include "man/engine/fixed_network.h"
#include "man/nn/activation_layer.h"
#include "man/nn/constraint_projection.h"
#include "man/nn/dense.h"
#include "man/util/rng.h"

namespace man::engine {
namespace {

using man::apps::AppId;
using man::backend::AsmStep;
using man::backend::AsmWeight;
using man::backend::DenseLayerPlan;
using man::backend::KernelBackend;
using man::core::AlphabetSet;
using man::core::MultiplierKind;

/// Delegates every kernel to `inner` but reports min_batch_lanes() 1,
/// so infer_batch_into takes the batched tail at every tile width —
/// including on the scalar reference, whose own crossover is "never".
class ForcedBatchKernel final : public KernelBackend {
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
  void accumulate_dense(const DenseLayerPlan& plan,
                        const std::int32_t* multiples,
                        std::int64_t* out) const override {
    inner_.accumulate_dense(plan, multiples, out);
  }
  void accumulate_dense_batch(const DenseLayerPlan& plan,
                              const std::int32_t* multiples, int lanes,
                              int col_begin, int col_end,
                              std::int64_t* out) const override {
    inner_.accumulate_dense_batch(plan, multiples, lanes, col_begin, col_end,
                                  out);
  }
  [[nodiscard]] int min_batch_lanes() const noexcept override { return 1; }
  void exact_dense(const DenseLayerPlan& plan,
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

constexpr std::size_t kBatches[] = {1,  2,  3,  4,  5,  6,  7,  8,  9,
                                    15, 16, 17, 31, 32, 33, 64};
constexpr std::size_t kMaxBatch = 64;

/// ASM-4 engine of a registered app on untrained, projected weights.
std::unique_ptr<FixedNetwork> asm4_engine(AppId id) {
  const auto& app = man::apps::get_app(id);
  man::nn::Network net = app.build_network(/*seed=*/5);
  const AlphabetSet set = AlphabetSet::four();
  const man::nn::ProjectionPlan projection(app.quant(), set,
                                           net.num_weight_layers());
  projection.project_network(net);
  return std::make_unique<FixedNetwork>(
      net, app.quant(),
      LayerAlphabetPlan::uniform_asm(net.num_weight_layers(), set));
}

/// A 3-layer MLP whose schemes are set per layer (exact or ASM-2): an
/// exact stage ends the dense tail, so the tail starts after it.
std::unique_ptr<FixedNetwork> mixed_mlp(std::vector<bool> asm_layers) {
  man::util::Rng rng(31);
  man::nn::Network net;
  net.add<man::nn::Dense>(40, 24).init_xavier(rng);
  net.add<man::nn::ActivationLayer>(man::core::ActivationKind::kSigmoid);
  net.add<man::nn::Dense>(24, 12).init_xavier(rng);
  net.add<man::nn::ActivationLayer>(man::core::ActivationKind::kSigmoid);
  net.add<man::nn::Dense>(12, 5).init_xavier(rng);
  const auto spec = man::nn::QuantSpec::bits8();
  const man::nn::ProjectionPlan projection(spec, AlphabetSet::two(), 3);
  projection.project_network(net);
  std::vector<LayerScheme> schemes;
  for (bool is_asm : asm_layers) {
    schemes.push_back(is_asm ? LayerScheme{MultiplierKind::kAsm,
                                           AlphabetSet::two()}
                             : LayerScheme{});
  }
  return std::make_unique<FixedNetwork>(net, spec,
                                        LayerAlphabetPlan(std::move(schemes)));
}

std::vector<float> random_inputs(const FixedNetwork& engine,
                                 std::uint64_t seed) {
  man::util::Rng rng(seed);
  std::vector<float> inputs(kMaxBatch * engine.input_size());
  for (float& p : inputs) p = static_cast<float>(rng.next_double());
  return inputs;
}

void expect_stats_eq(const EngineStats& a, const EngineStats& b,
                     const std::string& where) {
  EXPECT_EQ(a.inferences, b.inferences) << where;
  ASSERT_EQ(a.layers.size(), b.layers.size()) << where;
  for (std::size_t i = 0; i < a.layers.size(); ++i) {
    EXPECT_EQ(a.layers[i].macs, b.layers[i].macs) << where << " layer " << i;
    EXPECT_EQ(a.layers[i].bank_activations, b.layers[i].bank_activations)
        << where << " layer " << i;
    EXPECT_EQ(a.layers[i].ops, b.layers[i].ops) << where << " layer " << i;
  }
}

/// Every backend × batch size, shipped crossover and forced batching:
/// outputs equal the sequential scalar infer_into, and EngineStats
/// equal the per-sample sum (so modeled energy cannot move).
void check_engine(const FixedNetwork& engine, std::uint64_t seed) {
  const std::vector<float> inputs = random_inputs(engine, seed);
  const std::size_t in = engine.input_size();
  const std::size_t out = engine.output_size();
  const auto& scalar =
      man::backend::backend_for(man::backend::BackendKind::kScalar);

  std::vector<std::int64_t> reference(kMaxBatch * out);
  EngineStats one = engine.make_stats();
  {
    auto scratch = engine.make_scratch();
    for (std::size_t i = 0; i < kMaxBatch; ++i) {
      EngineStats stats = engine.make_stats();
      engine.infer_into(std::span<const float>(inputs).subspan(i * in, in),
                        std::span<std::int64_t>(reference).subspan(i * out,
                                                                   out),
                        stats, scratch, scalar);
      if (i == 0) one = stats;
    }
  }

  for (const KernelBackend* backend : man::backend::all_backends()) {
    const ForcedBatchKernel forced(*backend);
    for (const KernelBackend* kernel :
         {backend, static_cast<const KernelBackend*>(&forced)}) {
      // One scratch across every batch size: tiles of changing width
      // must not leak state into each other.
      auto scratch = engine.make_scratch();
      for (const std::size_t batch : kBatches) {
        const std::string where =
            std::string(backend->name()) +
            (kernel == backend ? " shipped" : " forced") +
            " B=" + std::to_string(batch);
        std::vector<std::int64_t> raw(batch * out);
        EngineStats stats = engine.make_stats();
        engine.infer_batch_into(
            std::span<const float>(inputs).first(batch * in), raw, stats,
            scratch, *kernel);
        EXPECT_TRUE(std::equal(raw.begin(), raw.end(), reference.begin()))
            << where;
        EngineStats expected = engine.make_stats();
        for (std::size_t i = 0; i < batch; ++i) expected.merge(one);
        expect_stats_eq(stats, expected, where);
      }
    }
  }
}

TEST(BatchLanes, DigitMlp8MatchesSequentialScalar) {
  check_engine(*asm4_engine(AppId::kDigitMlp8), 11);
}

TEST(BatchLanes, FaceMlp12MultiPlaneMatchesSequentialScalar) {
  const auto engine = asm4_engine(AppId::kFaceMlp12);
  ASSERT_GT(engine->plans().front().planes, 1);
  check_engine(*engine, 12);
}

TEST(BatchLanes, CnnDenseTailMatchesSequentialScalar) {
  check_engine(*asm4_engine(AppId::kDigitCnn12), 13);
}

TEST(BatchLanes, MixedExactAsmNetworksMatchSequentialScalar) {
  check_engine(*mixed_mlp({true, false, true}), 14);    // tail: last
  check_engine(*mixed_mlp({false, true, true}), 15);    // tail: last two
  check_engine(*mixed_mlp({true, true, false}), 16);    // no tail
  check_engine(*mixed_mlp({false, false, false}), 17);  // no tail
}

TEST(BatchLanes, ArtifactLoadedEnginesMatchSequentialScalar) {
  const auto dir = std::filesystem::temp_directory_path() /
                   ("man_batch_lanes_" + std::to_string(::getpid()));
  std::filesystem::create_directories(dir);
  for (const AppId id :
       {AppId::kDigitMlp8, AppId::kFaceMlp12, AppId::kDigitCnn12}) {
    const auto compiled = asm4_engine(id);
    const std::string key =
        "batch_lanes|" + std::to_string(static_cast<int>(id));
    const std::string path = man::artifact::artifact_path(dir.string(), key);
    man::artifact::save_engine(*compiled, path, key);
    const auto loaded = man::artifact::load_engine(path, key);
    ASSERT_TRUE(loaded->plans().front().idx.borrowed());
    check_engine(*loaded, 20 + static_cast<std::uint64_t>(id));
  }
  std::filesystem::remove_all(dir);
}

TEST(BatchLanes, InputAndOutputSpansAreValidated) {
  const auto engine = mixed_mlp({true, true, true});
  auto scratch = engine->make_scratch();
  auto stats = engine->make_stats();
  const auto& kernel = engine->default_kernel();
  std::vector<float> inputs(3 * engine->input_size() + 1);
  std::vector<std::int64_t> raw(3 * engine->output_size());
  EXPECT_THROW(engine->infer_batch_into(inputs, raw, stats, scratch, kernel),
               std::invalid_argument);
  inputs.pop_back();
  raw.pop_back();
  EXPECT_THROW(engine->infer_batch_into(inputs, raw, stats, scratch, kernel),
               std::invalid_argument);
  raw.push_back(0);
  engine->infer_batch_into(inputs, raw, stats, scratch, kernel);
  EXPECT_EQ(stats.inferences, 3u);
}

/// A random ASM plan: every weight gets 0..max_steps packed quartet
/// steps (zero-step weights included), random lanes, shifts and signs.
DenseLayerPlan random_plan(std::mt19937_64& rng, int rows, int cols, int k,
                           int max_steps) {
  std::uniform_int_distribution<int> steps_of(0, max_steps);
  std::uniform_int_distribution<int> lane_of(0, k - 1);
  std::uniform_int_distribution<int> shift_of(0, 8);
  std::uniform_int_distribution<int> coin(0, 1);
  std::uniform_int_distribution<std::int64_t> bias_of(-5000, 5000);
  std::vector<AsmWeight> weights;
  std::vector<AsmStep> steps;
  for (int w = 0; w < rows * cols; ++w) {
    AsmWeight weight;
    weight.step_begin = static_cast<std::uint32_t>(steps.size());
    weight.step_count = static_cast<std::uint8_t>(steps_of(rng));
    weight.negative = coin(rng) == 1;
    for (int s = 0; s < weight.step_count; ++s) {
      steps.push_back(AsmStep{static_cast<std::uint8_t>(lane_of(rng)),
                              static_cast<std::uint8_t>(shift_of(rng))});
    }
    weights.push_back(weight);
  }
  std::vector<std::int64_t> biases(static_cast<std::size_t>(rows));
  for (auto& b : biases) b = bias_of(rng);
  return DenseLayerPlan::build_asm(rows, cols, k, std::move(weights),
                                   std::move(steps), std::move(biases));
}

// The kernel contract on its own: summed over column blocks, lane b of
// accumulate_dense_batch equals accumulate_dense on sample b's
// multiples — for every backend, every lane count 1..kMaxBatchLanes
// (masked vector tails included) and ragged block boundaries. The
// multiples span what a bank produces for 8-bit activations
// (15 · 255), so with shifts ≤ 8, ≤ 3 steps and ≤ 64 columns every row
// stays within the int32 lane bound (≤ 5000 + 64·3·3825·2^8).
TEST(BatchLanesKernel, MatchesPerSampleKernelOnRandomPlans) {
  std::mt19937_64 rng(2024);
  std::uniform_int_distribution<std::int32_t> multiple_of(-15 * 255,
                                                          15 * 255);
  const auto& scalar =
      man::backend::backend_for(man::backend::BackendKind::kScalar);
  struct Shape {
    int rows, cols, k, max_steps;
  };
  for (const Shape shape : {Shape{7, 37, 4, 2}, Shape{5, 64, 1, 3},
                            Shape{3, 9, 2, 1}, Shape{9, 50, 8, 3}}) {
    const DenseLayerPlan plan =
        random_plan(rng, shape.rows, shape.cols, shape.k, shape.max_steps);
    const auto slots = static_cast<std::size_t>(shape.cols) * shape.k;
    for (int lanes = 1; lanes <= man::backend::kMaxBatchLanes; ++lanes) {
      const auto n = static_cast<std::size_t>(lanes);
      // Per-sample multiples (zero slot last) and the expected rows.
      std::vector<std::vector<std::int32_t>> samples(n);
      std::vector<std::int64_t> expected(static_cast<std::size_t>(plan.rows) *
                                         n);
      std::vector<std::int64_t> row(static_cast<std::size_t>(plan.rows));
      for (std::size_t b = 0; b < n; ++b) {
        samples[b].resize(plan.padded_multiples());
        for (std::size_t s = 0; s < slots; ++s) {
          samples[b][s] = multiple_of(rng);
        }
        samples[b][plan.zero_slot] = 0;
        scalar.accumulate_dense(plan, samples[b].data(), row.data());
        for (std::size_t r = 0; r < row.size(); ++r) {
          expected[r * n + b] = row[r];
        }
      }
      // Ragged column blocks: widths cycle through 1..5 columns.
      std::vector<int> bounds{0};
      for (int width = 1; bounds.back() < plan.cols; width = width % 5 + 1) {
        bounds.push_back(std::min(plan.cols, bounds.back() + width));
      }

      for (const KernelBackend* backend : man::backend::all_backends()) {
        std::vector<std::int64_t> out(expected.size());
        for (int r = 0; r < plan.rows; ++r) {
          for (std::size_t b = 0; b < n; ++b) {
            out[static_cast<std::size_t>(r) * n + b] =
                plan.biases[static_cast<std::size_t>(r)];
          }
        }
        for (std::size_t i = 0; i + 1 < bounds.size(); ++i) {
          const int c0 = bounds[i];
          const int c1 = bounds[i + 1];
          std::vector<std::int32_t> block(
              static_cast<std::size_t>(c1 - c0) * plan.k * n);
          for (int c = c0; c < c1; ++c) {
            for (int l = 0; l < plan.k; ++l) {
              const auto slot = static_cast<std::size_t>(c) * plan.k + l;
              const auto local = static_cast<std::size_t>(c - c0) * plan.k + l;
              for (std::size_t b = 0; b < n; ++b) {
                block[local * n + b] = samples[b][slot];
              }
            }
          }
          backend->accumulate_dense_batch(plan, block.data(), lanes, c0, c1,
                                          out.data());
        }
        EXPECT_EQ(out, expected)
            << backend->name() << " lanes=" << lanes << " rows=" << plan.rows
            << " cols=" << plan.cols << " k=" << plan.k;
      }
    }
  }
}

}  // namespace
}  // namespace man::engine

// The fixed-point processing engine: bit-exactness of the ASM datapath
// against the conventional one on constrained weights, plan handling,
// activity statistics, the stats/scratch binding of infer_into, and
// the average-pooling rounding rule.
#include <gtest/gtest.h>

#include <cmath>

#include "man/engine/batch_runner.h"
#include "man/engine/fixed_network.h"
#include "man/nn/activation_layer.h"
#include "man/nn/conv2d.h"
#include "man/nn/constraint_projection.h"
#include "man/nn/dense.h"
#include "man/nn/pool.h"
#include "man/util/rng.h"

namespace man::engine {
namespace {

using man::core::AlphabetSet;
using man::core::MultiplierKind;
using man::data::Example;
using man::nn::ActivationLayer;
using man::nn::AvgPool2D;
using man::nn::Conv2D;
using man::nn::Dense;
using man::nn::Network;
using man::nn::ProjectionPlan;
using man::nn::QuantSpec;

Network make_mlp(std::uint64_t seed, int in = 16, int hidden = 8,
                 int out = 4) {
  man::util::Rng rng(seed);
  Network net;
  net.add<Dense>(in, hidden).init_xavier(rng);
  net.add<ActivationLayer>(man::core::ActivationKind::kSigmoid);
  net.add<Dense>(hidden, out).init_xavier(rng);
  return net;
}

Network make_cnn(std::uint64_t seed) {
  man::util::Rng rng(seed);
  Network net;
  net.add<Conv2D>(1, 3, 3, 8, 8).init_xavier(rng);
  net.add<ActivationLayer>(man::core::ActivationKind::kSigmoid);
  net.add<AvgPool2D>(3, 6, 6, 2);
  net.add<Dense>(27, 5).init_xavier(rng);
  return net;
}

std::vector<float> random_pixels(std::size_t n, man::util::Rng& rng) {
  std::vector<float> pixels(n);
  for (float& p : pixels) p = static_cast<float>(rng.next_double());
  return pixels;
}

// One image through infer_into, accumulating into `stats`.
std::vector<std::int64_t> raw_outputs(const FixedNetwork& engine,
                                      std::span<const float> pixels,
                                      EngineStats& stats) {
  std::vector<std::int64_t> out(engine.output_size());
  auto scratch = engine.make_scratch();
  engine.infer_into(pixels, out, stats, scratch);
  return out;
}

std::vector<std::int64_t> raw_outputs(const FixedNetwork& engine,
                                      std::span<const float> pixels) {
  auto stats = engine.make_stats();
  return raw_outputs(engine, pixels, stats);
}

// THE core engine property: with weights projected to an alphabet set,
// the ASM engine and the conventional engine are BIT-IDENTICAL — all
// approximation lives in the projection, none in the datapath.
class DatapathEquivalence
    : public ::testing::TestWithParam<std::tuple<int, int>> {};

TEST_P(DatapathEquivalence, AsmMatchesExactOnProjectedWeights) {
  const auto [bits, n_alphabets] = GetParam();
  const QuantSpec spec = QuantSpec::for_bits(bits);
  const AlphabetSet set =
      AlphabetSet::first_n(static_cast<std::size_t>(n_alphabets));

  Network net = make_mlp(100 + static_cast<std::uint64_t>(bits));
  const ProjectionPlan plan(spec, set, net.num_weight_layers());
  plan.project_network(net);

  FixedNetwork exact(net, spec,
                     LayerAlphabetPlan::conventional(net.num_weight_layers()));
  FixedNetwork asm_engine(
      net, spec,
      LayerAlphabetPlan::uniform_asm(net.num_weight_layers(), set));

  man::util::Rng rng(7);
  for (int trial = 0; trial < 20; ++trial) {
    const auto pixels = random_pixels(16, rng);
    EXPECT_EQ(raw_outputs(exact, pixels), raw_outputs(asm_engine, pixels))
        << "bits=" << bits << " n=" << n_alphabets;
  }
}

INSTANTIATE_TEST_SUITE_P(
    BitsTimesLadder, DatapathEquivalence,
    ::testing::Combine(::testing::Values(8, 12),
                       ::testing::Values(1, 2, 4, 8)));

TEST(FixedNetwork, FullSetNeedsNoProjection) {
  // The full alphabet set supports every weight: ASM engine ==
  // conventional engine bit-for-bit on *unprojected* nets.
  Network net = make_mlp(55);
  const QuantSpec spec = QuantSpec::bits8();
  FixedNetwork exact(net, spec, LayerAlphabetPlan::conventional(2));
  FixedNetwork full(net, spec,
                    LayerAlphabetPlan::uniform_asm(2, AlphabetSet::full()));
  man::util::Rng rng(8);
  for (int trial = 0; trial < 20; ++trial) {
    const auto pixels = random_pixels(16, rng);
    EXPECT_EQ(raw_outputs(exact, pixels), raw_outputs(full, pixels));
  }
}

TEST(FixedNetwork, CnnPathsAgreeToo) {
  Network net = make_cnn(77);
  const QuantSpec spec = QuantSpec::bits12();
  const ProjectionPlan plan(spec, AlphabetSet::two(), 2);
  plan.project_network(net);

  FixedNetwork exact(net, spec, LayerAlphabetPlan::conventional(2));
  FixedNetwork asm_engine(
      net, spec, LayerAlphabetPlan::uniform_asm(2, AlphabetSet::two()));
  man::util::Rng rng(9);
  for (int trial = 0; trial < 5; ++trial) {
    const auto pixels = random_pixels(64, rng);
    EXPECT_EQ(raw_outputs(exact, pixels), raw_outputs(asm_engine, pixels));
  }
}

TEST(FixedNetwork, MixedPlanAppliesPerLayer) {
  Network net = make_mlp(60);
  const QuantSpec spec = QuantSpec::bits8();
  // Project layer 0 with {1}, layer 1 with {1,3,5,7} (Fig 11 style).
  const ProjectionPlan plan(spec, {AlphabetSet::man(), AlphabetSet::four()});
  plan.project_network(net);

  const LayerAlphabetPlan mixed = LayerAlphabetPlan::mixed_tail(
      2, AlphabetSet::man(), AlphabetSet::four());
  EXPECT_EQ(mixed.scheme(0).multiplier, MultiplierKind::kMan);
  EXPECT_EQ(mixed.scheme(1).multiplier, MultiplierKind::kAsm);

  FixedNetwork exact(net, spec, LayerAlphabetPlan::conventional(2));
  FixedNetwork mixed_engine(net, spec, mixed);
  man::util::Rng rng(10);
  const auto pixels = random_pixels(16, rng);
  EXPECT_EQ(raw_outputs(exact, pixels), raw_outputs(mixed_engine, pixels));
}

TEST(FixedNetwork, PlanSizeMustMatchNetwork) {
  Network net = make_mlp(61);
  EXPECT_THROW(FixedNetwork(net, QuantSpec::bits8(),
                            LayerAlphabetPlan::conventional(3)),
               std::invalid_argument);
}

TEST(FixedNetwork, StatsCountMacsAndBankActivations) {
  Network net = make_mlp(62);  // 16->8->4
  const QuantSpec spec = QuantSpec::bits8();
  const ProjectionPlan plan(spec, AlphabetSet::two(), 2);
  plan.project_network(net);
  FixedNetwork engine(net, spec,
                      LayerAlphabetPlan::uniform_asm(2, AlphabetSet::two()),
                      /*lanes=*/4);
  man::util::Rng rng(11);
  auto stats = engine.make_stats();
  (void)raw_outputs(engine, random_pixels(16, rng), stats);

  EXPECT_EQ(stats.inferences, 1u);
  ASSERT_EQ(stats.layers.size(), 2u);
  EXPECT_EQ(stats.layers[0].macs, 16u * 8);
  EXPECT_EQ(stats.layers[1].macs, 8u * 4);
  EXPECT_EQ(stats.total_macs(), 16u * 8 + 8 * 4);
  // Layer 0: 8 neurons / 4 lanes = 2 groups × 16 inputs = 32 firings.
  EXPECT_EQ(stats.layers[0].bank_activations, 32u);
  // Layer 1: 4 neurons / 4 lanes = 1 group × 8 inputs.
  EXPECT_EQ(stats.layers[1].bank_activations, 8u);
  // {1,3} bank has 1 adder per firing.
  EXPECT_EQ(stats.layers[0].ops.precomputer_adds, 32u);
  EXPECT_GT(stats.layers[0].ops.selects, 0u);

  stats.reset();
  EXPECT_EQ(stats.inferences, 0u);
  EXPECT_EQ(stats.total_macs(), 0u);
}

TEST(FixedNetwork, ConventionalEngineHasNoBankActivity) {
  Network net = make_mlp(63);
  FixedNetwork engine(net, QuantSpec::bits8(),
                      LayerAlphabetPlan::conventional(2));
  man::util::Rng rng(12);
  auto stats = engine.make_stats();
  (void)raw_outputs(engine, random_pixels(16, rng), stats);
  EXPECT_EQ(stats.layers[0].bank_activations, 0u);
  EXPECT_EQ(stats.layers[0].ops.selects, 0u);
  EXPECT_GT(stats.layers[0].ops.adds, 0u);  // accumulator adds
}

// Conv stages must price select/shift/add activity exactly like the
// dense path: per-inference counts derived from the compiled schedule
// (each weight fires once per output position), so Fig 8/9 energy
// replays account CNN stages correctly. Recomputed here from the
// compiled ConvLayerPlan and checked against the recorded LayerStats.
TEST(FixedNetwork, ConvLayerStatsPriceTheCompiledSchedule) {
  Network net = make_cnn(81);
  const QuantSpec spec = QuantSpec::bits8();
  const AlphabetSet set = AlphabetSet::four();
  const ProjectionPlan plan(spec, set, net.num_weight_layers());
  plan.project_network(net);
  FixedNetwork engine(net, spec,
                      LayerAlphabetPlan::uniform_asm(2, set));

  man::util::Rng rng(19);
  auto stats = engine.make_stats();
  (void)raw_outputs(engine, random_pixels(engine.input_size(), rng), stats);

  const auto& conv_plan = engine.conv_plans().at(0);
  const std::uint64_t positions = conv_plan.positions();
  const std::uint64_t macs =
      static_cast<std::uint64_t>(conv_plan.oc) * positions * conv_plan.cols;
  man::core::OpCounts expected;
  for (const auto& w : conv_plan.asm_weights) {
    expected.selects += w.step_count * positions;
    expected.shifts += w.step_count * positions;
    if (w.step_count > 1) expected.adds += (w.step_count - 1) * positions;
    if (w.negative) expected.negates += positions;
  }
  expected.adds += macs;  // accumulator adds
  const std::uint64_t groups =
      (static_cast<std::uint64_t>(conv_plan.oc) + engine.lanes() - 1) /
      engine.lanes();
  const std::uint64_t bank_activations =
      groups * (macs / static_cast<std::uint64_t>(conv_plan.oc));
  expected.precomputer_adds =
      bank_activations * static_cast<std::uint64_t>(
                             man::core::PrecomputerBank(set).adder_count());

  const LayerStats& conv_stats = stats.layers.at(0);
  EXPECT_EQ(conv_stats.macs, macs);
  EXPECT_EQ(conv_stats.bank_activations, bank_activations);
  EXPECT_EQ(conv_stats.ops.selects, expected.selects);
  EXPECT_EQ(conv_stats.ops.shifts, expected.shifts);
  EXPECT_EQ(conv_stats.ops.adds, expected.adds);
  EXPECT_EQ(conv_stats.ops.negates, expected.negates);
  EXPECT_EQ(conv_stats.ops.precomputer_adds, expected.precomputer_adds);
  EXPECT_GT(conv_stats.ops.selects, 0u);
}

TEST(FixedNetwork, MacsPerInferenceStatic) {
  Network net = make_cnn(78);
  FixedNetwork engine(net, QuantSpec::bits12(),
                      LayerAlphabetPlan::conventional(2));
  const auto macs = engine.macs_per_inference();
  ASSERT_EQ(macs.size(), 2u);
  EXPECT_EQ(macs[0], 3ull * 6 * 6 * 1 * 3 * 3);  // conv
  EXPECT_EQ(macs[1], 27ull * 5);                 // dense
}

TEST(FixedNetwork, EvaluateComputesAccuracy) {
  Network net = make_mlp(64, 4, 6, 2);
  FixedNetwork engine(net, QuantSpec::bits8(),
                      LayerAlphabetPlan::conventional(2));
  // Build a tiny labelled set from the engine's own predictions: the
  // accuracy against itself must be 1.0.
  man::util::Rng rng(13);
  std::vector<Example> examples;
  for (int i = 0; i < 10; ++i) {
    Example ex;
    ex.pixels = random_pixels(4, rng);
    ex.label = argmax_raw(raw_outputs(engine, ex.pixels));
    examples.push_back(ex);
  }
  BatchRunner runner(engine);
  EXPECT_EQ(runner.evaluate(examples).accuracy, 1.0);
}

TEST(FixedNetwork, RejectsWrongInputSize) {
  Network net = make_mlp(65);
  FixedNetwork engine(net, QuantSpec::bits8(),
                      LayerAlphabetPlan::conventional(2));
  const std::vector<float> too_small(7, 0.5f);
  EXPECT_THROW((void)raw_outputs(engine, too_small), std::invalid_argument);
}

// infer_into binds caller-owned stats to the engine's layer layout:
// stats shaped by another engine (a different synapse count) are
// rejected on both forward paths.
TEST(FixedNetwork, RejectsStatsFromAnotherEngine) {
  Network mlp = make_mlp(66);  // 2 synapse layers
  Network single;
  single.add<Dense>(16, 4);  // 1 synapse layer
  const FixedNetwork engine(mlp, QuantSpec::bits8(),
                            LayerAlphabetPlan::conventional(2));
  const FixedNetwork other(single, QuantSpec::bits8(),
                           LayerAlphabetPlan::conventional(1));

  man::util::Rng rng(14);
  const auto pixels = random_pixels(16, rng);
  auto foreign = other.make_stats();
  EXPECT_THROW((void)raw_outputs(engine, pixels, foreign),
               std::invalid_argument);
  std::vector<std::int64_t> raw(engine.output_size());
  auto scratch = engine.make_scratch();
  EXPECT_THROW(engine.infer_batch_into(pixels, raw, foreign, scratch,
                                       engine.default_kernel()),
               std::invalid_argument);
  EXPECT_EQ(foreign.inferences, 0u);
}

// A default-constructed EngineStats (and scratch) is sized on first
// use with this engine's synapse layer names, in stage order.
TEST(FixedNetwork, SizesDefaultStatsWithLayerNames) {
  Network net = make_mlp(67);
  const FixedNetwork engine(
      net, QuantSpec::bits8(),
      LayerAlphabetPlan::uniform_asm(2, AlphabetSet::full()));
  man::util::Rng rng(15);
  const auto pixels = random_pixels(16, rng);

  EngineStats stats;
  FixedNetwork::InferScratch scratch;
  std::vector<std::int64_t> raw(engine.output_size());
  engine.infer_into(pixels, raw, stats, scratch);

  ASSERT_EQ(stats.layers.size(), 2u);
  EXPECT_EQ(stats.layers[0].name, net.layer(0).name());
  EXPECT_EQ(stats.layers[1].name, net.layer(2).name());
  EXPECT_EQ(stats.inferences, 1u);
  EXPECT_EQ(stats.layers[0].macs, 16u * 8);
  EXPECT_EQ(raw, raw_outputs(engine, pixels));
  const EngineStats shape = engine.make_stats();
  ASSERT_EQ(shape.layers.size(), 2u);
  EXPECT_EQ(shape.layers[0].name, stats.layers[0].name);
  EXPECT_EQ(shape.layers[1].name, stats.layers[1].name);
}

// Test-local image of the engine's average-pooling rule: each
// window's sum rounded to nearest, ties away from zero, by integer
// division (the engine shifts when window² is a power of two).
std::vector<std::int64_t> reference_pool(const std::vector<std::int64_t>& in,
                                         int c, int ih, int iw, int window) {
  const std::int64_t n = std::int64_t{window} * window;
  std::vector<std::int64_t> out;
  for (int ch = 0; ch < c; ++ch) {
    for (int oy = 0; oy < ih / window; ++oy) {
      for (int ox = 0; ox < iw / window; ++ox) {
        std::int64_t sum = 0;
        for (int wy = 0; wy < window; ++wy) {
          for (int wx = 0; wx < window; ++wx) {
            sum += in[static_cast<std::size_t>(
                (ch * ih + oy * window + wy) * iw + ox * window + wx)];
          }
        }
        out.push_back(sum >= 0 ? (sum + n / 2) / n : -((-sum + n / 2) / n));
      }
    }
  }
  return out;
}

// A pool-only engine fed `images` (per sample and batched) against
// reference_pool over the quantized pixels.
void expect_pool_matches_reference(int c, int ih, int iw, int window,
                                   const std::vector<std::vector<float>>& images) {
  Network net;
  net.add<AvgPool2D>(c, ih, iw, window);
  const QuantSpec spec = QuantSpec::bits8();
  FixedNetwork engine(net, spec, LayerAlphabetPlan::conventional(0));
  std::vector<float> batch;
  std::vector<std::int64_t> expected;
  for (const std::vector<float>& image : images) {
    std::vector<std::int64_t> raw;
    for (float p : image) raw.push_back(spec.activation_format.quantize(p));
    const auto want = reference_pool(raw, c, ih, iw, window);
    ASSERT_EQ(raw_outputs(engine, image), want) << "window " << window;
    batch.insert(batch.end(), image.begin(), image.end());
    expected.insert(expected.end(), want.begin(), want.end());
  }
  std::vector<std::int64_t> outputs(expected.size());
  auto stats = engine.make_stats();
  auto scratch = engine.make_scratch();
  engine.infer_batch_into(batch, outputs, stats, scratch,
                          engine.default_kernel());
  EXPECT_EQ(outputs, expected) << "window " << window << " batched";
}

// Pixels on the input grid (raw / 256) quantize to exactly `raw`.
float grid_pixel(int raw) { return static_cast<float>(raw) / 256.0f; }

// Signed random images in [-1, 1].
std::vector<std::vector<float>> signed_images(std::size_t count,
                                              std::size_t pixels,
                                              std::uint64_t seed) {
  man::util::Rng rng(seed);
  std::vector<std::vector<float>> images(count);
  for (auto& image : images) {
    for (std::size_t i = 0; i < pixels; ++i) {
      image.push_back(static_cast<float>(2.0 * rng.next_double() - 1.0));
    }
  }
  return images;
}

// Window 3: divisor 9 is not a power of two, so the engine takes its
// division path. The crafted image puts window sums -40..40 (every
// residue mod 9, both signs) in channel 0.
TEST(FixedNetworkPool, WindowThreeDividesByNine) {
  const int c = 2, ih = 9, iw = 27 * 3;
  auto images = signed_images(40, static_cast<std::size_t>(c * ih * iw), 91);
  std::vector<float> crafted(static_cast<std::size_t>(c * ih * iw), 0.0f);
  for (int ox = 0; ox < 27; ++ox) {
    for (int oy = 0; oy < 3; ++oy) {
      const int sum = (oy * 27 + ox) - 40;
      // Split the sum over two pixels of the window.
      crafted[static_cast<std::size_t>((oy * 3) * iw + ox * 3)] =
          grid_pixel(sum / 2);
      crafted[static_cast<std::size_t>((oy * 3 + 2) * iw + ox * 3 + 1)] =
          grid_pixel(sum - sum / 2);
    }
  }
  images.push_back(crafted);
  expect_pool_matches_reference(c, ih, iw, 3, images);
}

// Window 2 with negative sums: divisor 4 takes the shift path, and
// sums -12..12 (ties at ±2, ±6, ±10 round away from zero) must round
// exactly as the division formula does.
TEST(FixedNetworkPool, WindowTwoRoundsNegativeSumsAwayFromZero) {
  const int c = 3, ih = 2, iw = 2 * 25;
  std::vector<float> crafted(static_cast<std::size_t>(c * ih * iw), 0.0f);
  for (int ch = 0; ch < c; ++ch) {
    for (int ox = 0; ox < 25; ++ox) {
      const int sum = ox - 12;
      const auto base = static_cast<std::size_t>(ch * ih * iw + ox * 2);
      // Channel 0: one pixel; channel 1: spread; channel 2: mixed signs.
      if (ch == 0) {
        crafted[base] = grid_pixel(sum);
      } else if (ch == 1) {
        crafted[base] = grid_pixel(sum / 2);
        crafted[base + static_cast<std::size_t>(iw) + 1] =
            grid_pixel(sum - sum / 2);
      } else {
        crafted[base] = grid_pixel(sum - 200);
        crafted[base + 1] = grid_pixel(200);
      }
    }
  }
  auto images = signed_images(40, static_cast<std::size_t>(c * ih * iw), 92);
  for (auto& image : images) {
    for (float& p : image) p = -std::abs(p);  // every sum negative
  }
  images.push_back(crafted);
  expect_pool_matches_reference(c, ih, iw, 2, images);
}

TEST(LayerAlphabetPlan, LabelsAreInformative) {
  const auto plan = LayerAlphabetPlan::mixed_tail(3, AlphabetSet::two(),
                                                  AlphabetSet::four());
  EXPECT_EQ(plan.scheme(0).multiplier, MultiplierKind::kMan);
  EXPECT_EQ(plan.scheme(1).alphabets, AlphabetSet::two());
  EXPECT_EQ(plan.scheme(2).alphabets, AlphabetSet::four());
  EXPECT_NE(plan.label().find("MAN{1}"), std::string::npos);
  EXPECT_NE(plan.label().find("ASM4"), std::string::npos);
  EXPECT_THROW((void)plan.scheme(3), std::out_of_range);
  EXPECT_THROW((void)LayerAlphabetPlan::mixed_tail(0, AlphabetSet::two(),
                                                   AlphabetSet::four()),
               std::invalid_argument);
}

}  // namespace
}  // namespace man::engine

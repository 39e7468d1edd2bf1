// The batched runtime: bit-identity of the sharded path against the
// single-sample path under every alphabet scheme, exact stats
// reduction, determinism across worker counts, and the PrecomputerCache
// reuse API it is built on.
#include <gtest/gtest.h>

#include <vector>

#include "man/engine/batch_runner.h"
#include "man/engine/fixed_network.h"
#include "man/nn/activation_layer.h"
#include "man/nn/constraint_projection.h"
#include "man/nn/conv2d.h"
#include "man/nn/dense.h"
#include "man/nn/pool.h"
#include "man/util/rng.h"

namespace man::engine {
namespace {

using man::core::AlphabetSet;
using man::core::OpCounts;
using man::core::PrecomputerBank;
using man::core::PrecomputerCache;
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

std::vector<float> random_batch(std::size_t samples, std::size_t sample_size,
                                std::uint64_t seed) {
  man::util::Rng rng(seed);
  std::vector<float> batch(samples * sample_size);
  for (float& p : batch) p = static_cast<float>(rng.next_double());
  return batch;
}

std::vector<Example> random_examples(std::size_t samples,
                                     std::size_t sample_size, int classes,
                                     std::uint64_t seed) {
  man::util::Rng rng(seed);
  std::vector<Example> examples(samples);
  for (std::size_t i = 0; i < samples; ++i) {
    examples[i].pixels.resize(sample_size);
    for (float& p : examples[i].pixels) {
      p = static_cast<float>(rng.next_double());
    }
    examples[i].label = static_cast<int>(rng.next_below(
        static_cast<std::uint64_t>(classes)));
  }
  return examples;
}

// Sequential reference: each sample alone through infer_into with a
// fresh scratch (no cross-sample CSHM reuse), activity into `stats`.
std::vector<std::int64_t> sequential_raw(const FixedNetwork& engine,
                                         std::span<const float> batch,
                                         EngineStats& stats) {
  const std::size_t in = engine.input_size();
  const std::size_t out = engine.output_size();
  const std::size_t samples = batch.size() / in;
  std::vector<std::int64_t> raw(samples * out);
  for (std::size_t i = 0; i < samples; ++i) {
    auto scratch = engine.make_scratch();
    engine.infer_into(batch.subspan(i * in, in),
                      std::span<std::int64_t>(raw).subspan(i * out, out),
                      stats, scratch);
  }
  return raw;
}

std::vector<std::int64_t> sequential_raw(const FixedNetwork& engine,
                                         std::span<const float> batch) {
  auto stats = engine.make_stats();
  return sequential_raw(engine, batch, stats);
}

void expect_stats_eq(const EngineStats& a, const EngineStats& b) {
  EXPECT_EQ(a.inferences, b.inferences);
  ASSERT_EQ(a.layers.size(), b.layers.size());
  for (std::size_t i = 0; i < a.layers.size(); ++i) {
    EXPECT_EQ(a.layers[i].name, b.layers[i].name) << "layer " << i;
    EXPECT_EQ(a.layers[i].macs, b.layers[i].macs) << "layer " << i;
    EXPECT_EQ(a.layers[i].bank_activations, b.layers[i].bank_activations)
        << "layer " << i;
    EXPECT_EQ(a.layers[i].ops, b.layers[i].ops) << "layer " << i;
  }
}

// (a) The batched path is bit-identical to the single-sample path for
// every alphabet scheme (conventional + the full ASM ladder).
class BatchedSchemeIdentity : public ::testing::TestWithParam<int> {};

TEST_P(BatchedSchemeIdentity, BatchMatchesSequentialBitForBit) {
  const int n_alphabets = GetParam();  // 0 == conventional
  const QuantSpec spec = QuantSpec::bits8();

  Network net = make_mlp(100 + static_cast<std::uint64_t>(n_alphabets));
  LayerAlphabetPlan plan =
      LayerAlphabetPlan::conventional(net.num_weight_layers());
  if (n_alphabets > 0) {
    const AlphabetSet set =
        AlphabetSet::first_n(static_cast<std::size_t>(n_alphabets));
    const ProjectionPlan projection(spec, set, net.num_weight_layers());
    projection.project_network(net);
    plan = LayerAlphabetPlan::uniform_asm(net.num_weight_layers(), set);
  }
  FixedNetwork engine(net, spec, plan);

  const std::size_t samples = 33;  // not a multiple of the pool size
  const auto batch = random_batch(samples, engine.input_size(), 42);

  const auto expected = sequential_raw(engine, batch);

  BatchRunner runner(engine, BatchOptions{.workers = 4});
  std::vector<std::int64_t> actual(samples * engine.output_size());
  runner.run(batch, actual);

  EXPECT_EQ(actual, expected) << "n_alphabets=" << n_alphabets;
}

INSTANTIATE_TEST_SUITE_P(AlphabetLadder, BatchedSchemeIdentity,
                         ::testing::Values(0, 1, 2, 4, 8));

// Conv stages shard identically too.
TEST(BatchRunner, CnnBatchMatchesSequential) {
  const QuantSpec spec = QuantSpec::bits12();
  Network net = make_cnn(77);
  const ProjectionPlan projection(spec, AlphabetSet::two(), 2);
  projection.project_network(net);
  FixedNetwork engine(
      net, spec, LayerAlphabetPlan::uniform_asm(2, AlphabetSet::two()));

  const std::size_t samples = 9;
  const auto batch = random_batch(samples, engine.input_size(), 7);

  const auto expected = sequential_raw(engine, batch);

  BatchRunner runner(engine, BatchOptions{.workers = 3,
                                          .min_samples_per_worker = 1});
  std::vector<std::int64_t> actual(samples * engine.output_size());
  runner.run(batch, actual);
  EXPECT_EQ(actual, expected);
}

// (b) The merged EngineStats equal the sum of sequential runs.
TEST(BatchRunner, MergedStatsEqualSequentialSum) {
  const QuantSpec spec = QuantSpec::bits8();
  Network net = make_mlp(55);
  const ProjectionPlan projection(spec, AlphabetSet::four(), 2);
  projection.project_network(net);
  FixedNetwork engine(
      net, spec, LayerAlphabetPlan::uniform_asm(2, AlphabetSet::four()));

  const std::size_t samples = 25;
  const auto batch = random_batch(samples, engine.input_size(), 3);

  auto sequential = engine.make_stats();
  (void)sequential_raw(engine, batch, sequential);

  BatchRunner runner(engine, BatchOptions{.workers = 4,
                                          .min_samples_per_worker = 2});
  std::vector<std::int64_t> raw(samples * engine.output_size());
  runner.run(batch, raw);

  expect_stats_eq(runner.stats(), sequential);
  EXPECT_EQ(runner.stats().inferences, samples);
}

// (c) Worker count is invisible: 1, 2, and 8 workers produce identical
// outputs and identical merged stats.
TEST(BatchRunner, DeterministicAcrossWorkerCounts) {
  const QuantSpec spec = QuantSpec::bits8();
  Network net = make_mlp(66);
  const ProjectionPlan projection(spec, AlphabetSet::two(), 2);
  projection.project_network(net);
  FixedNetwork engine(
      net, spec, LayerAlphabetPlan::uniform_asm(2, AlphabetSet::two()));

  const std::size_t samples = 41;
  const auto batch = random_batch(samples, engine.input_size(), 11);

  std::vector<std::vector<std::int64_t>> outputs;
  std::vector<EngineStats> stats;
  for (int workers : {1, 2, 8}) {
    BatchRunner runner(engine, BatchOptions{.workers = workers,
                                            .min_samples_per_worker = 1});
    std::vector<std::int64_t> raw(samples * engine.output_size());
    runner.run(batch, raw);
    outputs.push_back(std::move(raw));
    stats.push_back(runner.stats());
  }
  for (std::size_t i = 1; i < outputs.size(); ++i) {
    EXPECT_EQ(outputs[i], outputs[0]) << "worker config " << i;
    expect_stats_eq(stats[i], stats[0]);
  }
}

// The Example-based evaluation path agrees with per-sample argmax
// over the sequential reference.
TEST(BatchRunner, EvaluateMatchesSequentialEvaluate) {
  const QuantSpec spec = QuantSpec::bits8();
  Network net = make_mlp(88);
  FixedNetwork engine(net, spec, LayerAlphabetPlan::conventional(2));

  const auto examples = random_examples(30, engine.input_size(), 4, 5);
  std::vector<int> expected;
  std::size_t correct = 0;
  for (const Example& ex : examples) {
    expected.push_back(argmax_raw(sequential_raw(engine, ex.pixels)));
    if (expected.back() == ex.label) ++correct;
  }

  BatchRunner runner(engine, BatchOptions{.workers = 4,
                                          .min_samples_per_worker = 1});
  const BatchAccuracy batched = runner.evaluate(examples);
  EXPECT_DOUBLE_EQ(batched.accuracy,
                   static_cast<double>(correct) / examples.size());
  EXPECT_EQ(batched.predictions, expected);
}

// A scratch made by one engine must not leak its bank multiples into
// another engine's forward pass: infer_into re-binds foreign caches.
TEST(FixedNetwork, WrongEngineScratchIsRebound) {
  const QuantSpec spec = QuantSpec::bits8();
  Network net_a = make_mlp(70);
  Network net_b = make_mlp(71);
  const ProjectionPlan proj_a(spec, AlphabetSet::two(), 2);
  proj_a.project_network(net_a);
  const ProjectionPlan proj_b(spec, AlphabetSet::four(), 2);
  proj_b.project_network(net_b);
  FixedNetwork engine_a(
      net_a, spec, LayerAlphabetPlan::uniform_asm(2, AlphabetSet::two()));
  FixedNetwork engine_b(
      net_b, spec, LayerAlphabetPlan::uniform_asm(2, AlphabetSet::four()));

  const auto batch = random_batch(1, engine_b.input_size(), 17);
  const auto expected = sequential_raw(engine_b, batch);

  FixedNetwork::InferScratch scratch = engine_a.make_scratch();
  EngineStats stats = engine_b.make_stats();
  std::vector<std::int64_t> actual(engine_b.output_size());
  engine_b.infer_into(batch, actual, stats, scratch);
  EXPECT_EQ(actual, expected);
}

// Stage-graph geometry is validated at construction: a mis-chained
// network throws instead of reading out of bounds at inference time.
TEST(FixedNetwork, RejectsMisChainedNetwork) {
  man::util::Rng rng(72);
  Network net;
  net.add<Dense>(16, 8).init_xavier(rng);
  net.add<Dense>(10, 4).init_xavier(rng);  // expects 10, gets 8
  EXPECT_THROW(FixedNetwork(net, QuantSpec::bits8(),
                            LayerAlphabetPlan::conventional(2)),
               std::invalid_argument);
}

TEST(BatchRunner, RejectsRaggedSpans) {
  Network net = make_mlp(90);
  FixedNetwork engine(net, QuantSpec::bits8(),
                      LayerAlphabetPlan::conventional(2));
  BatchRunner runner(engine);

  std::vector<float> ragged(engine.input_size() + 1);
  std::vector<std::int64_t> out(engine.output_size());
  EXPECT_THROW(runner.run(ragged, out), std::invalid_argument);

  std::vector<float> one(engine.input_size());
  std::vector<std::int64_t> short_out(engine.output_size() - 1);
  EXPECT_THROW(runner.run(one, short_out), std::invalid_argument);
}

// Regression: negative worker counts used to be silently cast to a
// huge unsigned shard count; now they are rejected up front.
TEST(BatchRunner, RejectsNegativeWorkerCount) {
  Network net = make_mlp(93);
  FixedNetwork engine(net, QuantSpec::bits8(),
                      LayerAlphabetPlan::conventional(2));
  EXPECT_THROW(BatchRunner(engine, BatchOptions{.workers = -1}),
               std::invalid_argument);
  EXPECT_THROW(BatchRunner(engine, BatchOptions{.workers = -8}),
               std::invalid_argument);
}

// The pool refactor's contract: a runner reused across many run()
// calls starts its worker threads exactly once.
TEST(BatchRunner, ReusedRunnerSpawnsNoThreadsPerRun) {
  Network net = make_mlp(94);
  FixedNetwork engine(net, QuantSpec::bits8(),
                      LayerAlphabetPlan::conventional(2));
  BatchRunner runner(engine, BatchOptions{.workers = 4,
                                          .min_samples_per_worker = 1});

  const auto batch = random_batch(16, engine.input_size(), 23);
  std::vector<std::int64_t> raw(16 * engine.output_size());
  for (int round = 0; round < 20; ++round) runner.run(batch, raw);

  ASSERT_NE(runner.pool(), nullptr);
  EXPECT_EQ(runner.pool()->size(), 4);
  EXPECT_EQ(runner.pool()->threads_started(), 4u);
}

// Several runners (the serving arrangement: many models, one process)
// share one persistent pool, and results stay bit-identical.
TEST(BatchRunner, RunnersShareOneProvidedPool) {
  Network net_a = make_mlp(95);
  Network net_b = make_mlp(96);
  FixedNetwork engine_a(net_a, QuantSpec::bits8(),
                        LayerAlphabetPlan::conventional(2));
  FixedNetwork engine_b(net_b, QuantSpec::bits8(),
                        LayerAlphabetPlan::conventional(2));

  const auto pool = std::make_shared<man::serve::ThreadPool>(3);
  const BatchOptions options{.workers = 8,  // capped at the pool size
                             .min_samples_per_worker = 1,
                             .pool = pool};
  BatchRunner runner_a(engine_a, options);
  BatchRunner runner_b(engine_b, options);
  EXPECT_EQ(runner_a.pool().get(), pool.get());
  EXPECT_EQ(runner_a.workers(), 3);

  const auto batch = random_batch(13, engine_a.input_size(), 29);
  std::vector<std::int64_t> raw_a(13 * engine_a.output_size());
  std::vector<std::int64_t> raw_b(13 * engine_b.output_size());
  for (int round = 0; round < 5; ++round) {
    runner_a.run(batch, raw_a);
    runner_b.run(batch, raw_b);
  }
  EXPECT_EQ(pool->threads_started(), 3u);

  // Shared-pool results match a sequential runner's.
  BatchRunner sequential(engine_a, BatchOptions{.workers = 1});
  std::vector<std::int64_t> expected(13 * engine_a.output_size());
  sequential.run(batch, expected);
  EXPECT_EQ(raw_a, expected);
}

TEST(BatchRunner, StatsAccumulateAcrossRunsAndReset) {
  Network net = make_mlp(91);
  FixedNetwork engine(net, QuantSpec::bits8(),
                      LayerAlphabetPlan::conventional(2));
  BatchRunner runner(engine, BatchOptions{.workers = 2,
                                          .min_samples_per_worker = 1});

  const auto batch = random_batch(6, engine.input_size(), 13);
  std::vector<std::int64_t> raw(6 * engine.output_size());
  runner.run(batch, raw);
  runner.run(batch, raw);
  EXPECT_EQ(runner.stats().inferences, 12u);

  runner.reset_stats();
  EXPECT_EQ(runner.stats().inferences, 0u);
  EXPECT_EQ(runner.stats().total_macs(), 0u);
  // Layer layout survives a reset.
  ASSERT_EQ(runner.stats().layers.size(), 2u);
}

// Shard scratch persists across run() calls: batches of changing size
// (so shard counts and tile widths change between runs) stay
// bit-identical to the sequential path, and each run's EngineStats
// equal that batch's sequential stats.
TEST(BatchRunner, PersistentShardScratchAcrossChangingBatchSizes) {
  const QuantSpec spec = QuantSpec::bits8();
  Network net = make_cnn(47);
  const ProjectionPlan projection(spec, AlphabetSet::four(), 2);
  projection.project_network(net);
  FixedNetwork engine(
      net, spec, LayerAlphabetPlan::uniform_asm(2, AlphabetSet::four()));
  const std::size_t in = engine.input_size();
  const std::size_t out = engine.output_size();

  BatchRunner runner(engine, BatchOptions{.workers = 3,
                                          .min_samples_per_worker = 4});
  std::uint64_t seed = 500;
  for (const std::size_t samples : {64u, 1u, 17u, 40u, 5u, 64u, 33u, 2u}) {
    const auto batch = random_batch(samples, in, ++seed);
    std::vector<std::int64_t> expected(samples * out);
    EngineStats expected_stats = engine.make_stats();
    auto scratch = engine.make_scratch();
    for (std::size_t i = 0; i < samples; ++i) {
      engine.infer_into(std::span<const float>(batch).subspan(i * in, in),
                        std::span<std::int64_t>(expected).subspan(i * out,
                                                                  out),
                        expected_stats, scratch);
    }

    runner.reset_stats();
    std::vector<std::int64_t> actual(samples * out);
    runner.run(batch, actual);
    EXPECT_EQ(actual, expected) << "samples=" << samples;
    expect_stats_eq(runner.stats(), expected_stats);
  }
}

// The per-shard CSHM memo: one structural evaluation per distinct
// input value, replayed from the cache afterwards.
TEST(PrecomputerCacheReuse, LookupMatchesBankAndCountsMissesOnce) {
  const PrecomputerBank bank(AlphabetSet::four());
  PrecomputerCache cache(bank);
  cache.configure_range(-255, 255);

  OpCounts cached_counts;
  OpCounts direct_counts;
  for (int round = 0; round < 3; ++round) {
    for (std::int64_t input : {-7, 0, 1, 5, 123}) {
      const std::int32_t* m = cache.lookup(input, cached_counts);
      const auto expected = bank.compute(input, direct_counts);
      for (std::size_t i = 0; i < expected.size(); ++i) {
        EXPECT_EQ(m[i], expected[i]) << "input " << input;
      }
    }
  }
  EXPECT_EQ(cache.entries(), 5u);
  EXPECT_EQ(cache.misses(), 5u);
  EXPECT_EQ(cache.hits(), 10u);
  // Adder activity charged once per distinct value, not per lookup.
  EXPECT_EQ(cached_counts.precomputer_adds,
            5u * static_cast<std::uint64_t>(bank.adder_count()));

  cache.reset();
  EXPECT_EQ(cache.entries(), 0u);
  EXPECT_EQ(cache.hits(), 0u);
  EXPECT_EQ(cache.misses(), 0u);
}

TEST(EngineStatsMerge, LayerwiseSumAndLayoutChecks) {
  Network net = make_mlp(92);
  FixedNetwork engine(net, QuantSpec::bits8(),
                      LayerAlphabetPlan::conventional(2));
  EngineStats a = engine.make_stats();
  EngineStats b = engine.make_stats();
  b.layers[0].macs = 7;
  b.inferences = 2;

  a.merge(b);
  a.merge(b);
  EXPECT_EQ(a.layers[0].macs, 14u);
  EXPECT_EQ(a.inferences, 4u);

  EngineStats empty;
  empty.merge(b);  // adopts the layout, zeroed, then adds
  EXPECT_EQ(empty.layers.size(), b.layers.size());
  EXPECT_EQ(empty.layers[0].macs, 7u);

  EngineStats mismatched;
  mismatched.layers.resize(3);
  EXPECT_THROW(mismatched.merge(b), std::invalid_argument);
}

}  // namespace
}  // namespace man::engine

// The serving front-end: flush and queue edge cases (size flush,
// max_wait flush, a near deadline deep in the queue, oversized
// request, shutdown drain) and the acceptance property — server
// responses bit-identical to sequential FixedNetwork::infer_into for
// interleaved mixed-model traffic from concurrent clients, at any
// worker count.
#include <gtest/gtest.h>

#include <algorithm>
#include <chrono>
#include <cstdint>
#include <future>
#include <thread>
#include <vector>

#include "man/engine/fixed_network.h"
#include "man/nn/activation_layer.h"
#include "man/nn/constraint_projection.h"
#include "man/nn/dense.h"
#include "man/serve/inference_server.h"
#include "man/serve/thread_pool.h"
#include "man/util/rng.h"

namespace man::serve {
namespace {

using namespace std::chrono_literals;
using man::core::AlphabetSet;
using man::engine::FixedNetwork;
using man::engine::LayerAlphabetPlan;
using man::nn::ActivationLayer;
using man::nn::Dense;
using man::nn::Network;
using man::nn::ProjectionPlan;
using man::nn::QuantSpec;

Network make_mlp(std::uint64_t seed, int in, int hidden, int out) {
  man::util::Rng rng(seed);
  Network net;
  net.add<Dense>(in, hidden).init_xavier(rng);
  net.add<ActivationLayer>(man::core::ActivationKind::kSigmoid);
  net.add<Dense>(hidden, out).init_xavier(rng);
  return net;
}

/// A small ASM engine ("digit-like" or "face-like" depending on the
/// geometry) with projected weights, as the serving path would get
/// from the EngineCache.
FixedNetwork make_engine(std::uint64_t seed, int in, int hidden, int out,
                         const AlphabetSet& set) {
  const QuantSpec spec = QuantSpec::bits8();
  Network net = make_mlp(seed, in, hidden, out);
  const ProjectionPlan projection(spec, set, net.num_weight_layers());
  projection.project_network(net);
  return FixedNetwork(net, spec,
                      LayerAlphabetPlan::uniform_asm(net.num_weight_layers(),
                                                     set));
}

std::vector<float> random_samples(std::size_t count, std::size_t sample_size,
                                  std::uint64_t seed) {
  man::util::Rng rng(seed);
  std::vector<float> pixels(count * sample_size);
  for (float& p : pixels) p = static_cast<float>(rng.next_double());
  return pixels;
}

/// Sequential ground truth: one sample at a time through infer_into
/// with fresh scratch, exactly the pre-serving code path.
std::vector<std::int64_t> sequential_raw(const FixedNetwork& engine,
                                         std::span<const float> pixels) {
  const std::size_t count = pixels.size() / engine.input_size();
  std::vector<std::int64_t> raw(count * engine.output_size());
  auto stats = engine.make_stats();
  auto scratch = engine.make_scratch();
  for (std::size_t i = 0; i < count; ++i) {
    engine.infer_into(
        pixels.subspan(i * engine.input_size(), engine.input_size()),
        std::span<std::int64_t>(raw).subspan(i * engine.output_size(),
                                             engine.output_size()),
        stats, scratch);
  }
  return raw;
}

/// Typed request for `pixels` (no deadline unless given).
std::future<InferenceResult> submit_pixels(
    InferenceServer& server, std::vector<float> pixels,
    InferenceRequest::Clock::time_point deadline =
        InferenceRequest::Clock::time_point::max()) {
  InferenceRequest request;
  request.payload = std::move(pixels);
  request.deadline = deadline;
  return server.submit(std::move(request));
}

/// A config whose only flush triggers are `max_batch` samples and the
/// `max_wait` timer (queue sized to hold a full batch).
ServeConfig batching_config(std::size_t max_batch,
                            std::chrono::microseconds max_wait) {
  ServeConfig config;
  config.max_batch = max_batch;
  config.max_wait = max_wait;
  config.queue_capacity = std::max(config.queue_capacity, max_batch);
  return config;
}

TEST(InferenceServer, RejectsInvalidOptions) {
  const FixedNetwork engine = make_engine(1, 8, 6, 3, AlphabetSet::man());
  EXPECT_THROW(InferenceServer(engine, batching_config(0, 500us)),
               std::invalid_argument);
  EXPECT_THROW(InferenceServer(engine, batching_config(64, -1us)),
               std::invalid_argument);
}

// A request larger than max_batch is never split or rejected: it is
// dispatched alone as one oversized batch.
TEST(InferenceServer, OversizedRequestDispatchedWhole) {
  const FixedNetwork engine = make_engine(4, 8, 6, 3, AlphabetSet::two());
  InferenceServer server(engine, batching_config(4, 1ms));

  const std::size_t count = 11;  // ~3x max_batch
  const auto pixels = random_samples(count, engine.input_size(), 31);
  const InferenceResult result = submit_pixels(server, pixels).get();

  EXPECT_EQ(result.status, Status::kOk);
  EXPECT_EQ(result.samples, count);
  EXPECT_EQ(result.raw, sequential_raw(engine, pixels));
  const auto metrics = server.metrics();
  EXPECT_EQ(metrics.batches, 1u);
  EXPECT_EQ(metrics.largest_batch, count);
}

// Filling the queue to max_batch flushes without waiting out
// max_wait: with a 1-hour wait, completion at all proves the size
// trigger.
TEST(InferenceServer, FullBatchFlushesBeforeMaxWait) {
  const FixedNetwork engine = make_engine(5, 8, 6, 3, AlphabetSet::man());
  const ServeConfig config = batching_config(8, 1h);
  InferenceServer server(engine, config);

  std::vector<std::future<InferenceResult>> pending;
  std::vector<std::vector<float>> inputs;
  for (std::size_t i = 0; i < config.max_batch; ++i) {
    inputs.push_back(random_samples(1, engine.input_size(), 100 + i));
    pending.push_back(submit_pixels(server, inputs.back()));
  }
  for (std::size_t i = 0; i < pending.size(); ++i) {
    ASSERT_EQ(pending[i].wait_for(30s), std::future_status::ready) << i;
    EXPECT_EQ(pending[i].get().raw, sequential_raw(engine, inputs[i])) << i;
  }
  const auto metrics = server.metrics();
  EXPECT_GE(metrics.size_flushes, 1u);
  EXPECT_EQ(metrics.samples, config.max_batch);
}

// A lone request in a huge-batch server is released by max_wait.
TEST(InferenceServer, MaxWaitFlushesPartialBatch) {
  const FixedNetwork engine = make_engine(6, 8, 6, 3, AlphabetSet::man());
  InferenceServer server(engine, batching_config(1u << 20, 2ms));

  const auto pixels = random_samples(1, engine.input_size(), 40);
  auto future = submit_pixels(server, pixels);
  ASSERT_EQ(future.wait_for(30s), std::future_status::ready);
  EXPECT_EQ(future.get().raw, sequential_raw(engine, pixels));
  EXPECT_GE(server.metrics().deadline_flushes, 1u);
}

// Regression: flush deadlines need not arrive in order. A newcomer
// whose hard deadline falls inside the co-batching window must flush
// the queue at once — even though the front request could wait an
// hour — and be served, not expired at its own deadline.
TEST(InferenceServer, EarlierDeadlineDeepInQueueTriggersFlush) {
  const FixedNetwork engine = make_engine(9, 8, 6, 3, AlphabetSet::man());
  InferenceServer server(engine, batching_config(1u << 20, 1h));

  const auto patient_pixels = random_samples(1, engine.input_size(), 60);
  const auto urgent_pixels = random_samples(1, engine.input_size(), 61);
  auto patient = submit_pixels(server, patient_pixels);
  auto urgent = submit_pixels(server, urgent_pixels,
                              InferenceRequest::Clock::now() + 5s);

  // The urgent deadline releases both: batches close oldest-first, so
  // the patient request ships in the same flush.
  ASSERT_EQ(urgent.wait_for(30s), std::future_status::ready);
  ASSERT_EQ(patient.wait_for(30s), std::future_status::ready);
  const InferenceResult urgent_result = urgent.get();
  EXPECT_EQ(urgent_result.status, Status::kOk);
  EXPECT_EQ(urgent_result.raw, sequential_raw(engine, urgent_pixels));
  EXPECT_EQ(patient.get().raw, sequential_raw(engine, patient_pixels));
  const auto metrics = server.metrics();
  EXPECT_GE(metrics.deadline_flushes, 1u);
  EXPECT_EQ(metrics.deadline_expired, 0u);
}

TEST(InferenceServer, ShutdownDrainsPendingAndRejectsNewWork) {
  const FixedNetwork engine = make_engine(7, 8, 6, 3, AlphabetSet::man());
  // Only the drain can release these.
  InferenceServer server(engine, batching_config(1u << 20, 1h));

  std::vector<std::future<InferenceResult>> pending;
  std::vector<std::vector<float>> inputs;
  for (int i = 0; i < 5; ++i) {
    inputs.push_back(random_samples(1, engine.input_size(), 200 + i));
    pending.push_back(
        submit_pixels(server, inputs[static_cast<std::size_t>(i)]));
  }
  server.shutdown();
  for (std::size_t i = 0; i < pending.size(); ++i) {
    ASSERT_EQ(pending[i].wait_for(0s), std::future_status::ready) << i;
    EXPECT_EQ(pending[i].get().raw, sequential_raw(engine, inputs[i])) << i;
  }
  const InferenceResult late =
      submit_pixels(server, random_samples(1, engine.input_size(), 9)).get();
  EXPECT_EQ(late.status, Status::kShutdown);
  EXPECT_EQ(server.metrics().rejected_shutdown, 1u);
  server.shutdown();  // idempotent
}

TEST(InferenceServer, PredictionsUseSharedArgmax) {
  const FixedNetwork engine = make_engine(8, 8, 6, 3, AlphabetSet::two());
  InferenceServer server(engine, ServeConfig{});
  const auto pixels = random_samples(6, engine.input_size(), 50);
  const InferenceResult result = submit_pixels(server, pixels).get();
  ASSERT_EQ(result.predictions.size(), 6u);
  for (std::size_t s = 0; s < result.samples; ++s) {
    EXPECT_EQ(result.predictions[s],
              man::engine::argmax_raw(
                  std::span<const std::int64_t>(result.raw)
                      .subspan(s * result.output_size, result.output_size)));
  }
  // Served activity is visible through the stats snapshot.
  EXPECT_EQ(server.stats().inferences, 6u);
}

// A result is delivered only once its batch shows in stats() and
// metrics(): a caller holding the result finds it counted.
TEST(InferenceServer, ResultIsCountedBeforeDelivery) {
  const FixedNetwork engine = make_engine(12, 8, 6, 3, AlphabetSet::man());
  InferenceServer server(engine, batching_config(1, 500us));
  for (std::uint64_t i = 1; i <= 1000; ++i) {
    const auto pixels = random_samples(1, engine.input_size(), 300 + i);
    ASSERT_TRUE(submit_pixels(server, pixels).get().ok()) << i;
    ASSERT_EQ(server.stats().inferences, i);
    ASSERT_EQ(server.metrics().tier_samples.at(0), i);
  }
}

// Acceptance: two models ("digit" 16->4 and "face" 25->2) served from
// one process on one shared pool, hammered by concurrent clients with
// interleaved single-sample and batch requests — every response must
// be bit-identical to the sequential engine path, for any worker
// count.
class MixedTrafficBitIdentity : public ::testing::TestWithParam<int> {};

TEST_P(MixedTrafficBitIdentity, ServerMatchesSequentialEngine) {
  const int workers = GetParam();
  const FixedNetwork digit = make_engine(10, 16, 8, 4, AlphabetSet::four());
  const FixedNetwork face = make_engine(11, 25, 6, 2, AlphabetSet::man());

  const auto pool = std::make_shared<ThreadPool>(workers);
  ServeConfig config = batching_config(16, 200us);
  config.workers = workers;
  config.pool = pool;
  config.min_samples_per_worker = 1;
  InferenceServer digit_server(digit, config);
  InferenceServer face_server(face, config);

  struct Exchange {
    const FixedNetwork* engine;
    std::vector<float> pixels;
    InferenceResult result;
  };
  constexpr int kClients = 4;
  constexpr int kRequestsPerClient = 48;
  std::vector<std::vector<Exchange>> exchanges(kClients);

  std::vector<std::thread> clients;
  clients.reserve(kClients);
  for (int c = 0; c < kClients; ++c) {
    clients.emplace_back([&, c] {
      man::util::Rng rng(1000 + static_cast<std::uint64_t>(c));
      auto& log = exchanges[static_cast<std::size_t>(c)];
      log.reserve(kRequestsPerClient);
      for (int r = 0; r < kRequestsPerClient; ++r) {
        const bool to_digit = (r + c) % 2 == 0;
        const FixedNetwork& engine = to_digit ? digit : face;
        InferenceServer& server = to_digit ? digit_server : face_server;
        const std::size_t count = 1 + rng.next_below(3);  // 1..3 samples
        std::vector<float> pixels(count * engine.input_size());
        for (float& p : pixels) p = static_cast<float>(rng.next_double());
        auto future = submit_pixels(server, pixels);
        log.push_back(Exchange{&engine, std::move(pixels), future.get()});
      }
    });
  }
  for (auto& t : clients) t.join();

  // Verify on the main thread against the sequential reference.
  for (int c = 0; c < kClients; ++c) {
    for (std::size_t r = 0; r < exchanges[static_cast<std::size_t>(c)].size();
         ++r) {
      const Exchange& x = exchanges[static_cast<std::size_t>(c)][r];
      EXPECT_EQ(x.result.raw, sequential_raw(*x.engine, x.pixels))
          << "client " << c << " request " << r << " workers " << workers;
    }
  }

  // The whole run used only the shared pool's fixed threads.
  EXPECT_EQ(pool->threads_started(), static_cast<std::uint64_t>(workers));
  const auto digit_metrics = digit_server.metrics();
  const auto face_metrics = face_server.metrics();
  EXPECT_EQ(digit_metrics.requests + face_metrics.requests,
            static_cast<std::uint64_t>(kClients * kRequestsPerClient));
}

INSTANTIATE_TEST_SUITE_P(WorkerCounts, MixedTrafficBitIdentity,
                         ::testing::Values(1, 2, 4));

}  // namespace
}  // namespace man::serve

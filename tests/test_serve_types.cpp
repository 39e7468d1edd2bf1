// The typed serving API: ServeConfig validation, the Status
// vocabulary and its HTTP mapping, and every non-kOk path through the
// typed InferenceServer submit (kBadRequest / kRejectedOverload /
// kDeadlineExceeded / kShutdown) — none of which throws — and the
// near-deadline flush rule.
#include <gtest/gtest.h>

#include <chrono>
#include <future>
#include <stdexcept>
#include <vector>

#include "man/core/alphabet_set.h"
#include "man/engine/fixed_network.h"
#include "man/nn/activation_layer.h"
#include "man/nn/constraint_projection.h"
#include "man/nn/dense.h"
#include "man/serve/inference_server.h"
#include "man/serve/serve_types.h"
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

FixedNetwork make_engine(std::uint64_t seed, int in, int hidden, int out) {
  man::util::Rng rng(seed);
  Network net;
  net.add<Dense>(in, hidden).init_xavier(rng);
  net.add<ActivationLayer>(man::core::ActivationKind::kSigmoid);
  net.add<Dense>(hidden, out).init_xavier(rng);
  const QuantSpec spec = QuantSpec::bits8();
  const AlphabetSet set = AlphabetSet::man();
  const ProjectionPlan projection(spec, set, net.num_weight_layers());
  projection.project_network(net);
  return FixedNetwork(
      net, spec, LayerAlphabetPlan::uniform_asm(net.num_weight_layers(), set));
}

std::vector<float> random_samples(std::size_t count, std::size_t sample_size,
                                  std::uint64_t seed) {
  man::util::Rng rng(seed);
  std::vector<float> pixels(count * sample_size);
  for (float& p : pixels) p = static_cast<float>(rng.next_double());
  return pixels;
}

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

TEST(ServeTypes, StatusNamesAndHttpMapping) {
  EXPECT_STREQ(status_name(Status::kOk), "ok");
  EXPECT_STREQ(status_name(Status::kDeadlineExceeded), "deadline_exceeded");
  EXPECT_STREQ(status_name(Status::kRejectedOverload), "rejected_overload");
  EXPECT_STREQ(status_name(Status::kBadRequest), "bad_request");
  EXPECT_STREQ(status_name(Status::kShutdown), "shutdown");

  EXPECT_EQ(http_status_for(Status::kOk), 200);
  EXPECT_EQ(http_status_for(Status::kDeadlineExceeded), 504);
  EXPECT_EQ(http_status_for(Status::kRejectedOverload), 429);
  EXPECT_EQ(http_status_for(Status::kBadRequest), 400);
  EXPECT_EQ(http_status_for(Status::kShutdown), 503);
}

TEST(ServeConfig, ValidationRejectsNonsense) {
  const auto throws = [](auto&& mutate) {
    ServeConfig config;
    mutate(config);
    EXPECT_THROW(config.validate(), std::invalid_argument);
  };
  throws([](ServeConfig& c) { c.max_batch = 0; });
  throws([](ServeConfig& c) { c.max_wait = -1us; });
  throws([](ServeConfig& c) { c.workers = -1; });
  throws([](ServeConfig& c) { c.min_samples_per_worker = 0; });
  throws([](ServeConfig& c) { c.queue_capacity = 0; });
  throws([](ServeConfig& c) { c.queue_delay_slo = 0us; });
  throws([](ServeConfig& c) {  // queue smaller than one full batch
    c.max_batch = 128;
    c.queue_capacity = 64;
  });
  EXPECT_NO_THROW(ServeConfig{}.validate());
}

TEST(ServeConfig, ConstructorValidates) {
  const FixedNetwork engine = make_engine(1, 8, 6, 3);
  ServeConfig config;
  config.queue_capacity = 0;
  EXPECT_THROW(InferenceServer(engine, config), std::invalid_argument);
}

TEST(TypedSubmit, ServesWithFullResultMetadata) {
  const FixedNetwork engine = make_engine(2, 8, 6, 3);
  ServeConfig config;
  config.max_wait = 1ms;
  InferenceServer server(engine, config);

  InferenceRequest request;
  request.payload = random_samples(2, engine.input_size(), 7);
  const auto expected = sequential_raw(engine, request.payload);
  const InferenceResult result = server.submit(std::move(request)).get();

  EXPECT_EQ(result.status, Status::kOk);
  EXPECT_TRUE(result.ok());
  EXPECT_EQ(result.samples, 2u);
  EXPECT_EQ(result.output_size, engine.output_size());
  EXPECT_EQ(result.raw, expected);
  EXPECT_EQ(result.predictions.size(), 2u);
  EXPECT_FALSE(result.backend.empty());
  EXPECT_GT(result.compute_ns, 0u);
}

// Typed path: malformed payloads resolve kBadRequest — no throw.
TEST(TypedSubmit, BadPayloadResolvesBadRequest) {
  const FixedNetwork engine = make_engine(3, 8, 6, 3);
  InferenceServer server(engine, ServeConfig{});

  InferenceRequest empty;
  const InferenceResult empty_result = server.submit(std::move(empty)).get();
  EXPECT_EQ(empty_result.status, Status::kBadRequest);
  EXPECT_FALSE(empty_result.ok());
  EXPECT_FALSE(empty_result.message.empty());

  InferenceRequest ragged;
  ragged.payload.assign(engine.input_size() + 1, 0.5f);
  EXPECT_EQ(server.submit(std::move(ragged)).get().status,
            Status::kBadRequest);
  EXPECT_EQ(server.metrics().rejected_bad_request, 2u);
}

// The bounded queue: a request that cannot ever fit (more samples
// than queue_capacity) is shed immediately with a Retry-After hint.
TEST(TypedSubmit, OverloadRejectionIsImmediateWithRetryAfter) {
  const FixedNetwork engine = make_engine(4, 8, 6, 3);
  ServeConfig config;
  config.max_batch = 2;
  config.queue_capacity = 2;
  config.max_wait = 1ms;
  InferenceServer server(engine, config);

  InferenceRequest request;
  request.payload = random_samples(8, engine.input_size(), 9);
  const InferenceResult result = server.submit(std::move(request)).get();
  EXPECT_EQ(result.status, Status::kRejectedOverload);
  EXPECT_GE(result.retry_after, 1ms);
  EXPECT_EQ(server.metrics().rejected_overload, 1u);
}

// An expired hard deadline is a real drop: the request never reaches
// compute.
TEST(TypedSubmit, ExpiredHardDeadlineResolvesDeadlineExceeded) {
  const FixedNetwork engine = make_engine(5, 8, 6, 3);
  ServeConfig config;
  config.max_wait = 10s;  // only the deadline can flush this quickly
  InferenceServer server(engine, config);

  InferenceRequest request;
  request.payload = random_samples(1, engine.input_size(), 10);
  request.deadline = InferenceRequest::Clock::now() - 1s;
  auto future = server.submit(std::move(request));
  ASSERT_EQ(future.wait_for(5s), std::future_status::ready);
  const InferenceResult result = future.get();
  EXPECT_EQ(result.status, Status::kDeadlineExceeded);
  EXPECT_EQ(result.raw.size(), 0u);
  EXPECT_EQ(server.metrics().deadline_expired, 1u);
}

// A deadline that falls inside the co-batching window flushes the
// queue at once, so an idle server serves the request rather than
// waking at the deadline and expiring it.
TEST(TypedSubmit, DeadlineInsideMaxWaitFlushesAtOnce) {
  const FixedNetwork engine = make_engine(6, 8, 6, 3);
  ServeConfig config;
  config.max_wait = 10s;
  InferenceServer server(engine, config);

  InferenceRequest request;
  request.payload = random_samples(1, engine.input_size(), 11);
  const auto expected = sequential_raw(engine, request.payload);
  request.deadline = InferenceRequest::Clock::now() + 2s;
  auto future = server.submit(std::move(request));
  ASSERT_EQ(future.wait_for(30s), std::future_status::ready);
  const InferenceResult result = future.get();
  EXPECT_EQ(result.status, Status::kOk) << result.message;
  EXPECT_EQ(result.raw, expected);
  EXPECT_EQ(server.metrics().deadline_expired, 0u);
  EXPECT_EQ(server.metrics().deadline_flushes, 1u);
}

TEST(TypedSubmit, ShutdownResolvesShutdownStatus) {
  const FixedNetwork engine = make_engine(7, 8, 6, 3);
  InferenceServer server(engine, ServeConfig{});
  server.shutdown();

  InferenceRequest request;
  request.payload = random_samples(1, engine.input_size(), 12);
  EXPECT_EQ(server.submit(std::move(request)).get().status,
            Status::kShutdown);
  EXPECT_EQ(server.metrics().rejected_shutdown, 1u);
}

// submit_async: rejections call back inline, successes from the
// dispatcher; both exactly once.
TEST(TypedSubmit, AsyncCallbackPaths) {
  const FixedNetwork engine = make_engine(8, 8, 6, 3);
  ServeConfig config;
  config.max_wait = 1ms;
  InferenceServer server(engine, config);

  std::promise<InferenceResult> bad_promise;
  server.submit_async(InferenceRequest{}, [&](InferenceResult&& result) {
    bad_promise.set_value(std::move(result));
  });
  EXPECT_EQ(bad_promise.get_future().get().status, Status::kBadRequest);

  InferenceRequest request;
  request.payload = random_samples(3, engine.input_size(), 14);
  const auto expected = sequential_raw(engine, request.payload);
  std::promise<InferenceResult> ok_promise;
  server.submit_async(std::move(request), [&](InferenceResult&& result) {
    ok_promise.set_value(std::move(result));
  });
  auto future = ok_promise.get_future();
  ASSERT_EQ(future.wait_for(30s), std::future_status::ready);
  const InferenceResult result = future.get();
  EXPECT_EQ(result.status, Status::kOk);
  EXPECT_EQ(result.raw, expected);
}

// Priorities are accepted and do not perturb results; the queue-delay
// estimate calibrates after traffic and reads zero when idle.
TEST(TypedSubmit, PriorityAcceptedAndDelayEstimateIdleZero) {
  const FixedNetwork engine = make_engine(9, 8, 6, 3);
  ServeConfig config;
  config.max_wait = 1ms;
  InferenceServer server(engine, config);
  EXPECT_EQ(server.estimated_queue_delay(), std::chrono::nanoseconds::zero());

  for (int priority : {0, 5, -3, 1}) {
    InferenceRequest request;
    request.payload =
        random_samples(1, engine.input_size(),
                       static_cast<std::uint64_t>(100 + priority));
    const auto expected = sequential_raw(engine, request.payload);
    request.priority = priority;
    const InferenceResult result = server.submit(std::move(request)).get();
    EXPECT_EQ(result.status, Status::kOk) << priority;
    EXPECT_EQ(result.raw, expected) << priority;
  }
  // Idle again: nothing queued, so the estimate must be zero.
  EXPECT_EQ(server.estimated_queue_delay(), std::chrono::nanoseconds::zero());
}

}  // namespace
}  // namespace man::serve

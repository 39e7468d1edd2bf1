// The accuracy/energy QoS ladder: pick_tier's deterministic
// delay-to-tier mapping (boundaries, min-tier pin, degenerate SLO),
// ladder-spec parsing and validation, the tiered InferenceServer
// constructor cross-checks, per-tier bit-identity against each rung's
// own sequential engine across every kernel backend, and the
// EngineStats backend/tier label merge policy (an idle runner carries
// no vote).
#include <gtest/gtest.h>

#include <chrono>
#include <cstdint>
#include <cstdlib>
#include <memory>
#include <utility>
#include <vector>

#include "man/backend/kernel_backend.h"
#include "man/engine/engine_stats.h"
#include "man/engine/fixed_network.h"
#include "man/nn/activation_layer.h"
#include "man/nn/constraint_projection.h"
#include "man/nn/dense.h"
#include "man/serve/inference_server.h"
#include "man/util/rng.h"

namespace man::serve {
namespace {

using namespace std::chrono_literals;
using man::core::AlphabetSet;
using man::engine::EngineStats;
using man::engine::FixedNetwork;
using man::engine::LayerAlphabetPlan;
using man::nn::ActivationLayer;
using man::nn::Dense;
using man::nn::Network;
using man::nn::ProjectionPlan;
using man::nn::QuantSpec;

/// Serves `pixels` as one typed request (no deadline) and waits.
InferenceResult serve(InferenceServer& server, std::vector<float> pixels) {
  InferenceRequest request;
  request.payload = std::move(pixels);
  return server.submit(std::move(request)).get();
}

Network make_mlp(std::uint64_t seed, int in, int hidden, int out) {
  man::util::Rng rng(seed);
  Network net;
  net.add<Dense>(in, hidden).init_xavier(rng);
  net.add<ActivationLayer>(man::core::ActivationKind::kSigmoid);
  net.add<Dense>(hidden, out).init_xavier(rng);
  return net;
}

/// One ASM rung: projected weights, uniform ASM plan over `set`.
std::shared_ptr<const FixedNetwork> make_asm_engine(std::uint64_t seed, int in,
                                                    int hidden, int out,
                                                    const AlphabetSet& set) {
  const QuantSpec spec = QuantSpec::bits8();
  Network net = make_mlp(seed, in, hidden, out);
  const ProjectionPlan projection(spec, set, net.num_weight_layers());
  projection.project_network(net);
  return std::make_shared<FixedNetwork>(
      net, spec,
      LayerAlphabetPlan::uniform_asm(net.num_weight_layers(), set));
}

/// The asm4,asm2,exact ladder every server test dispatches over: two
/// projected ASM rungs plus a conventional exact-multiplier rung.
TieredEngine make_ladder(std::uint64_t seed, int in = 8, int hidden = 6,
                         int out = 3) {
  const QuantSpec spec = QuantSpec::bits8();
  TieredEngine tiered;
  tiered.tiers.push_back(
      {QosTier{"asm4", 4},
       make_asm_engine(seed, in, hidden, out, AlphabetSet::four())});
  tiered.tiers.push_back(
      {QosTier{"asm2", 2},
       make_asm_engine(seed, in, hidden, out, AlphabetSet::two())});
  Network net = make_mlp(seed, in, hidden, out);
  tiered.tiers.push_back(
      {QosTier{"exact", 0},
       std::make_shared<FixedNetwork>(
           net, spec,
           LayerAlphabetPlan::conventional(net.num_weight_layers()))});
  return tiered;
}

std::vector<float> random_samples(std::size_t count, std::size_t sample_size,
                                  std::uint64_t seed) {
  man::util::Rng rng(seed);
  std::vector<float> pixels(count * sample_size);
  for (float& p : pixels) p = static_cast<float>(rng.next_double());
  return pixels;
}

/// Sequential ground truth for one rung: one sample at a time through
/// that rung's own infer_into, exactly the pre-serving code path.
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

// ---------------------------------------------------------------- pick_tier

// Tier t serves while the estimated delay sits in
// [t*slo/T, (t+1)*slo/T); at or past the SLO the last tier serves.
TEST(PickTier, MapsDelayBandsToTiersDeterministically) {
  const auto slo = 30'000us;  // slice = 10 ms per tier on a 3-rung ladder
  EXPECT_EQ(InferenceServer::pick_tier(0ns, slo, 3, 0), 0u);
  EXPECT_EQ(InferenceServer::pick_tier(5ms, slo, 3, 0), 0u);
  EXPECT_EQ(InferenceServer::pick_tier(10ms - 1ns, slo, 3, 0), 0u);
  EXPECT_EQ(InferenceServer::pick_tier(10ms, slo, 3, 0), 1u);
  EXPECT_EQ(InferenceServer::pick_tier(20ms - 1ns, slo, 3, 0), 1u);
  EXPECT_EQ(InferenceServer::pick_tier(20ms, slo, 3, 0), 2u);
  EXPECT_EQ(InferenceServer::pick_tier(30ms, slo, 3, 0), 2u);
  // Past the SLO the ladder is exhausted: still the last tier —
  // shedding beyond it is the front-end's job, not the picker's.
  EXPECT_EQ(InferenceServer::pick_tier(10h, slo, 3, 0), 2u);
}

TEST(PickTier, MinTierPinsTheFloorNotTheCeiling) {
  const auto slo = 30'000us;
  EXPECT_EQ(InferenceServer::pick_tier(0ns, slo, 3, 1), 1u);
  EXPECT_EQ(InferenceServer::pick_tier(15ms, slo, 3, 1), 1u);
  EXPECT_EQ(InferenceServer::pick_tier(25ms, slo, 3, 1), 2u);  // pressure wins
  EXPECT_EQ(InferenceServer::pick_tier(0ns, slo, 3, 2), 2u);
  // An out-of-range pin clamps to the last tier instead of indexing
  // past the ladder.
  EXPECT_EQ(InferenceServer::pick_tier(0ns, slo, 3, 99), 2u);
}

TEST(PickTier, DegenerateShapesNeverMisindex) {
  EXPECT_EQ(InferenceServer::pick_tier(5ms, 0us, 3, 0), 2u);   // zero SLO
  EXPECT_EQ(InferenceServer::pick_tier(5ms, -1us, 3, 0), 2u);  // negative SLO
  EXPECT_EQ(InferenceServer::pick_tier(5ms, 30'000us, 1, 0), 0u);  // untiered
  EXPECT_EQ(InferenceServer::pick_tier(5ms, 30'000us, 0, 0), 0u);  // empty
  EXPECT_EQ(InferenceServer::pick_tier(-5ms, 30'000us, 3, 0), 0u);  // clock
}

// ------------------------------------------------------------ ladder parsing

TEST(ParseQosTiers, ParsesSchemesAndMinPin) {
  std::size_t min_tier = 99;
  const auto ladder = parse_qos_tiers("asm4,asm2,exact", &min_tier);
  ASSERT_EQ(ladder.size(), 3u);
  EXPECT_EQ(ladder[0].name, "asm4");
  EXPECT_EQ(ladder[0].alphabets, 4u);
  EXPECT_EQ(ladder[1].name, "asm2");
  EXPECT_EQ(ladder[1].alphabets, 2u);
  EXPECT_EQ(ladder[2].name, "exact");
  EXPECT_EQ(ladder[2].alphabets, 0u);
  EXPECT_EQ(min_tier, 0u);  // absent suffix resets to 0

  const auto pinned = parse_qos_tiers("asm8,asm1;min=1", &min_tier);
  ASSERT_EQ(pinned.size(), 2u);
  EXPECT_EQ(pinned[0].alphabets, 8u);
  EXPECT_EQ(pinned[1].alphabets, 1u);
  EXPECT_EQ(min_tier, 1u);
}

TEST(ParseQosTiers, RejectsMalformedSpecs) {
  EXPECT_THROW((void)parse_qos_tiers(""), std::invalid_argument);
  EXPECT_THROW((void)parse_qos_tiers("asm0"), std::invalid_argument);
  EXPECT_THROW((void)parse_qos_tiers("asm9"), std::invalid_argument);
  EXPECT_THROW((void)parse_qos_tiers("float64"), std::invalid_argument);
  EXPECT_THROW((void)parse_qos_tiers("asm4,asm4"), std::invalid_argument);
  EXPECT_THROW((void)parse_qos_tiers("asm4,,asm2"), std::invalid_argument);
  EXPECT_THROW((void)parse_qos_tiers("asm4,asm2;min=2"),
               std::invalid_argument);
  EXPECT_THROW((void)parse_qos_tiers("asm4;min=x"), std::invalid_argument);
}

TEST(ServeConfigQos, AppliesAndValidatesEnvOverride) {
  ASSERT_EQ(setenv("MAN_QOS_TIERS", "asm2,exact;min=1", 1), 0);
  ServeConfig config;
  config.apply_qos_env();
  ASSERT_EQ(config.qos_tiers.size(), 2u);
  EXPECT_EQ(config.qos_tiers[0].name, "asm2");
  EXPECT_EQ(config.qos_tiers[1].name, "exact");
  EXPECT_EQ(config.qos_min_tier, 1u);

  ASSERT_EQ(setenv("MAN_QOS_TIERS", "not-a-ladder", 1), 0);
  EXPECT_THROW(config.apply_qos_env(), std::invalid_argument);

  ASSERT_EQ(unsetenv("MAN_QOS_TIERS"), 0);
  ServeConfig untouched;
  untouched.apply_qos_env();  // no-op when unset
  EXPECT_TRUE(untouched.qos_tiers.empty());
  EXPECT_EQ(untouched.qos_min_tier, 0u);
}

TEST(TieredEngineValidate, RejectsBrokenLadders) {
  EXPECT_THROW(TieredEngine{}.validate(), std::invalid_argument);

  TieredEngine null_engine = make_ladder(21);
  null_engine.tiers[1].engine = nullptr;
  EXPECT_THROW(null_engine.validate(), std::invalid_argument);

  TieredEngine duplicate = make_ladder(22);
  duplicate.tiers[1].spec.name = duplicate.tiers[0].spec.name;
  EXPECT_THROW(duplicate.validate(), std::invalid_argument);

  TieredEngine ragged = make_ladder(23);
  ragged.tiers[1].engine =
      make_asm_engine(23, 9, 6, 3, AlphabetSet::two());  // 9 != 8 inputs
  EXPECT_THROW(ragged.validate(), std::invalid_argument);

  make_ladder(24).validate();  // the well-formed ladder passes
}

// ------------------------------------------------------- server constructors

TEST(TieredServerCtor, SingleEngineCtorRejectsQosConfig) {
  const auto engine = make_asm_engine(30, 8, 6, 3, AlphabetSet::four());
  ServeConfig config;
  config.qos_tiers = parse_qos_tiers("asm4,asm2");
  EXPECT_THROW(InferenceServer(*engine, config), std::invalid_argument);
}

TEST(TieredServerCtor, RejectsLadderShapeMismatches) {
  ServeConfig two_rungs;
  two_rungs.qos_tiers = parse_qos_tiers("asm4,asm2");
  EXPECT_THROW(InferenceServer(make_ladder(31), two_rungs),
               std::invalid_argument);

  ServeConfig pin_past_end;
  pin_past_end.qos_min_tier = 3;
  EXPECT_THROW(InferenceServer(make_ladder(32), pin_past_end),
               std::invalid_argument);
}

// An empty config ladder is backfilled from the TieredEngine so the
// server's config() introspects the rungs it actually serves.
TEST(TieredServerCtor, BackfillsConfigLadderFromEngines) {
  InferenceServer server(make_ladder(33), ServeConfig{});
  ASSERT_EQ(server.tier_count(), 3u);
  ASSERT_EQ(server.config().qos_tiers.size(), 3u);
  EXPECT_EQ(server.config().qos_tiers[0].name, "asm4");
  EXPECT_EQ(server.config().qos_tiers[2].name, "exact");
  EXPECT_EQ(server.tier_spec(1).name, "asm2");
}

// --------------------------------------------------------- tier dispatching

// With a clear queue the dispatcher always serves the ladder front:
// full precision is the steady state, degradation needs pressure.
// The SLO is pinned huge so a CPU-starved CI runner cannot push the
// delay estimate into a degradation band and flip the expected tier.
TEST(TieredServer, ClearQueueServesTierZero) {
  ServeConfig config;
  config.queue_delay_slo = std::chrono::minutes(10);
  InferenceServer server(make_ladder(40), config);
  for (int r = 0; r < 4; ++r) {
    const auto pixels = random_samples(2, 8, 400 + static_cast<unsigned>(r));
    const InferenceResult result = serve(server, pixels);
    ASSERT_TRUE(result.ok());
    EXPECT_EQ(result.tier, 0u);
    EXPECT_EQ(result.tier_name, "asm4");
    EXPECT_EQ(result.raw, sequential_raw(server.tier_engine(0), pixels));
  }
  EXPECT_EQ(server.stats().tier, "asm4");
}

// An untiered server reports the "full" placeholder tier.
TEST(TieredServer, UntieredServerReportsFullTier) {
  const auto engine = make_asm_engine(41, 8, 6, 3, AlphabetSet::man());
  InferenceServer server(*engine, ServeConfig{});
  const auto pixels = random_samples(1, 8, 410);
  const InferenceResult result = serve(server, pixels);
  ASSERT_TRUE(result.ok());
  EXPECT_EQ(result.tier, 0u);
  EXPECT_EQ(result.tier_name, "full");
  EXPECT_EQ(server.tier_count(), 1u);
  EXPECT_EQ(server.stats().tier, "full");
}

// Acceptance: every rung of the ladder, forced via the min-tier pin,
// is bit-identical to its own sequential engine — on every kernel
// backend (the lock-step property must survive tier dispatch).
class TierBitIdentityAcrossBackends
    : public ::testing::TestWithParam<man::backend::BackendKind> {};

TEST_P(TierBitIdentityAcrossBackends, EachRungMatchesItsSequentialEngine) {
  const char* expected_name[] = {"asm4", "asm2", "exact"};
  for (std::size_t pin = 0; pin < 3; ++pin) {
    ServeConfig config;
    config.backend = GetParam();
    config.max_batch = 8;
    config.max_wait = 200us;
    config.qos_min_tier = pin;
    // Huge SLO: the pin alone decides the tier, even on a loaded
    // runner where the delay estimate would otherwise add pressure.
    config.queue_delay_slo = std::chrono::minutes(10);
    InferenceServer server(make_ladder(50), config);
    man::util::Rng rng(500 + pin);
    for (int r = 0; r < 6; ++r) {
      const std::size_t count = 1 + rng.next_below(3);
      const auto pixels =
          random_samples(count, 8, 5000 + pin * 100 + static_cast<unsigned>(r));
      const InferenceResult result = serve(server, pixels);
      ASSERT_TRUE(result.ok()) << "pin " << pin << " request " << r;
      EXPECT_EQ(result.tier, pin);
      EXPECT_EQ(result.tier_name, expected_name[pin]);
      EXPECT_EQ(result.raw, sequential_raw(server.tier_engine(pin), pixels))
          << "pin " << pin << " request " << r << " backend "
          << man::backend::to_string(GetParam());
    }
    // All work ran pinned: the merged stats label is that rung's name,
    // not "mixed" — the other rungs' idle runners carry no vote.
    EXPECT_EQ(server.stats().tier, expected_name[pin]);
  }
}

INSTANTIATE_TEST_SUITE_P(Backends, TierBitIdentityAcrossBackends,
                         ::testing::Values(man::backend::BackendKind::kScalar,
                                           man::backend::BackendKind::kBlocked,
                                           man::backend::BackendKind::kSimd,
                                           man::backend::BackendKind::kAvx512));

// ------------------------------------------------------ stats label policy

// Regression for the label merge policy: zero-inference stats (a
// freshly constructed runner, an idle shard) must neither flip a real
// label to "mixed" nor donate their own label.
TEST(EngineStatsLabels, IdleRunnerCarriesNoVote) {
  EngineStats active;
  active.inferences = 5;
  active.backend = "simd";
  active.tier = "asm4";

  EngineStats idle;
  idle.inferences = 0;
  idle.backend = "scalar";
  idle.tier = "exact";

  active.merge(idle);
  EXPECT_EQ(active.backend, "simd");
  EXPECT_EQ(active.tier, "asm4");
  EXPECT_EQ(active.inferences, 5u);
}

TEST(EngineStatsLabels, EmptySideAdoptsAndConflictsGoMixed) {
  EngineStats fresh;  // no label, no inferences: adopts the first real run
  EngineStats run;
  run.inferences = 3;
  run.backend = "blocked";
  run.tier = "asm2";
  fresh.merge(run);
  EXPECT_EQ(fresh.backend, "blocked");
  EXPECT_EQ(fresh.tier, "asm2");

  EngineStats other_tier;
  other_tier.inferences = 2;
  other_tier.backend = "blocked";
  other_tier.tier = "exact";
  fresh.merge(other_tier);
  EXPECT_EQ(fresh.backend, "blocked");  // same backend stays concrete
  EXPECT_EQ(fresh.tier, "mixed");       // tiers differ -> mixed
  EXPECT_EQ(fresh.inferences, 5u);
}

}  // namespace
}  // namespace man::serve

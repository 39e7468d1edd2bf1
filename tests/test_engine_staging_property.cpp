// Randomized property test (seeded RNG) for the flat-table CSHM
// staging: over random dense/conv geometries at 8- and 12-bit ×
// ASM + exact schemes, the direct-mapped (flat) PrecomputerCache's
// int32 rows and the bank's own int64 multiples, computed afresh per
// element, must stage the same values laid out exactly as the
// compiled plans index them — and every kernel backend must produce
// bit-identical accumulators from the int32 buffer and, through the
// narrowing entry points, from the int64 one.
#include <gtest/gtest.h>

#include <cstdint>
#include <span>
#include <vector>

#include "man/backend/kernel_backend.h"
#include "man/core/precomputer_bank.h"
#include "man/engine/fixed_network.h"
#include "man/nn/constraint_projection.h"
#include "man/nn/conv2d.h"
#include "man/nn/dense.h"
#include "man/util/rng.h"

namespace man::engine {
namespace {

using man::backend::all_backends;
using man::backend::BackendKind;
using man::backend::backend_for;
using man::core::AlphabetSet;
using man::core::OpCounts;
using man::core::PrecomputerBank;
using man::core::PrecomputerCache;
using man::nn::Network;
using man::nn::ProjectionPlan;
using man::nn::QuantSpec;

// Quantized random activations in the stage's raw input range.
std::vector<std::int64_t> random_raw_values(std::size_t n,
                                            const QuantSpec& spec,
                                            man::util::Rng& rng) {
  std::vector<std::int64_t> values(n);
  for (std::int64_t& v : values) {
    v = spec.activation_format.quantize(rng.next_double() * 2.0 - 1.0);
  }
  return values;
}

// The dense staging layout: k-strided element-major plus the trailing
// always-zero slot (what stage_multiples produces inside the engine).
// row_of(v) points at the k multiples of value v.
template <typename T, typename RowOf>
std::vector<T> stage_dense(const man::backend::DenseLayerPlan& plan,
                           std::span<const std::int64_t> values,
                           RowOf&& row_of) {
  std::vector<T> multiples(plan.padded_multiples(), -1);
  const auto k = static_cast<std::size_t>(plan.k);
  for (std::size_t i = 0; i < values.size(); ++i) {
    const auto row = row_of(values[i]);
    std::copy(row.begin(), row.begin() + static_cast<std::ptrdiff_t>(k),
              multiples.data() + i * k);
  }
  multiples[plan.zero_slot] = 0;
  return multiples;
}

// The conv staging layout: lane-major planes plus the zero region
// (what stage_multiples_lane_major + the zero fill produce).
template <typename T, typename RowOf>
std::vector<T> stage_conv(const man::backend::ConvLayerPlan& plan,
                          std::span<const std::int64_t> values,
                          RowOf&& row_of) {
  std::vector<T> multiples(plan.padded_multiples(), -1);
  const auto k = static_cast<std::size_t>(plan.k);
  const std::size_t stride = values.size();
  for (std::size_t i = 0; i < stride; ++i) {
    const auto row = row_of(values[i]);
    for (std::size_t l = 0; l < k; ++l) {
      multiples[l * stride + i] = row[l];
    }
  }
  std::fill(multiples.begin() + plan.zero_base, multiples.end(), 0);
  return multiples;
}

// Row providers: the flat cache's int32 row, and the bank's int64
// multiples computed afresh.
auto cache_rows(PrecomputerCache& cache, std::size_t k) {
  return [&cache, k](std::int64_t v) {
    OpCounts discard;
    return std::span<const std::int32_t>(cache.lookup(v, discard), k);
  };
}
auto bank_rows(const PrecomputerBank& bank) {
  return [&bank](std::int64_t v) { return bank.compute(v); };
}

// Widened copy of an int32 staging buffer, for comparison.
std::vector<std::int64_t> widened(const std::vector<std::int32_t>& v) {
  return {v.begin(), v.end()};
}

// Flat-vs-bank staging + per-backend accumulation for one ASM dense
// engine.
void check_dense_engine(const FixedNetwork& engine, const QuantSpec& spec,
                        const PrecomputerBank& bank, man::util::Rng& rng) {
  ASSERT_EQ(engine.plans().size(), 1u);
  const auto& plan = engine.plans()[0];
  ASSERT_FALSE(plan.exact);

  const auto values = random_raw_values(
      static_cast<std::size_t>(plan.cols), spec, rng);

  PrecomputerCache flat(bank);
  flat.configure_range(spec.activation_format.min_raw(),
                       spec.activation_format.max_raw());
  const auto k = static_cast<std::size_t>(plan.k);
  const auto flat_multiples =
      stage_dense<std::int32_t>(plan, values, cache_rows(flat, k));
  const auto bank_multiples =
      stage_dense<std::int64_t>(plan, values, bank_rows(bank));
  EXPECT_EQ(widened(flat_multiples), bank_multiples);

  std::vector<std::int64_t> reference(static_cast<std::size_t>(plan.rows));
  backend_for(BackendKind::kScalar)
      .accumulate_dense(plan, bank_multiples.data(), reference.data());
  for (const auto* backend : all_backends()) {
    std::vector<std::int64_t> out(static_cast<std::size_t>(plan.rows));
    backend->accumulate_dense(plan, flat_multiples.data(), out.data());
    EXPECT_EQ(out, reference) << "backend=" << backend->name();
    std::vector<std::int64_t> out64(static_cast<std::size_t>(plan.rows));
    backend->accumulate_dense(plan, bank_multiples.data(), out64.data());
    EXPECT_EQ(out64, reference) << "int64 staging, backend="
                                << backend->name();
  }
}

// Same property for one ASM conv engine (lane-major layout).
void check_conv_engine(const FixedNetwork& engine, const QuantSpec& spec,
                       const PrecomputerBank& bank, man::util::Rng& rng) {
  ASSERT_EQ(engine.conv_plans().size(), 1u);
  const auto& plan = engine.conv_plans()[0];
  ASSERT_FALSE(plan.exact);

  const auto values = random_raw_values(plan.input_elems(), spec, rng);

  PrecomputerCache flat(bank);
  flat.configure_range(spec.activation_format.min_raw(),
                       spec.activation_format.max_raw());
  const auto k = static_cast<std::size_t>(plan.k);
  const auto flat_multiples =
      stage_conv<std::int32_t>(plan, values, cache_rows(flat, k));
  const auto bank_multiples =
      stage_conv<std::int64_t>(plan, values, bank_rows(bank));
  EXPECT_EQ(widened(flat_multiples), bank_multiples);

  const std::size_t out_size =
      static_cast<std::size_t>(plan.oc) * plan.positions();
  std::vector<std::int64_t> reference(out_size);
  backend_for(BackendKind::kScalar)
      .accumulate_conv(plan, bank_multiples.data(), reference.data());
  for (const auto* backend : all_backends()) {
    std::vector<std::int64_t> out(out_size);
    backend->accumulate_conv(plan, flat_multiples.data(), out.data());
    EXPECT_EQ(out, reference) << "backend=" << backend->name();
    std::vector<std::int64_t> out64(out_size);
    backend->accumulate_conv(plan, bank_multiples.data(), out64.data());
    EXPECT_EQ(out64, reference) << "int64 staging, backend="
                                << backend->name();
  }
}

// Exact engines do not stage, but every backend must agree on the
// full forward pass.
void check_engine_backends_agree(FixedNetwork& engine,
                                 man::util::Rng& rng) {
  std::vector<float> pixels(engine.input_size());
  for (float& p : pixels) {
    p = static_cast<float>(rng.next_double() * 2.0 - 1.0);
  }
  auto scratch = engine.make_scratch();
  auto stats = engine.make_stats();
  std::vector<std::int64_t> reference(engine.output_size());
  engine.infer_into(pixels, reference, stats, scratch,
                    backend_for(BackendKind::kScalar));
  for (const auto* backend : all_backends()) {
    std::vector<std::int64_t> raw(engine.output_size());
    engine.infer_into(pixels, raw, stats, scratch, *backend);
    EXPECT_EQ(raw, reference) << "backend=" << backend->name();
  }
}

class StagingProperty : public ::testing::TestWithParam<int> {};

TEST_P(StagingProperty, RandomDenseGeometries) {
  const QuantSpec spec = QuantSpec::for_bits(GetParam());
  const AlphabetSet set = AlphabetSet::four();
  const PrecomputerBank bank(set);
  man::util::Rng rng(900 + static_cast<std::uint64_t>(GetParam()));

  for (int trial = 0; trial < 6; ++trial) {
    const int in = static_cast<int>(rng.next_in(4, 40));
    const int out = static_cast<int>(rng.next_in(1, 12));
    Network net;
    net.add<man::nn::Dense>(in, out).init_xavier(rng);
    const ProjectionPlan projection(spec, set, 1);
    projection.project_network(net);

    FixedNetwork asm_engine(net, spec, LayerAlphabetPlan::uniform_asm(1, set));
    check_dense_engine(asm_engine, spec, bank, rng);
    check_engine_backends_agree(asm_engine, rng);

    FixedNetwork exact_engine(net, spec, LayerAlphabetPlan::conventional(1));
    ASSERT_TRUE(exact_engine.plans()[0].exact);
    check_engine_backends_agree(exact_engine, rng);
  }
}

TEST_P(StagingProperty, RandomConvGeometries) {
  const QuantSpec spec = QuantSpec::for_bits(GetParam());
  const AlphabetSet set = AlphabetSet::four();
  const PrecomputerBank bank(set);
  man::util::Rng rng(7100 + static_cast<std::uint64_t>(GetParam()));

  for (int trial = 0; trial < 6; ++trial) {
    const int ic = static_cast<int>(rng.next_in(1, 3));
    const int oc = static_cast<int>(rng.next_in(1, 4));
    const int kernel = static_cast<int>(rng.next_in(2, 3));
    const int ih = static_cast<int>(rng.next_in(kernel, 8));
    const int iw = static_cast<int>(rng.next_in(kernel, 8));
    Network net;
    net.add<man::nn::Conv2D>(ic, oc, kernel, ih, iw).init_xavier(rng);
    const ProjectionPlan projection(spec, set, 1);
    projection.project_network(net);

    FixedNetwork asm_engine(net, spec, LayerAlphabetPlan::uniform_asm(1, set));
    check_conv_engine(asm_engine, spec, bank, rng);
    check_engine_backends_agree(asm_engine, rng);

    FixedNetwork exact_engine(net, spec, LayerAlphabetPlan::conventional(1));
    ASSERT_TRUE(exact_engine.conv_plans()[0].exact);
    check_engine_backends_agree(exact_engine, rng);
  }
}

INSTANTIATE_TEST_SUITE_P(PaperWidths, StagingProperty,
                         ::testing::Values(8, 12));

}  // namespace
}  // namespace man::engine

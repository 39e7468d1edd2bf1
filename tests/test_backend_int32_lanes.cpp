// The int32 kernel lanes and the per-plan overflow proof that makes
// them exact (layer_plan.h magnitude_bound(), enforced by
// FixedNetwork::compile_plan()):
//  - engines whose activation window or ASM magnitude bound does not
//    fit are rejected at construction, naming the stage and the bound;
//  - hand-built dense and conv plans whose bound is exactly INT32_MAX
//    drive outputs to ±INT32_MAX, and plans whose partial sums (and
//    single products) wrap int32 but whose results fit still match
//    the int64 scalar reference, because the lane arithmetic is exact
//    modulo 2^32 — on every backend, per sample and batched, every
//    conv tile shape, and after an artifact round trip;
//  - a crafted, checksum-valid artifact whose shifts and biases break
//    the bound runs on every backend without undefined behaviour (the
//    sanitizer CI job runs this suite).
#include <gtest/gtest.h>

#include <unistd.h>

#include <algorithm>
#include <cstdint>
#include <cstring>
#include <filesystem>
#include <fstream>
#include <iterator>
#include <limits>
#include <string>
#include <vector>

#include "man/artifact/plan_artifact.h"
#include "man/backend/conv_autotune.h"
#include "man/backend/kernel_backend.h"
#include "man/core/precomputer_bank.h"
#include "man/engine/fixed_network.h"
#include "man/nn/activation_layer.h"
#include "man/nn/constraint_projection.h"
#include "man/nn/conv2d.h"
#include "man/nn/dense.h"
#include "man/nn/pool.h"
#include "man/util/rng.h"
#include "man/util/serialize.h"

namespace man::engine {
namespace {

using man::backend::all_backends;
using man::backend::AsmStep;
using man::backend::AsmWeight;
using man::backend::backend_for;
using man::backend::BackendKind;
using man::backend::ConvLayerPlan;
using man::backend::DenseLayerPlan;
using man::backend::kInt32LaneBound;
using man::backend::KernelBackend;
using man::core::AlphabetSet;
using man::core::MultiplierKind;
using man::nn::QuantSpec;

constexpr std::int64_t kMaxAbsInput = 255;  // Q9.8 activations
constexpr std::int64_t kInt32Max = std::numeric_limits<std::int32_t>::max();

/// Step of alphabet `a` (an odd value of AlphabetSet::full(), lane
/// (a − 1)/2) shifted left by `shift`.
AsmStep step(int a, int shift) {
  return AsmStep{static_cast<std::uint8_t>((a - 1) / 2),
                 static_cast<std::uint8_t>(shift)};
}

/// AoS schedule under construction: rows × cols weights, each a list
/// of steps and a sign; unset weights have no steps.
struct Schedule {
  int rows = 0, cols = 0;
  std::vector<std::vector<AsmStep>> steps;
  std::vector<bool> negative;
  std::vector<std::int64_t> biases;

  Schedule(int r, int c)
      : rows(r),
        cols(c),
        steps(static_cast<std::size_t>(r) * c),
        negative(static_cast<std::size_t>(r) * c, false),
        biases(static_cast<std::size_t>(r), 0) {}

  void set(int r, int c, bool neg, std::vector<AsmStep> quartets) {
    const auto cell = static_cast<std::size_t>(r) * cols + c;
    steps[cell] = std::move(quartets);
    negative[cell] = neg;
  }

  void flatten(std::vector<AsmWeight>& weights,
               std::vector<AsmStep>& flat) const {
    for (std::size_t cell = 0; cell < steps.size(); ++cell) {
      AsmWeight w;
      w.step_begin = static_cast<std::uint32_t>(flat.size());
      w.step_count = static_cast<std::uint8_t>(steps[cell].size());
      w.negative = negative[cell];
      flat.insert(flat.end(), steps[cell].begin(), steps[cell].end());
      weights.push_back(w);
    }
  }
};

DenseLayerPlan dense_plan(const Schedule& s) {
  std::vector<AsmWeight> weights;
  std::vector<AsmStep> steps;
  s.flatten(weights, steps);
  return DenseLayerPlan::build_asm(s.rows, s.cols, 8, std::move(weights),
                                   std::move(steps), s.biases);
}

constexpr int kConvIh = 4, kConvIw = 40, kConvK = 2;  // 3 × 39 outputs

ConvLayerPlan conv_plan(const Schedule& s) {
  std::vector<AsmWeight> weights;
  std::vector<AsmStep> steps;
  s.flatten(weights, steps);
  return ConvLayerPlan::build_asm(s.rows, 1, kConvK, kConvIh, kConvIw, 8,
                                  std::move(weights), std::move(steps),
                                  s.biases);
}

CompiledSynapse asm_synapse(const std::string& name, std::uint64_t macs) {
  CompiledSynapse syn;
  syn.scheme = LayerScheme{MultiplierKind::kAsm, AlphabetSet::full()};
  syn.name = name;
  syn.macs = macs;
  return syn;
}

/// One-stage engines around hand-built plans (no LUT: the outputs are
/// the raw accumulators).
FixedNetwork dense_engine(DenseLayerPlan plan) {
  CompiledModel model;
  model.spec = QuantSpec::bits12();
  model.stages.emplace_back(CompiledDenseStage{
      plan.cols, plan.rows,
      asm_synapse("dense", static_cast<std::uint64_t>(plan.rows) * plan.cols)});
  return FixedNetwork(model, {std::move(plan)}, {}, nullptr);
}

FixedNetwork conv_engine(ConvLayerPlan plan) {
  CompiledModel model;
  model.spec = QuantSpec::bits12();
  model.stages.emplace_back(CompiledConvStage{
      1, plan.oc, kConvK, kConvIh, kConvIw, plan.oh, plan.ow,
      asm_synapse("conv", static_cast<std::uint64_t>(plan.oc) *
                              plan.positions() * plan.cols)});
  return FixedNetwork(model, {}, {std::move(plan)}, nullptr);
}

/// The bound plan's rows: Σ|w| = (15<<19) + (1<<19) + (1<<15) + (1<<7)
/// = 8421504, and 8421504 · 255 + 127 = INT32_MAX exactly. Row/filter
/// 0 is all positive (bias +127), row 1 its negation.
void set_bound_rows(Schedule& s, const std::vector<int>& cols) {
  for (int r = 0; r < 2; ++r) {
    const bool neg = r == 1;
    s.set(r, cols[0], neg, {step(15, 19)});
    s.set(r, cols[1], neg, {step(1, 19)});
    s.set(r, cols[2], neg, {step(1, 15)});
    s.set(r, cols[3], neg, {step(1, 7)});
    s.biases[static_cast<std::size_t>(r)] = neg ? -127 : 127;
  }
}

/// The wrap plan's rows: every product is (1<<23)·x or (15<<23)·x — at
/// |x| = 255 single products (15<<23 · 255) and running sums (two
/// 1<<23 terms) leave int32 — yet on a uniform input image the terms
/// cancel, so the results (12x + 5 and x − 9) fit.
void set_wrap_rows(Schedule& s, const std::vector<int>& cols) {
  s.set(0, cols[0], false, {step(1, 23), step(3, 2)});  // (2^23 + 12)·x
  s.set(0, cols[1], false, {step(1, 23)});
  s.set(0, cols[2], true, {step(1, 23)});
  s.set(0, cols[3], true, {step(1, 23)});
  s.biases[0] = 5;
  s.set(1, cols[0], false, {step(15, 23), step(1, 0)});
  s.set(1, cols[1], true, {step(15, 23)});
  s.set(1, cols[2], false, {step(7, 20), step(9, 23)});
  s.set(1, cols[3], true, {step(7, 20), step(9, 23)});
  s.biases[1] = -9;
}

/// `count` images of `size` pixels: uniform images (every pixel the
/// same, from −1 to +1) when `uniform`, else random pixels with the
/// all −1 and all +1 images first.
std::vector<float> images(std::size_t count, std::size_t size, bool uniform,
                          std::uint64_t seed) {
  man::util::Rng rng(seed);
  std::vector<float> pixels(count * size);
  for (std::size_t i = 0; i < count; ++i) {
    const float level =
        i == 0 ? -1.0f
               : i == 1 ? 1.0f
                        : static_cast<float>(rng.next_double() * 2.0 - 1.0);
    for (std::size_t p = 0; p < size; ++p) {
      pixels[i * size + p] =
          uniform || i < 2 ? level
                           : static_cast<float>(rng.next_double() * 2.0 - 1.0);
    }
  }
  return pixels;
}

std::vector<std::int64_t> per_sample(const FixedNetwork& engine,
                                     std::span<const float> pixels,
                                     const KernelBackend& kernel) {
  const std::size_t count = pixels.size() / engine.input_size();
  std::vector<std::int64_t> out(count * engine.output_size());
  auto scratch = engine.make_scratch();
  auto stats = engine.make_stats();
  for (std::size_t i = 0; i < count; ++i) {
    engine.infer_into(
        pixels.subspan(i * engine.input_size(), engine.input_size()),
        std::span<std::int64_t>(out).subspan(i * engine.output_size(),
                                             engine.output_size()),
        stats, scratch, kernel);
  }
  return out;
}

std::vector<std::int64_t> batched(const FixedNetwork& engine,
                                  std::span<const float> pixels,
                                  const KernelBackend& kernel) {
  std::vector<std::int64_t> out(pixels.size() / engine.input_size() *
                                engine.output_size());
  auto scratch = engine.make_scratch();
  auto stats = engine.make_stats();
  engine.infer_batch_into(pixels, out, stats, scratch, kernel);
  return out;
}

/// Every backend, per sample and batched (32-sample tiles take the
/// batch-as-lanes kernel on every backend but the scalar reference),
/// against the scalar per-sample reference; returns the reference.
std::vector<std::int64_t> expect_backends_agree(const FixedNetwork& engine,
                                                std::span<const float> pixels,
                                                const std::string& what) {
  const auto reference =
      per_sample(engine, pixels, backend_for(BackendKind::kScalar));
  for (const KernelBackend* backend : all_backends()) {
    EXPECT_EQ(per_sample(engine, pixels, *backend), reference)
        << what << " per-sample, backend=" << backend->name();
    EXPECT_EQ(batched(engine, pixels, *backend), reference)
        << what << " batched, backend=" << backend->name();
  }
  return reference;
}

class TempDir {
 public:
  TempDir()
      : dir_(std::filesystem::temp_directory_path() /
             ("man_int32_lanes_" + std::to_string(::getpid()))) {
    std::filesystem::create_directories(dir_);
  }
  ~TempDir() { std::filesystem::remove_all(dir_); }
  [[nodiscard]] std::string path(const std::string& name) const {
    return (dir_ / name).string();
  }

 private:
  std::filesystem::path dir_;
};

/// The engine, saved and mmap-loaded back.
std::shared_ptr<const FixedNetwork> round_trip(const FixedNetwork& engine,
                                               const TempDir& dir) {
  const std::string file = dir.path("engine.plan");
  man::artifact::save_engine(engine, file, "int32");
  return man::artifact::load_engine(file, "int32");
}

// --- the proof --------------------------------------------------------

TEST(Int32Proof, BoundOfHandBuiltPlansIsExact) {
  const auto alphabets = AlphabetSet::full().alphabets();
  Schedule dense(2, 37);
  set_bound_rows(dense, {0, 17, 20, 36});
  EXPECT_EQ(man::backend::magnitude_bound(dense_plan(dense), alphabets, 255),
            kInt32LaneBound);
  Schedule conv(2, 4);
  set_bound_rows(conv, {0, 1, 2, 3});
  EXPECT_EQ(man::backend::magnitude_bound(conv_plan(conv), alphabets, 255),
            kInt32LaneBound);
  // One more unit of input magnitude breaks it.
  EXPECT_GT(man::backend::magnitude_bound(conv_plan(conv), alphabets, 256),
            kInt32LaneBound);
  // Shifts past 31 (only a crafted plan has them) saturate.
  Schedule wild(1, 1);
  wild.set(0, 0, false, {step(1, 40)});
  EXPECT_EQ(man::backend::magnitude_bound(dense_plan(wild), alphabets, 1),
            std::numeric_limits<std::uint64_t>::max());
}

// 20-bit activations pass the flat-window check (2^20 − 1 values) but
// a 1024-wide 12-bit dense stage over them cannot fit int32 lanes.
TEST(Int32Proof, ConstructionRejectsAStageOverTheBound) {
  const QuantSpec spec{man::fixed::QFormat::weight12(),
                       man::fixed::QFormat(20, 8)};
  man::util::Rng rng(11);
  man::nn::Network net;
  net.add<man::nn::Dense>(1024, 10).init_xavier(rng);
  const man::nn::ProjectionPlan projection(spec, AlphabetSet::four(), 1);
  projection.project_network(net);
  const std::string stage = net.layer(0).name();
  try {
    FixedNetwork engine(net, spec,
                        LayerAlphabetPlan::uniform_asm(1, AlphabetSet::four()));
    FAIL() << "a plan over the int32 lane bound was accepted";
  } catch (const std::invalid_argument& e) {
    const std::string what = e.what();
    EXPECT_NE(what.find(stage), std::string::npos) << what;
    EXPECT_NE(what.find(std::to_string(kInt32LaneBound)), std::string::npos)
        << what;
  }
  // The same network under the shipped activation format compiles.
  const QuantSpec shipped = QuantSpec::bits12();
  EXPECT_NO_THROW(FixedNetwork(
      net, shipped, LayerAlphabetPlan::uniform_asm(1, AlphabetSet::four())));
}

// The compile-time check itself sits exactly at INT32_MAX: a 4096-wide
// 12-bit stage of all-maximal weights (4096 · 2047 · 255) plus a bias
// of 9433087 at product scale 2^18 compiles and reaches INT32_MAX; one
// more unit of bias is rejected.
TEST(Int32Proof, CompiledStageExactlyAtTheBoundIsAccepted) {
  const QuantSpec spec = QuantSpec::bits12();
  const auto build = [&](std::int64_t bias_raw) {
    man::nn::Network net;
    auto& dense = net.add<man::nn::Dense>(4096, 1);
    for (float& w : dense.weights()) w = 2047.0f / 1024.0f;
    dense.biases()[0] = static_cast<float>(bias_raw) / (1 << 18);
    return FixedNetwork(
        net, spec, LayerAlphabetPlan::uniform_asm(1, AlphabetSet::full()));
  };
  const FixedNetwork engine = build(9433087);
  EXPECT_EQ(man::backend::magnitude_bound(engine.plans()[0],
                                          AlphabetSet::full().alphabets(),
                                          kMaxAbsInput),
            kInt32LaneBound);
  const std::vector<float> ones(4096, 1.0f);
  for (const KernelBackend* backend : all_backends()) {
    EXPECT_EQ(per_sample(engine, ones, *backend),
              std::vector<std::int64_t>{kInt32Max})
        << backend->name();
  }
  EXPECT_THROW((void)build(9433088), std::invalid_argument);
}

// One bit wider and the format no longer fits the CSHM flat window:
// rejected before anything compiles, on both construction paths.
TEST(Int32Proof, ConstructionRejectsActivationsWiderThanTheWindow) {
  const QuantSpec spec{man::fixed::QFormat::weight12(),
                       man::fixed::QFormat(21, 8)};
  man::util::Rng rng(12);
  man::nn::Network net;
  net.add<man::nn::Dense>(4, 2).init_xavier(rng);
  try {
    FixedNetwork engine(net, spec, LayerAlphabetPlan::conventional(1));
    FAIL() << "an activation format wider than the window was accepted";
  } catch (const std::invalid_argument& e) {
    EXPECT_NE(std::string(e.what()).find("staging window"), std::string::npos)
        << e.what();
  }
  CompiledModel model;
  model.spec = spec;
  EXPECT_THROW(FixedNetwork(model, {}, {}, nullptr), std::invalid_argument);
}

// --- exactness at and past the bound ----------------------------------

TEST(Int32Lanes, DensePlanAtTheBoundMatchesReference) {
  Schedule s(2, 37);
  set_bound_rows(s, {0, 17, 20, 36});
  const FixedNetwork engine = dense_engine(dense_plan(s));
  const auto pixels = images(40, 37, /*uniform=*/false, 1);
  const auto reference = expect_backends_agree(engine, pixels, "dense bound");
  // The all −1 and all +1 images hit the extremes.
  EXPECT_EQ(reference[0], -kInt32Max + 254);
  EXPECT_EQ(reference[1], kInt32Max - 254);
  EXPECT_EQ(reference[2], kInt32Max);
  EXPECT_EQ(reference[3], -kInt32Max);

  TempDir dir;
  const auto loaded = round_trip(engine, dir);
  EXPECT_EQ(expect_backends_agree(*loaded, pixels, "dense bound, loaded"),
            reference);
}

TEST(Int32Lanes, DensePartialSumsThatWrapStillMatchReference) {
  Schedule s(2, 37);
  set_wrap_rows(s, {3, 16, 18, 33});
  const FixedNetwork engine = dense_engine(dense_plan(s));
  const auto pixels = images(40, 37, /*uniform=*/true, 2);
  const auto reference = expect_backends_agree(engine, pixels, "dense wrap");
  EXPECT_EQ(reference[2], 12 * 255 + 5);  // all +1 image: x = 255
  EXPECT_EQ(reference[3], 255 - 9);

  TempDir dir;
  const auto loaded = round_trip(engine, dir);
  EXPECT_EQ(expect_backends_agree(*loaded, pixels, "dense wrap, loaded"),
            reference);
}

/// Conv engine checks shared by the bound and wrap plans, plus every
/// tile shape the vector kernels instantiate, forced onto a copy of
/// the plan and run on staged multiples.
std::vector<std::int64_t> check_conv(const ConvLayerPlan& plan,
                                     const std::vector<float>& pixels,
                                     const std::string& what) {
  const FixedNetwork engine = conv_engine(plan);
  const auto reference = expect_backends_agree(engine, pixels, what);

  const man::core::PrecomputerBank bank(AlphabetSet::full());
  man::core::PrecomputerCache cache(bank);
  cache.configure_range(-kMaxAbsInput, kMaxAbsInput);
  const auto format = QuantSpec::bits12().activation_format;
  const std::size_t elems = plan.input_elems();
  const std::size_t outs = static_cast<std::size_t>(plan.oc) * plan.positions();
  for (std::size_t i = 0; i < pixels.size() / elems; ++i) {
    std::vector<std::int32_t> multiples(plan.padded_multiples(), 0);
    man::core::OpCounts discard;
    for (std::size_t e = 0; e < elems; ++e) {
      const std::int32_t* row = cache.lookup(
          format.quantize(static_cast<double>(pixels[i * elems + e])),
          discard);
      for (int l = 0; l < plan.k; ++l) {
        multiples[static_cast<std::size_t>(l) * elems + e] = row[l];
      }
    }
    const std::vector<std::int64_t> expected(
        reference.begin() + static_cast<std::ptrdiff_t>(i * outs),
        reference.begin() + static_cast<std::ptrdiff_t>((i + 1) * outs));
    for (const auto& shape : man::backend::conv_tile_candidates()) {
      ConvLayerPlan shaped = plan;
      shaped.tile_avx2 = shape;
      shaped.tile_avx512 = shape;
      for (const KernelBackend* backend : all_backends()) {
        std::vector<std::int64_t> out(outs);
        backend->accumulate_conv(shaped, multiples.data(), out.data());
        EXPECT_EQ(out, expected) << what << " tile "
                                 << man::backend::to_string(shape)
                                 << ", backend=" << backend->name();
      }
    }
  }

  TempDir dir;
  const auto loaded = round_trip(engine, dir);
  EXPECT_EQ(expect_backends_agree(*loaded, pixels, what + ", loaded"),
            reference);
  return reference;
}

TEST(Int32Lanes, ConvPlanAtTheBoundMatchesReference) {
  Schedule s(2, kConvK * kConvK);
  set_bound_rows(s, {0, 1, 2, 3});
  const ConvLayerPlan plan = conv_plan(s);
  const auto pixels =
      images(6, static_cast<std::size_t>(kConvIh) * kConvIw, false, 3);
  const auto reference = check_conv(plan, pixels, "conv bound");
  const std::size_t outs = 2 * plan.positions();
  // All +1 image (sample 1): filter 0 at INT32_MAX, filter 1 at −.
  EXPECT_EQ(reference[outs], kInt32Max);
  EXPECT_EQ(reference[outs + plan.positions()], -kInt32Max);
}

TEST(Int32Lanes, ConvPartialSumsThatWrapStillMatchReference) {
  Schedule s(2, kConvK * kConvK);
  set_wrap_rows(s, {0, 1, 2, 3});
  const ConvLayerPlan plan = conv_plan(s);
  const auto pixels =
      images(6, static_cast<std::size_t>(kConvIh) * kConvIw, true, 4);
  const auto reference = check_conv(plan, pixels, "conv wrap");
  const std::size_t outs = 2 * plan.positions();
  EXPECT_EQ(reference[outs], 12 * 255 + 5);
  EXPECT_EQ(reference[outs + plan.positions()], 255 - 9);
}

// --- crafted artifacts ------------------------------------------------

/// Offset of the only occurrence of `needle` in `haystack`.
std::size_t find_once(const std::vector<char>& haystack, const void* needle,
                      std::size_t size) {
  const auto* begin = static_cast<const char*>(needle);
  const auto first = std::search(haystack.begin(), haystack.end(), begin,
                                 begin + size);
  EXPECT_NE(first, haystack.end());
  if (first == haystack.end()) return 0;
  EXPECT_EQ(std::search(first + 1, haystack.end(), begin, begin + size),
            haystack.end())
      << "ambiguous array contents";
  return static_cast<std::size_t>(first - haystack.begin());
}

/// Overwrites the array `values` (located by content) with `crafted`.
template <typename T>
void craft(std::vector<char>& blob, const man::backend::PlanArray<T>& values,
           const std::vector<T>& crafted) {
  ASSERT_EQ(values.size(), crafted.size());
  const std::size_t bytes = values.size() * sizeof(T);
  const std::size_t at = find_once(blob, values.data(), bytes);
  std::memcpy(blob.data() + at, crafted.data(), bytes);
}

/// Shifts far past 31 (and negative), step shifts past 63, and biases
/// at the int64 extremes, in place of a plan's own.
template <typename Plan>
void craft_plan(std::vector<char>& blob, const Plan& plan) {
  const std::int32_t shifts[] = {31, 32, 40, -1, 255,
                                 std::numeric_limits<std::int32_t>::max()};
  std::vector<std::int32_t> crafted_shifts(plan.shifts.size());
  for (std::size_t i = 0; i < crafted_shifts.size(); ++i) {
    crafted_shifts[i] = shifts[i % std::size(shifts)];
  }
  craft(blob, plan.shifts, crafted_shifts);

  std::vector<AsmStep> crafted_steps(plan.steps.begin(), plan.steps.end());
  const std::uint8_t step_shifts[] = {31, 63, 64, 200, 255};
  for (std::size_t i = 0; i < crafted_steps.size(); ++i) {
    crafted_steps[i].shift = step_shifts[i % std::size(step_shifts)];
  }
  craft(blob, plan.steps, crafted_steps);

  std::vector<std::int64_t> crafted_biases(plan.biases.size());
  for (std::size_t i = 0; i < crafted_biases.size(); ++i) {
    crafted_biases[i] = i % 2 == 0 ? std::numeric_limits<std::int64_t>::max()
                                   : std::numeric_limits<std::int64_t>::min();
  }
  craft(blob, plan.biases, crafted_biases);
}

/// Random biases (Xavier init zeroes them), so each crafted array is
/// distinct from every other one in the blob.
template <typename Layer>
Layer& with_biases(Layer& layer, man::util::Rng& rng) {
  for (float& b : layer.biases()) {
    b = static_cast<float>(rng.next_double_in(-0.5, 0.5));
  }
  return layer;
}

/// A small ASM MLP and CNN (dense and conv kernels, LUTs, pooling).
std::vector<FixedNetwork> crafted_targets() {
  const QuantSpec spec = QuantSpec::bits12();
  const AlphabetSet set = AlphabetSet::four();
  man::util::Rng rng(77);
  std::vector<FixedNetwork> engines;
  engines.reserve(2);
  {
    man::nn::Network net;
    auto& d1 = net.add<man::nn::Dense>(40, 24);
    d1.init_xavier(rng);
    with_biases(d1, rng);
    net.add<man::nn::ActivationLayer>(man::core::ActivationKind::kTanh);
    auto& d2 = net.add<man::nn::Dense>(24, 5);
    d2.init_xavier(rng);
    with_biases(d2, rng);
    man::nn::ProjectionPlan(spec, set, 2).project_network(net);
    engines.emplace_back(net, spec, LayerAlphabetPlan::uniform_asm(2, set));
  }
  {
    man::nn::Network net;
    auto& c1 = net.add<man::nn::Conv2D>(1, 3, 3, 10, 20);
    c1.init_xavier(rng);
    with_biases(c1, rng);
    net.add<man::nn::ActivationLayer>(man::core::ActivationKind::kTanh);
    net.add<man::nn::AvgPool2D>(3, 8, 18, 2);
    auto& d = net.add<man::nn::Dense>(3 * 4 * 9, 4);
    d.init_xavier(rng);
    with_biases(d, rng);
    man::nn::ProjectionPlan(spec, set, 2).project_network(net);
    engines.emplace_back(net, spec, LayerAlphabetPlan::uniform_asm(2, set));
  }
  return engines;
}

TEST(Int32Lanes, CraftedArtifactOverTheBoundRunsWithoutUndefinedBehaviour) {
  TempDir dir;
  for (const FixedNetwork& engine : crafted_targets()) {
    const std::string file = dir.path("crafted.plan");
    man::artifact::save_engine(engine, file, "crafted");
    std::vector<char> blob;
    {
      std::ifstream in(file, std::ios::binary);
      blob.assign(std::istreambuf_iterator<char>(in),
                  std::istreambuf_iterator<char>());
    }
    for (const auto& plan : engine.plans()) craft_plan(blob, plan);
    for (const auto& plan : engine.conv_plans()) craft_plan(blob, plan);
    // Re-seal: the payload checksum sits at byte 32 of the 64-byte
    // header (after magic, version, header size, file size, config
    // hash) and covers everything after the header.
    const std::uint64_t checksum =
        man::util::blob_checksum(blob.data() + 64, blob.size() - 64);
    std::memcpy(blob.data() + 32, &checksum, sizeof checksum);
    {
      std::ofstream out(file, std::ios::binary | std::ios::trunc);
      out.write(blob.data(), static_cast<std::streamsize>(blob.size()));
    }

    const auto loaded = man::artifact::load_engine(file, "crafted");
    ASSERT_NE(loaded->plans().front().shifts.data()[0],
              engine.plans().front().shifts.data()[0]);
    const auto pixels = images(33, loaded->input_size(), false, 5);
    for (const KernelBackend* backend : all_backends()) {
      // The numbers are meaningless; finishing without a sanitizer
      // report is the assertion.
      EXPECT_EQ(per_sample(*loaded, pixels, *backend).size(),
                33 * loaded->output_size());
      EXPECT_EQ(batched(*loaded, pixels, *backend).size(),
                33 * loaded->output_size());
    }
  }
}

}  // namespace
}  // namespace man::engine

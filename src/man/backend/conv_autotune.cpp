#include "man/backend/conv_autotune.h"

#include <algorithm>
#include <array>
#include <charconv>
#include <chrono>
#include <cstdlib>
#include <limits>
#include <stdexcept>
#include <string_view>
#include <vector>

#include "man/backend/backend_impls.h"

namespace man::backend {

namespace {

/// The candidate grid: every row depth the kernels instantiate at one
/// and two vector column groups, plus the weight-stationary sweep.
/// Shapes near the 8×2 corner spill ymm/zmm registers — they are
/// still bit-identical, the bench simply votes them down where that
/// hurts. tune_isa() measures only the shapes that differ on the
/// plan's geometry at the ISA's lane width.
constexpr std::array<ConvTileShape, 11> kCandidates = {{
    {1, 1, false},
    {2, 1, false},
    {3, 1, false},
    {4, 1, false},
    {6, 1, false},
    {8, 1, false},
    {2, 2, false},
    {4, 2, false},
    {6, 2, false},
    {8, 2, false},
    {0, 0, true},
}};

/// Geometries below this many output positions keep the kernel
/// defaults: single-pass times are too small to rank candidates
/// reliably, and the tile choice cannot matter much there anyway.
constexpr std::size_t kMinPositions = 32;

using Clock = std::chrono::steady_clock;

[[nodiscard]] bool valid_shape(const ConvTileShape& shape) {
  if (shape.weight_stationary) return true;
  return shape.row_tile >= 1 && shape.row_tile <= kMaxConvRowTile &&
         shape.col_vecs >= 1 && shape.col_vecs <= kMaxConvColVecs;
}

/// Best-of-3 average time of `iters` kernel passes, in nanoseconds.
double measure(BackendKind kind, const ConvLayerPlan& plan,
               const std::int32_t* multiples, std::int64_t* out,
               const ConvTileShape& shape, int iters) {
  double best = std::numeric_limits<double>::infinity();
  for (int rep = 0; rep < 3; ++rep) {
    const auto t0 = Clock::now();
    for (int i = 0; i < iters; ++i) {
      (void)detail::conv_run_shaped(kind, plan, multiples, out, shape);
    }
    const auto t1 = Clock::now();
    const double ns =
        static_cast<double>(
            std::chrono::duration_cast<std::chrono::nanoseconds>(t1 - t0)
                .count()) /
        iters;
    best = std::min(best, ns);
  }
  return best;
}

/// The shape a kernel actually runs on this geometry: row tiles past
/// the output height and a second column group that never fits a row
/// of `lanes`-wide vectors collapse onto smaller shapes.
ConvTileShape effective_shape(const ConvTileShape& shape,
                              const ConvLayerPlan& plan, int lanes) {
  if (shape.weight_stationary) return shape;
  ConvTileShape effective = shape;
  effective.row_tile = std::min(shape.row_tile, plan.oh);
  if (plan.ow < 2 * lanes) effective.col_vecs = 1;
  return effective;
}

ConvTileShape tune_isa(BackendKind kind, const ConvLayerPlan& plan, int lanes,
                       const std::int32_t* multiples, std::int64_t* out) {
  // Calibrate the repetition count off one warm default-shape pass so
  // small plans average enough runs to beat timer noise while big
  // plans stay cheap (the whole sweep targets low single-digit
  // milliseconds per plan per ISA).
  const ConvTileShape probe{};
  // Warm caches + branch state.
  (void)detail::conv_run_shaped(kind, plan, multiples, out, probe);
  const double probe_ns =
      measure(kind, plan, multiples, out, probe, /*iters=*/1);
  const int iters = static_cast<int>(
      std::clamp(200000.0 / std::max(probe_ns, 1000.0), 1.0, 64.0));
  ConvTileShape winner = probe;
  double winner_ns = std::numeric_limits<double>::infinity();
  std::vector<ConvTileShape> measured;
  for (const ConvTileShape& shape : kCandidates) {
    const ConvTileShape effective = effective_shape(shape, plan, lanes);
    const auto same = [&](const ConvTileShape& other) {
      return other.row_tile == effective.row_tile &&
             other.col_vecs == effective.col_vecs &&
             other.weight_stationary == effective.weight_stationary;
    };
    if (std::any_of(measured.begin(), measured.end(), same)) continue;
    measured.push_back(effective);
    const double ns = measure(kind, plan, multiples, out, shape, iters);
    if (ns < winner_ns) {
      winner_ns = ns;
      winner = shape;
    }
  }
  return winner;
}

}  // namespace

std::span<const ConvTileShape> conv_tile_candidates() { return kCandidates; }

std::optional<ConvTileShape> env_conv_tile_override() {
  const char* env = std::getenv("MAN_CONV_TILE");
  if (env == nullptr) return std::nullopt;
  const std::string_view value(env);
  if (value.empty() || value == "auto") return std::nullopt;
  if (value == "default") return ConvTileShape{};
  if (value == "ws") {
    ConvTileShape shape;
    shape.weight_stationary = true;
    return shape;
  }
  ConvTileShape shape;
  const std::size_t x = value.find('x');
  bool ok = x != std::string_view::npos && x > 0 && x + 1 < value.size();
  if (ok) {
    const char* begin = value.data();
    auto rows = std::from_chars(begin, begin + x, shape.row_tile);
    auto cols = std::from_chars(begin + x + 1, begin + value.size(),
                                shape.col_vecs);
    ok = rows.ec == std::errc{} && rows.ptr == begin + x &&
         cols.ec == std::errc{} && cols.ptr == begin + value.size();
  }
  if (!ok || !valid_shape(shape)) {
    throw std::invalid_argument(
        "MAN_CONV_TILE: unknown tile \"" + std::string(value) +
        "\" (expected RxC with R 1..8 and C 1..2, ws, default, or auto)");
  }
  return shape;
}

void autotune_conv_plan(ConvLayerPlan& plan) {
  if (plan.exact) return;
  if (const auto forced = env_conv_tile_override()) {
    plan.tile_avx2 = *forced;
    plan.tile_avx512 = *forced;
    plan.tiles_tuned = true;
    return;
  }
  if (plan.positions() < kMinPositions) return;
  std::vector<const detail::VectorKernels*> live;
  for (const BackendKind kind : {BackendKind::kSimd, BackendKind::kAvx512}) {
    const detail::VectorKernels& backend = detail::vector_backend(kind);
    if (backend.accelerated()) live.push_back(&backend);
  }
  if (live.empty()) return;

  // Synthetic staging buffer: kernel time depends on the plan
  // geometry, not the staged values, so any small integers do. The
  // zero region stays genuinely zero, matching real staging.
  std::vector<std::int32_t> multiples(plan.padded_multiples(), 0);
  for (std::size_t i = 0; i < plan.zero_base; ++i) {
    multiples[i] = static_cast<std::int32_t>(i % 251) - 125;
  }
  std::vector<std::int64_t> out(static_cast<std::size_t>(plan.oc) *
                                plan.positions());

  for (const detail::VectorKernels* backend : live) {
    backend->tile(plan) = tune_isa(backend->kind(), plan, backend->lanes(),
                                   multiples.data(), out.data());
  }
  plan.tiles_tuned = true;
}

std::string to_string(const ConvTileShape& shape) {
  if (shape.weight_stationary) return "ws";
  if (shape.row_tile <= 0 && shape.col_vecs <= 0) return "default";
  return std::to_string(shape.row_tile) + "x" +
         std::to_string(shape.col_vecs);
}

}  // namespace man::backend

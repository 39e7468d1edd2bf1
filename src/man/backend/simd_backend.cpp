// Explicit SIMD kernel: 8-wide int32 AVX2 over the quartet planes —
// gather the selected pre-computer multiples, variable-shift them into
// place, apply the sign masks with xor/sub, accumulate, and widen the
// lane sums to int64 on store. Bit-identical to the scalar reference:
// every lane op (logical left shift, two's-complement negation,
// wrapping add) is exact modulo 2^32, only the (commutative) summation
// order differs, and a plan within its magnitude_bound() never leaves
// the int32 range (layer_plan.h).
//
// Compile-time gate: this translation unit is built with -mavx2 and
// MAN_HAVE_AVX2 only when the build enables it (MAN_ENABLE_AVX2, on by
// default, and the compiler supports the flag). Without it — or on a
// CPU whose CPUID lacks AVX2 at runtime — the backend stays registered
// and runs the portable plane loop (shared with the blocked backend),
// so MAN_BACKEND=simd is always safe and always bit-identical.
#include <algorithm>
#include <iterator>
#include <vector>

#include "man/backend/backend_impls.h"
#include "man/backend/planes_kernel.h"

#if defined(MAN_HAVE_AVX2) && defined(__AVX2__)
#include <immintrin.h>
#endif

namespace man::backend::detail {

namespace {

#if defined(MAN_HAVE_AVX2) && defined(__AVX2__)

/// int32 lanes of one 256-bit vector.
inline constexpr int kYmmLanes = 8;
static_assert(kLaneWidth == kYmmLanes, "planes are padded to one ymm");

bool cpu_has_avx2() {
#if defined(__GNUC__) || defined(__clang__)
  return __builtin_cpu_supports("avx2") != 0;
#else
  return false;
#endif
}

std::uint32_t hsum_epi32(__m256i v) {
  __m128i sum = _mm_add_epi32(_mm256_castsi256_si128(v),
                              _mm256_extracti128_si256(v, 1));
  sum = _mm_add_epi32(sum, _mm_shuffle_epi32(sum, _MM_SHUFFLE(1, 0, 3, 2)));
  sum = _mm_add_epi32(sum, _mm_shuffle_epi32(sum, _MM_SHUFFLE(2, 3, 0, 1)));
  return static_cast<std::uint32_t>(_mm_cvtsi128_si32(sum));
}

/// Lane mask selecting the first `live` of 8 int32 lanes.
__m256i lane_mask(int live) {
  return _mm256_cmpgt_epi32(_mm256_set1_epi32(live),
                            _mm256_setr_epi32(0, 1, 2, 3, 4, 5, 6, 7));
}

/// Loads 8 int32 lanes, or only the lanes `mask` selects (the rest read
/// as 0 and are never touched in memory).
template <bool kMasked>
__m256i load_lanes(const std::int32_t* src, [[maybe_unused]] __m256i mask) {
  if constexpr (kMasked) return _mm256_maskload_epi32(src, mask);
  return _mm256_loadu_si256(reinterpret_cast<const __m256i*>(src));
}

/// (t ^ sign) - sign: two's-complement negation under a -1 mask.
__m256i apply_sign(__m256i t, __m256i sign) {
  return _mm256_sub_epi32(_mm256_xor_si256(t, sign), sign);
}

/// The int32 lanes of `v`, sign-extended: lanes 0-3 and 4-7.
__m256i widen_lo(__m256i v) {
  return _mm256_cvtepi32_epi64(_mm256_castsi256_si128(v));
}
__m256i widen_hi(__m256i v) {
  return _mm256_cvtepi32_epi64(_mm256_extracti128_si256(v, 1));
}

/// Writes (kAdd: adds) the first `live` int32 lanes of `v`,
/// sign-extended, to dst[0..live).
template <bool kAdd>
void store_widened(std::int64_t* dst, __m256i v, int live) {
  const __m256i halves[2] = {widen_lo(v), widen_hi(v)};
  for (int h = 0; h < 2; ++h) {
    auto* p = reinterpret_cast<long long*>(dst + 4 * h);
    const int n = std::clamp(live - 4 * h, 0, 4);
    if (n == 4) {
      __m256i value = halves[h];
      if constexpr (kAdd) {
        value = _mm256_add_epi64(
            value, _mm256_loadu_si256(reinterpret_cast<const __m256i*>(p)));
      }
      _mm256_storeu_si256(reinterpret_cast<__m256i*>(p), value);
    } else if (n > 0) {
      const __m256i mask = _mm256_cmpgt_epi64(_mm256_set1_epi64x(n),
                                              _mm256_setr_epi64x(0, 1, 2, 3));
      __m256i value = halves[h];
      if constexpr (kAdd) {
        value = _mm256_add_epi64(value, _mm256_maskload_epi64(p, mask));
      }
      _mm256_maskstore_epi64(p, mask, value);
    }
  }
}

void accumulate_planes_avx2(const DenseLayerPlan& plan,
                            const std::int32_t* multiples,
                            std::int64_t* out) {
  const std::size_t stride = plan.plane_stride();
  const std::uint32_t* idx = plan.idx.data();
  const std::int32_t* shifts = plan.shifts.data();
  const std::int32_t* signs = plan.sign_masks.data();
  const auto* base = reinterpret_cast<const int*>(multiples);
  const auto load = [](const auto* p) {
    return _mm256_loadu_si256(reinterpret_cast<const __m256i*>(p));
  };
  for (int r = 0; r < plan.rows; ++r) {
    const std::size_t row = static_cast<std::size_t>(r) * plan.cols_padded;
    __m256i acc = _mm256_setzero_si256();
    for (int c = 0; c < plan.cols_padded; c += kYmmLanes) {
      const std::size_t cell = row + static_cast<std::size_t>(c);
      __m256i product = _mm256_setzero_si256();
      for (int q = 0; q < plan.planes; ++q) {
        const std::size_t pc = q * stride + cell;
        const __m256i m = _mm256_i32gather_epi32(base, load(idx + pc), 4);
        product =
            _mm256_add_epi32(product, _mm256_sllv_epi32(m, load(shifts + pc)));
      }
      acc = _mm256_add_epi32(acc, apply_sign(product, load(signs + cell)));
    }
    out[r] = widen(static_cast<std::uint32_t>(
                       plan.biases[static_cast<std::size_t>(r)]) +
                   hsum_epi32(acc));
  }
}

/// Batch-as-lanes dense kernel: NV ymm vectors cover the tile's lanes
/// (the last one maskload-limited when lanes % 8 != 0), and every
/// weight step is one broadcast shift of NV plain loads instead of
/// accumulate_planes_avx2's gather per 8 weights of one sample. The
/// block's int32 sums are sign-extended onto `out` once per row.
/// PLANES > 0 fixes the plan's plane count at compile time (the
/// shipped 8/12-bit plans have 1 or 2), which unrolls the step loop;
/// 0 walks plan.planes at run time.
template <int NV, int PLANES>
void dense_batch_avx2(const DenseLayerPlan& plan,
                      const std::int32_t* multiples, int lanes, int col_begin,
                      int col_end, std::int64_t* out) {
  const std::size_t stride = plan.plane_stride();
  const std::uint32_t* idx = plan.idx.data();
  const std::int32_t* shifts = plan.shifts.data();
  const std::int32_t* signs = plan.sign_masks.data();
  const int planes = PLANES > 0 ? PLANES : plan.planes;
  const std::uint32_t zero_slot = plan.zero_slot;
  const auto cols_padded = static_cast<std::size_t>(plan.cols_padded);
  const auto n = static_cast<std::size_t>(lanes);
  const std::uint32_t block_slot = static_cast<std::uint32_t>(col_begin) *
                                   static_cast<std::uint32_t>(plan.k);
  const int tail_lanes = lanes - (NV - 1) * kYmmLanes;
  const __m256i tail = lane_mask(tail_lanes);
  const auto load = [tail](const std::int32_t* src, int v) {
    return v + 1 < NV ? load_lanes<false>(src + v * kYmmLanes, tail)
                      : load_lanes<true>(src + v * kYmmLanes, tail);
  };
  for (int r = 0; r < plan.rows; ++r) {
    const std::size_t row = static_cast<std::size_t>(r) * cols_padded;
    __m256i acc[NV];
    for (int v = 0; v < NV; ++v) acc[v] = _mm256_setzero_si256();
    for (int c = col_begin; c < col_end; ++c) {
      const std::size_t cell = row + static_cast<std::size_t>(c);
      const std::uint32_t first = idx[cell];
      if (first == zero_slot) continue;  // zero-step weight
      __m256i product[NV];
      const __m128i sh0 = _mm_cvtsi32_si128(shifts[cell]);
      const std::int32_t* src0 = multiples + (first - block_slot) * n;
      for (int v = 0; v < NV; ++v) {
        product[v] = _mm256_sll_epi32(load(src0, v), sh0);
      }
      for (int q = 1; q < planes; ++q) {
        const std::size_t pc = q * stride + cell;
        const std::uint32_t cell_idx = idx[pc];
        if (cell_idx == zero_slot) break;  // steps are packed
        const __m128i sh = _mm_cvtsi32_si128(shifts[pc]);
        const std::int32_t* src = multiples + (cell_idx - block_slot) * n;
        for (int v = 0; v < NV; ++v) {
          product[v] =
              _mm256_add_epi32(product[v], _mm256_sll_epi32(load(src, v), sh));
        }
      }
      const __m256i sign = _mm256_set1_epi32(signs[cell]);
      for (int v = 0; v < NV; ++v) {
        acc[v] = _mm256_add_epi32(acc[v], apply_sign(product[v], sign));
      }
    }
    std::int64_t* dst = out + static_cast<std::size_t>(r) * n;
    for (int v = 0; v < NV; ++v) {
      store_widened<true>(dst + v * kYmmLanes, acc[v],
                          v + 1 < NV ? kYmmLanes : tail_lanes);
    }
  }
}

/// Plane-count dispatch for one vector count.
template <int NV>
void dense_batch_planes_avx2(const DenseLayerPlan& plan,
                             const std::int32_t* multiples, int lanes,
                             int col_begin, int col_end, std::int64_t* out) {
  switch (plan.planes) {
    case 1:
      dense_batch_avx2<NV, 1>(plan, multiples, lanes, col_begin, col_end,
                              out);
      break;
    case 2:
      dense_batch_avx2<NV, 2>(plan, multiples, lanes, col_begin, col_end,
                              out);
      break;
    default:
      dense_batch_avx2<NV, 0>(plan, multiples, lanes, col_begin, col_end,
                              out);
  }
}

/// Default conv tile when the plan carries no autotuned shape: 4
/// output rows × one 8-lane column group per pass.
inline constexpr int kConvRowTile = 4;

// Conv kernel vectorized over output *positions*, not weight columns:
// a conv weight fires at every position with the same idx/shift/sign,
// so consecutive positions of one output row share one broadcast
// plan entry — and in the lane-major multiples layout their reads are
// *contiguous*, so the inner step is a plain 256-bit load plus one
// broadcast-count shift (_mm256_sll_epi32); no gather at all. Each
// plan entry additionally feeds a register-blocked grid of RN output
// rows × CN column groups (one vector accumulator each) before the
// walk moves on, so the (often L1-exceeding) plan streams through
// RN·CN·8 times less often. Packed quartet steps let whole absent
// planes (and zero-step weights) skip without touching memory.
/// One tile: RN output rows × CN 8-lane column groups starting at
/// (oy0, ox), every filter. kTail makes it the row tail instead: one
/// column group whose first `live` lanes are real positions — masked
/// loads read nothing past them and masked stores write nothing, so
/// the tail runs the very same lane ops. RN/CN are compile-time
/// constants so the accumulator/product arrays live in ymm registers
/// (shapes near the kMaxConvRowTile × kMaxConvColVecs corner spill;
/// the autotuner simply measures them and moves on).
template <int RN, int CN, bool kTail>
void conv_tile_avx2(const ConvLayerPlan& plan, const std::int32_t* multiples,
                    std::int64_t* out, int oy0, int ox, int live) {
  static_assert(!kTail || CN == 1, "a row tail is one column group");
  const std::size_t stride = plan.plane_stride();
  const std::size_t positions = plan.positions();
  const std::uint32_t* idx = plan.idx.data();
  const std::int32_t* shifts = plan.shifts.data();
  const std::int32_t* signs = plan.sign_masks.data();
  const std::size_t ebase0 = static_cast<std::size_t>(oy0) * plan.iw + ox;
  const __m256i mask = lane_mask(live);
  for (int r = 0; r < plan.oc; ++r) {
    const std::size_t row = static_cast<std::size_t>(r) * plan.cols_padded;
    __m256i acc[RN * CN];
    const __m256i bias = _mm256_set1_epi32(
        static_cast<std::int32_t>(plan.biases[static_cast<std::size_t>(r)]));
    for (int t = 0; t < RN * CN; ++t) acc[t] = bias;
    for (int c = 0; c < plan.cols_padded; ++c) {
      const std::size_t cell = row + static_cast<std::size_t>(c);
      if (idx[cell] == plan.zero_base) continue;  // zero-step weight
      __m256i product[RN * CN];
      for (int t = 0; t < RN * CN; ++t) product[t] = _mm256_setzero_si256();
      for (int q = 0; q < plan.planes; ++q) {
        const std::size_t pc = q * stride + cell;
        const std::uint32_t cell_idx = idx[pc];
        if (cell_idx == plan.zero_base) break;  // steps are packed
        const __m128i sh = _mm_cvtsi32_si128(shifts[pc]);
        const std::int32_t* src = multiples + cell_idx + ebase0;
        for (int ty = 0; ty < RN; ++ty) {
          for (int tx = 0; tx < CN; ++tx) {
            const __m256i m = load_lanes<kTail>(
                src + static_cast<std::size_t>(ty) * plan.iw +
                    static_cast<std::size_t>(tx) * kYmmLanes,
                mask);
            product[ty * CN + tx] = _mm256_add_epi32(
                product[ty * CN + tx], _mm256_sll_epi32(m, sh));
          }
        }
      }
      const __m256i sign = _mm256_set1_epi32(signs[cell]);
      for (int t = 0; t < RN * CN; ++t) {
        acc[t] = _mm256_add_epi32(acc[t], apply_sign(product[t], sign));
      }
    }
    for (int ty = 0; ty < RN; ++ty) {
      for (int tx = 0; tx < CN; ++tx) {
        store_widened<false>(out + static_cast<std::size_t>(r) * positions +
                                 static_cast<std::size_t>(oy0 + ty) * plan.ow +
                                 ox + static_cast<std::size_t>(tx) * kYmmLanes,
                             acc[ty * CN + tx], kTail ? live : kYmmLanes);
      }
    }
  }
}

/// Runtime row count → compile-time RN dispatch for one tile kind.
template <int CN, bool kTail>
void conv_tile_rows_avx2(const ConvLayerPlan& plan,
                         const std::int32_t* multiples, std::int64_t* out,
                         int oy0, int ox, int rn, int live) {
  using Tile = void (*)(const ConvLayerPlan&, const std::int32_t*,
                        std::int64_t*, int, int, int);
  static constexpr Tile kTiles[] = {
      &conv_tile_avx2<1, CN, kTail>, &conv_tile_avx2<2, CN, kTail>,
      &conv_tile_avx2<3, CN, kTail>, &conv_tile_avx2<4, CN, kTail>,
      &conv_tile_avx2<5, CN, kTail>, &conv_tile_avx2<6, CN, kTail>,
      &conv_tile_avx2<7, CN, kTail>, &conv_tile_avx2<8, CN, kTail>};
  static_assert(std::size(kTiles) == kMaxConvRowTile, "extend the table");
  kTiles[std::clamp(rn, 1, kMaxConvRowTile) - 1](plan, multiples, out, oy0, ox,
                                                 live);
}

// Weight-stationary variant: instead of keeping a tile of output
// positions in registers and streaming the plan past it, keep one
// plan entry (idx/shift/sign broadcasts) in registers and stream
// *every* output position past an int32 row of the filter's sums —
// the plan is read exactly once per pass and the output rows become
// the streaming dimension (profitable when the plan dwarfs the output
// tile). Applying the sign per *term* instead of per product is
// exact: two's-complement negation distributes over the wrapping sum,
// so the accumulated bits match the scalar reference.
void conv_ws_avx2(const ConvLayerPlan& plan, const std::int32_t* multiples,
                  std::int64_t* out) {
  const std::size_t stride = plan.plane_stride();
  const std::size_t positions = plan.positions();
  const std::uint32_t* idx = plan.idx.data();
  const std::int32_t* shifts = plan.shifts.data();
  const std::int32_t* signs = plan.sign_masks.data();
  thread_local std::vector<std::int32_t> sums;
  sums.resize(positions);
  const int ow_tail = plan.ow % kYmmLanes;
  const __m256i tail = lane_mask(ow_tail);
  for (int r = 0; r < plan.oc; ++r) {
    std::fill(sums.begin(), sums.end(),
              static_cast<std::int32_t>(
                  plan.biases[static_cast<std::size_t>(r)]));
    const std::size_t row = static_cast<std::size_t>(r) * plan.cols_padded;
    for (int c = 0; c < plan.cols_padded; ++c) {
      const std::size_t cell = row + static_cast<std::size_t>(c);
      if (idx[cell] == plan.zero_base) continue;  // zero-step weight
      const __m256i sign = _mm256_set1_epi32(signs[cell]);
      for (int q = 0; q < plan.planes; ++q) {
        const std::size_t pc = q * stride + cell;
        const std::uint32_t cell_idx = idx[pc];
        if (cell_idx == plan.zero_base) break;  // steps are packed
        const __m128i sh = _mm_cvtsi32_si128(shifts[pc]);
        for (int oy = 0; oy < plan.oh; ++oy) {
          const std::int32_t* src =
              multiples + cell_idx + static_cast<std::size_t>(oy) * plan.iw;
          std::int32_t* drow =
              sums.data() + static_cast<std::size_t>(oy) * plan.ow;
          int ox = 0;
          for (; ox + kYmmLanes <= plan.ow; ox += kYmmLanes) {
            const __m256i t = apply_sign(
                _mm256_sll_epi32(load_lanes<false>(src + ox, tail), sh), sign);
            const __m256i d = load_lanes<false>(drow + ox, tail);
            _mm256_storeu_si256(reinterpret_cast<__m256i*>(drow + ox),
                                _mm256_add_epi32(d, t));
          }
          if (ox < plan.ow) {  // masked row tail
            const __m256i t = apply_sign(
                _mm256_sll_epi32(load_lanes<true>(src + ox, tail), sh), sign);
            const __m256i d = load_lanes<true>(drow + ox, tail);
            _mm256_maskstore_epi32(drow + ox, tail, _mm256_add_epi32(d, t));
          }
        }
      }
    }
    std::int64_t* dst = out + static_cast<std::size_t>(r) * positions;
    std::size_t p = 0;
    for (; p + kYmmLanes <= positions; p += kYmmLanes) {
      store_widened<false>(dst + p, load_lanes<false>(sums.data() + p, tail),
                           kYmmLanes);
    }
    for (; p < positions; ++p) dst[p] = sums[p];
  }
}

void accumulate_conv_avx2_shaped(const ConvLayerPlan& plan,
                                 const std::int32_t* multiples,
                                 std::int64_t* out,
                                 const ConvTileShape& shape) {
  if (shape.weight_stationary) {
    conv_ws_avx2(plan, multiples, out);
    return;
  }
  const int row_tile = shape.row_tile > 0
                           ? std::min(shape.row_tile, kMaxConvRowTile)
                           : kConvRowTile;
  const int col_vecs =
      shape.col_vecs > 0 ? std::min(shape.col_vecs, kMaxConvColVecs) : 1;
  for (int oy0 = 0; oy0 < plan.oh; oy0 += row_tile) {
    const int rn = std::min(row_tile, plan.oh - oy0);
    int ox = 0;
    if (col_vecs >= 2) {
      for (; ox + 2 * kYmmLanes <= plan.ow; ox += 2 * kYmmLanes) {
        conv_tile_rows_avx2<2, false>(plan, multiples, out, oy0, ox, rn,
                                      kYmmLanes);
      }
    }
    for (; ox + kYmmLanes <= plan.ow; ox += kYmmLanes) {
      conv_tile_rows_avx2<1, false>(plan, multiples, out, oy0, ox, rn,
                                    kYmmLanes);
    }
    // Row tail (ow % 8 positions): one lane-masked partial vector.
    if (ox < plan.ow) {
      conv_tile_rows_avx2<1, true>(plan, multiples, out, oy0, ox, rn,
                                   plan.ow - ox);
    }
  }
}

#endif  // MAN_HAVE_AVX2 && __AVX2__

/// min_batch_lanes() of the live AVX2 path; see docs/backends.md.
inline constexpr int kAvx2MinBatchLanes = 7;

class SimdBackend final : public KernelBackend {
 public:
  SimdBackend() {
#if defined(MAN_HAVE_AVX2) && defined(__AVX2__)
    avx2_ = cpu_has_avx2();
#endif
  }

  [[nodiscard]] BackendKind kind() const noexcept override {
    return BackendKind::kSimd;
  }
  [[nodiscard]] const char* name() const noexcept override { return "simd"; }
  [[nodiscard]] const char* description() const noexcept override {
#if defined(MAN_HAVE_AVX2) && defined(__AVX2__)
    return avx2_ ? "AVX2 int32 gather/sllv over SoA quartet planes"
                 : "portable fallback (CPU lacks AVX2)";
#else
    return "portable fallback (built without AVX2)";
#endif
  }
  [[nodiscard]] bool accelerated() const noexcept override { return avx2_; }

  void accumulate_dense(const DenseLayerPlan& plan,
                        const std::int32_t* multiples,
                        std::int64_t* out) const override {
#if defined(MAN_HAVE_AVX2) && defined(__AVX2__)
    if (avx2_) {
      accumulate_planes_avx2(plan, multiples, out);
      return;
    }
#endif
    accumulate_planes(plan, multiples, out);
  }

  void accumulate_dense_batch(const DenseLayerPlan& plan,
                              const std::int32_t* multiples, int lanes,
                              int col_begin, int col_end,
                              std::int64_t* out) const override {
#if defined(MAN_HAVE_AVX2) && defined(__AVX2__)
    static_assert(kMaxBatchLanes == 4 * kYmmLanes, "extend the dispatch");
    if (avx2_) {
      switch ((lanes + kYmmLanes - 1) / kYmmLanes) {
        case 1:
          dense_batch_planes_avx2<1>(plan, multiples, lanes, col_begin,
                                     col_end, out);
          break;
        case 2:
          dense_batch_planes_avx2<2>(plan, multiples, lanes, col_begin,
                                     col_end, out);
          break;
        case 3:
          dense_batch_planes_avx2<3>(plan, multiples, lanes, col_begin,
                                     col_end, out);
          break;
        default:
          dense_batch_planes_avx2<4>(plan, multiples, lanes, col_begin,
                                     col_end, out);
      }
      return;
    }
#endif
    accumulate_dense_batch_planes(plan, multiples, lanes, col_begin, col_end,
                                  out);
  }

  [[nodiscard]] int min_batch_lanes() const noexcept override {
    return avx2_ ? kAvx2MinBatchLanes : kPortableMinBatchLanes;
  }

  void exact_dense(const DenseLayerPlan& plan,
                   const std::int64_t* activations,
                   std::int64_t* out) const override {
    // 64-bit products have no AVX2 multiplier; the blocked loop is
    // already the right shape for the compiler here.
    exact_dense_blocked(plan, activations, out);
  }

  void accumulate_conv(const ConvLayerPlan& plan,
                       const std::int32_t* multiples,
                       std::int64_t* out) const override {
#if defined(MAN_HAVE_AVX2) && defined(__AVX2__)
    if (avx2_) {
      accumulate_conv_avx2_shaped(plan, multiples, out, plan.tile_avx2);
      return;
    }
#endif
    accumulate_conv_planes(plan, multiples, out);
  }

  void exact_conv(const ConvLayerPlan& plan,
                  const std::int64_t* activations,
                  std::int64_t* out) const override {
    // Same reasoning as exact_dense: no 64-bit AVX2 multiplier.
    exact_conv_blocked(plan, activations, out);
  }

 private:
  bool avx2_ = false;
};

}  // namespace

const KernelBackend& simd_backend() {
  static const SimdBackend backend;
  return backend;
}

bool conv_run_shaped_avx2(const ConvLayerPlan& plan,
                          const std::int32_t* multiples, std::int64_t* out,
                          const ConvTileShape& shape) {
#if defined(MAN_HAVE_AVX2) && defined(__AVX2__)
  if (simd_backend().accelerated()) {
    accumulate_conv_avx2_shaped(plan, multiples, out, shape);
    return true;
  }
#else
  (void)plan;
  (void)multiples;
  (void)out;
  (void)shape;
#endif
  return false;
}

}  // namespace man::backend::detail

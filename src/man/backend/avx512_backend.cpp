// AVX-512 kernel: 16-wide int32 over the quartet planes — the AVX2
// backend's structure at twice the vector width (zmm position tiles
// for conv, 16-lane gathers for dense) plus the deeper register file
// (32 zmm) that makes taller row tiles profitable, plus lane masking
// for ragged row and batch tails (no scalar remainder; a 10-wide conv
// row is one masked vector). Bit-identical to the scalar reference for
// the same reason the AVX2 kernel is: every lane op (logical left
// shift, two's-complement negation, wrapping add) is exact modulo
// 2^32, only the commutative summation order differs, and a plan
// within its magnitude_bound() never leaves the int32 range. The CSHM
// datapath is shift-add, so there is no multiply for AVX-512VNNI to
// fuse.
//
// Compile-time gate: this translation unit is built with -mavx512f
// -mavx512vl and MAN_HAVE_AVX512 only when the build enables it
// (MAN_ENABLE_AVX512, on by default, and the compiler supports the
// flags). Without it — or on a CPU whose CPUID lacks AVX-512F/VL at
// runtime — the backend stays registered and runs the portable plane
// loop (shared with the blocked backend), so MAN_BACKEND=avx512 is
// always safe and always bit-identical.
#include <algorithm>
#include <iterator>
#include <vector>

#include "man/backend/backend_impls.h"
#include "man/backend/planes_kernel.h"

#if defined(MAN_HAVE_AVX512) && defined(__AVX512F__) && defined(__AVX512VL__)
#include <immintrin.h>
#endif

namespace man::backend::detail {

namespace {

#if defined(MAN_HAVE_AVX512) && defined(__AVX512F__) && defined(__AVX512VL__)

/// int32 lanes of one 512-bit vector.
inline constexpr int kZmmLanes = 16;

bool cpu_has_avx512() {
#if defined(__GNUC__) || defined(__clang__)
  return __builtin_cpu_supports("avx512f") != 0 &&
         __builtin_cpu_supports("avx512vl") != 0;
#else
  return false;
#endif
}

/// Mask selecting the first `live` (0..16) of 16 lanes.
__mmask16 lane_mask(int live) {
  return static_cast<__mmask16>((1u << live) - 1u);
}

/// Wrapping sum of the 16 int32 lanes (vector adds throughout: GCC's
/// _mm512_reduce_add_epi32 finishes in signed scalar arithmetic, which
/// must not wrap).
std::uint32_t hsum_epi32(__m512i v) {
  const __m256i half =
      _mm256_add_epi32(_mm512_maskz_extracti64x4_epi64(0xF, v, 0),
                       _mm512_maskz_extracti64x4_epi64(0xF, v, 1));
  __m128i sum = _mm_add_epi32(_mm256_castsi256_si128(half),
                              _mm256_extracti128_si256(half, 1));
  sum = _mm_add_epi32(sum, _mm_shuffle_epi32(sum, _MM_SHUFFLE(1, 0, 3, 2)));
  sum = _mm_add_epi32(sum, _mm_shuffle_epi32(sum, _MM_SHUFFLE(2, 3, 0, 1)));
  return static_cast<std::uint32_t>(_mm_cvtsi128_si32(sum));
}

/// (t ^ sign) - sign: two's-complement negation under a -1 mask.
__m512i apply_sign(__m512i t, __m512i sign) {
  return _mm512_sub_epi32(_mm512_xor_si512(t, sign), sign);
}

/// Writes (kAdd: adds) the int32 lanes of `v` that `mask` selects,
/// sign-extended, to the int64 slots dst[0..16).
template <bool kAdd>
void store_widened(std::int64_t* dst, __m512i v, __mmask16 mask) {
  // Zero-masked extracts: the plain cast/extract intrinsics of GCC 12
  // read an "undefined" vector that -Wuninitialized flags once the
  // sanitizers change inlining.
  const __m512i halves[2] = {
      _mm512_cvtepi32_epi64(_mm512_maskz_extracti64x4_epi64(0xF, v, 0)),
      _mm512_cvtepi32_epi64(_mm512_maskz_extracti64x4_epi64(0xF, v, 1))};
  for (int h = 0; h < 2; ++h) {
    const auto m = static_cast<__mmask8>(mask >> (8 * h));
    if (m == 0) continue;
    __m512i value = halves[h];
    if constexpr (kAdd) {
      value = _mm512_add_epi64(value, _mm512_maskz_loadu_epi64(m, dst + 8 * h));
    }
    _mm512_mask_storeu_epi64(dst + 8 * h, m, value);
  }
}

void accumulate_planes_avx512(const DenseLayerPlan& plan,
                              const std::int32_t* multiples,
                              std::int64_t* out) {
  const std::size_t stride = plan.plane_stride();
  const std::uint32_t* idx = plan.idx.data();
  const std::int32_t* shifts = plan.shifts.data();
  const std::int32_t* signs = plan.sign_masks.data();
  for (int r = 0; r < plan.rows; ++r) {
    const std::size_t row = static_cast<std::size_t>(r) * plan.cols_padded;
    __m512i acc = _mm512_setzero_si512();
    // cols_padded is a multiple of kLaneWidth (8), not 16: the last
    // group of a row may be a half-masked vector.
    for (int c = 0; c < plan.cols_padded; c += kZmmLanes) {
      const std::size_t cell = row + static_cast<std::size_t>(c);
      const __mmask16 live =
          lane_mask(std::min(kZmmLanes, plan.cols_padded - c));
      __m512i product = _mm512_setzero_si512();
      for (int q = 0; q < plan.planes; ++q) {
        const std::size_t pc = q * stride + cell;
        const __m512i vidx = _mm512_maskz_loadu_epi32(live, idx + pc);
        const __m512i m = _mm512_mask_i32gather_epi32(
            _mm512_setzero_si512(), live, vidx, multiples, 4);
        const __m512i sh = _mm512_maskz_loadu_epi32(live, shifts + pc);
        product = _mm512_add_epi32(product, _mm512_sllv_epi32(m, sh));
      }
      const __m512i sign = _mm512_maskz_loadu_epi32(live, signs + cell);
      acc = _mm512_add_epi32(acc, apply_sign(product, sign));
    }
    out[r] = widen(static_cast<std::uint32_t>(
                       plan.biases[static_cast<std::size_t>(r)]) +
                   hsum_epi32(acc));
  }
}

/// Batch-as-lanes dense kernel: NV zmm vectors cover the tile's lanes
/// (the last one lane-masked when lanes % 16 != 0, so a ragged tile
/// needs no scalar tail), and every weight step is one broadcast-count
/// shift of NV plain loads — the conv position tile with samples for
/// positions, where accumulate_planes_avx512 spends a gather per 16
/// weights of one sample. The block's int32 sums are sign-extended
/// onto `out` once per row. PLANES > 0 fixes the plan's plane count at
/// compile time (the shipped 8/12-bit plans have 1 or 2), which
/// unrolls the step loop; 0 walks plan.planes at run time.
template <int NV, int PLANES>
void dense_batch_avx512(const DenseLayerPlan& plan,
                        const std::int32_t* multiples, int lanes,
                        int col_begin, int col_end, std::int64_t* out) {
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
  const __mmask16 tail = lane_mask(lanes - (NV - 1) * kZmmLanes);
  const auto load = [tail](const std::int32_t* src, int v) {
    return v + 1 < NV ? _mm512_loadu_si512(src + v * kZmmLanes)
                      : _mm512_maskz_loadu_epi32(tail, src + v * kZmmLanes);
  };
  for (int r = 0; r < plan.rows; ++r) {
    const std::size_t row = static_cast<std::size_t>(r) * cols_padded;
    __m512i acc[NV];
    for (int v = 0; v < NV; ++v) acc[v] = _mm512_setzero_si512();
    for (int c = col_begin; c < col_end; ++c) {
      const std::size_t cell = row + static_cast<std::size_t>(c);
      const std::uint32_t first = idx[cell];
      if (first == zero_slot) continue;  // zero-step weight
      __m512i product[NV];
      const __m128i sh0 = _mm_cvtsi32_si128(shifts[cell]);
      const std::int32_t* src0 = multiples + (first - block_slot) * n;
      for (int v = 0; v < NV; ++v) {
        product[v] = _mm512_sll_epi32(load(src0, v), sh0);
      }
      for (int q = 1; q < planes; ++q) {
        const std::size_t pc = q * stride + cell;
        const std::uint32_t cell_idx = idx[pc];
        if (cell_idx == zero_slot) break;  // steps are packed
        const __m128i sh = _mm_cvtsi32_si128(shifts[pc]);
        const std::int32_t* src = multiples + (cell_idx - block_slot) * n;
        for (int v = 0; v < NV; ++v) {
          product[v] =
              _mm512_add_epi32(product[v], _mm512_sll_epi32(load(src, v), sh));
        }
      }
      const __m512i sign = _mm512_set1_epi32(signs[cell]);
      for (int v = 0; v < NV; ++v) {
        acc[v] = _mm512_add_epi32(acc[v], apply_sign(product[v], sign));
      }
    }
    std::int64_t* dst = out + static_cast<std::size_t>(r) * n;
    for (int v = 0; v < NV; ++v) {
      store_widened<true>(dst + v * kZmmLanes, acc[v],
                          v + 1 < NV ? lane_mask(kZmmLanes) : tail);
    }
  }
}

/// Plane-count dispatch for one vector count.
template <int NV>
void dense_batch_planes_avx512(const DenseLayerPlan& plan,
                               const std::int32_t* multiples, int lanes,
                               int col_begin, int col_end, std::int64_t* out) {
  switch (plan.planes) {
    case 1:
      dense_batch_avx512<NV, 1>(plan, multiples, lanes, col_begin, col_end,
                                out);
      break;
    case 2:
      dense_batch_avx512<NV, 2>(plan, multiples, lanes, col_begin, col_end,
                                out);
      break;
    default:
      dense_batch_avx512<NV, 0>(plan, multiples, lanes, col_begin, col_end,
                                out);
  }
}

/// Default conv tile when the plan carries no autotuned shape: with
/// 32 zmm registers a deeper row tile than the AVX2 default pays for
/// itself before the autotuner has spoken.
inline constexpr int kConvRowTile512 = 6;

/// One tile: RN output rows × CN 16-lane column groups starting at
/// (oy0, ox), every filter — conv_tile_avx2 at zmm width. kTail makes
/// it the row tail: one column group of `live` positions under a lane
/// mask (masked-out lanes are neither read nor written; active lanes
/// run the exact same ops), where the AVX2 kernel's narrower vectors
/// would leave more positions to a second tail.
template <int RN, int CN, bool kTail>
void conv_tile_avx512(const ConvLayerPlan& plan,
                      const std::int32_t* multiples, std::int64_t* out,
                      int oy0, int ox, int live) {
  static_assert(!kTail || CN == 1, "a row tail is one column group");
  const std::size_t stride = plan.plane_stride();
  const std::size_t positions = plan.positions();
  const std::uint32_t* idx = plan.idx.data();
  const std::int32_t* shifts = plan.shifts.data();
  const std::int32_t* signs = plan.sign_masks.data();
  const std::size_t ebase0 = static_cast<std::size_t>(oy0) * plan.iw + ox;
  const __mmask16 mask = lane_mask(live);
  for (int r = 0; r < plan.oc; ++r) {
    const std::size_t row = static_cast<std::size_t>(r) * plan.cols_padded;
    __m512i acc[RN * CN];
    const __m512i bias = _mm512_set1_epi32(
        static_cast<std::int32_t>(plan.biases[static_cast<std::size_t>(r)]));
    for (int t = 0; t < RN * CN; ++t) acc[t] = bias;
    for (int c = 0; c < plan.cols_padded; ++c) {
      const std::size_t cell = row + static_cast<std::size_t>(c);
      if (idx[cell] == plan.zero_base) continue;  // zero-step weight
      __m512i product[RN * CN];
      for (int t = 0; t < RN * CN; ++t) product[t] = _mm512_setzero_si512();
      for (int q = 0; q < plan.planes; ++q) {
        const std::size_t pc = q * stride + cell;
        const std::uint32_t cell_idx = idx[pc];
        if (cell_idx == plan.zero_base) break;  // steps are packed
        const __m128i sh = _mm_cvtsi32_si128(shifts[pc]);
        const std::int32_t* src = multiples + cell_idx + ebase0;
        for (int ty = 0; ty < RN; ++ty) {
          for (int tx = 0; tx < CN; ++tx) {
            const std::int32_t* p = src +
                                    static_cast<std::size_t>(ty) * plan.iw +
                                    static_cast<std::size_t>(tx) * kZmmLanes;
            const __m512i m = kTail ? _mm512_maskz_loadu_epi32(mask, p)
                                    : _mm512_loadu_si512(p);
            product[ty * CN + tx] = _mm512_add_epi32(
                product[ty * CN + tx], _mm512_sll_epi32(m, sh));
          }
        }
      }
      const __m512i sign = _mm512_set1_epi32(signs[cell]);
      for (int t = 0; t < RN * CN; ++t) {
        acc[t] = _mm512_add_epi32(acc[t], apply_sign(product[t], sign));
      }
    }
    for (int ty = 0; ty < RN; ++ty) {
      for (int tx = 0; tx < CN; ++tx) {
        store_widened<false>(out + static_cast<std::size_t>(r) * positions +
                                 static_cast<std::size_t>(oy0 + ty) * plan.ow +
                                 ox + static_cast<std::size_t>(tx) * kZmmLanes,
                             acc[ty * CN + tx], mask);
      }
    }
  }
}

/// Runtime row count → compile-time RN dispatch for one tile kind.
template <int CN, bool kTail>
void conv_tile_rows_avx512(const ConvLayerPlan& plan,
                           const std::int32_t* multiples, std::int64_t* out,
                           int oy0, int ox, int rn, int live) {
  using Tile = void (*)(const ConvLayerPlan&, const std::int32_t*,
                        std::int64_t*, int, int, int);
  static constexpr Tile kTiles[] = {
      &conv_tile_avx512<1, CN, kTail>, &conv_tile_avx512<2, CN, kTail>,
      &conv_tile_avx512<3, CN, kTail>, &conv_tile_avx512<4, CN, kTail>,
      &conv_tile_avx512<5, CN, kTail>, &conv_tile_avx512<6, CN, kTail>,
      &conv_tile_avx512<7, CN, kTail>, &conv_tile_avx512<8, CN, kTail>};
  static_assert(std::size(kTiles) == kMaxConvRowTile, "extend the table");
  kTiles[std::clamp(rn, 1, kMaxConvRowTile) - 1](plan, multiples, out, oy0, ox,
                                                 live);
}

// Weight-stationary variant at zmm width — see conv_ws_avx2 for the
// shape and the per-term sign-distribution bit-exactness argument.
void conv_ws_avx512(const ConvLayerPlan& plan, const std::int32_t* multiples,
                    std::int64_t* out) {
  const std::size_t stride = plan.plane_stride();
  const std::size_t positions = plan.positions();
  const std::uint32_t* idx = plan.idx.data();
  const std::int32_t* shifts = plan.shifts.data();
  const std::int32_t* signs = plan.sign_masks.data();
  thread_local std::vector<std::int32_t> sums;
  sums.resize(positions);
  for (int r = 0; r < plan.oc; ++r) {
    std::fill(sums.begin(), sums.end(),
              static_cast<std::int32_t>(
                  plan.biases[static_cast<std::size_t>(r)]));
    const std::size_t row = static_cast<std::size_t>(r) * plan.cols_padded;
    for (int c = 0; c < plan.cols_padded; ++c) {
      const std::size_t cell = row + static_cast<std::size_t>(c);
      if (idx[cell] == plan.zero_base) continue;  // zero-step weight
      const __m512i sign = _mm512_set1_epi32(signs[cell]);
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
          for (int ox = 0; ox < plan.ow; ox += kZmmLanes) {
            const __mmask16 live =
                lane_mask(std::min(kZmmLanes, plan.ow - ox));
            const __m512i t = apply_sign(
                _mm512_sll_epi32(_mm512_maskz_loadu_epi32(live, src + ox), sh),
                sign);
            const __m512i d = _mm512_maskz_loadu_epi32(live, drow + ox);
            _mm512_mask_storeu_epi32(drow + ox, live, _mm512_add_epi32(d, t));
          }
        }
      }
    }
    std::int64_t* dst = out + static_cast<std::size_t>(r) * positions;
    for (std::size_t p = 0; p < positions; p += kZmmLanes) {
      const __mmask16 live = lane_mask(
          static_cast<int>(std::min<std::size_t>(kZmmLanes, positions - p)));
      store_widened<false>(dst + p,
                           _mm512_maskz_loadu_epi32(live, sums.data() + p),
                           live);
    }
  }
}

void accumulate_conv_avx512_shaped(const ConvLayerPlan& plan,
                                   const std::int32_t* multiples,
                                   std::int64_t* out,
                                   const ConvTileShape& shape) {
  if (shape.weight_stationary) {
    conv_ws_avx512(plan, multiples, out);
    return;
  }
  const int row_tile = shape.row_tile > 0
                           ? std::min(shape.row_tile, kMaxConvRowTile)
                           : kConvRowTile512;
  const int col_vecs =
      shape.col_vecs > 0 ? std::min(shape.col_vecs, kMaxConvColVecs) : 1;
  for (int oy0 = 0; oy0 < plan.oh; oy0 += row_tile) {
    const int rn = std::min(row_tile, plan.oh - oy0);
    int ox = 0;
    if (col_vecs >= 2) {
      for (; ox + 2 * kZmmLanes <= plan.ow; ox += 2 * kZmmLanes) {
        conv_tile_rows_avx512<2, false>(plan, multiples, out, oy0, ox, rn,
                                        kZmmLanes);
      }
    }
    for (; ox + kZmmLanes <= plan.ow; ox += kZmmLanes) {
      conv_tile_rows_avx512<1, false>(plan, multiples, out, oy0, ox, rn,
                                      kZmmLanes);
    }
    // Row tail (ow % 16 positions): one lane-masked partial vector.
    if (ox < plan.ow) {
      conv_tile_rows_avx512<1, true>(plan, multiples, out, oy0, ox, rn,
                                     plan.ow - ox);
    }
  }
}

#endif  // MAN_HAVE_AVX512 && __AVX512F__ && __AVX512VL__

/// min_batch_lanes() of the live AVX-512 path; see docs/backends.md.
inline constexpr int kAvx512MinBatchLanes = 6;

class Avx512Backend final : public KernelBackend {
 public:
  Avx512Backend() {
#if defined(MAN_HAVE_AVX512) && defined(__AVX512F__) && defined(__AVX512VL__)
    avx512_ = cpu_has_avx512();
#endif
  }

  [[nodiscard]] BackendKind kind() const noexcept override {
    return BackendKind::kAvx512;
  }
  [[nodiscard]] const char* name() const noexcept override {
    return "avx512";
  }
  [[nodiscard]] const char* description() const noexcept override {
#if defined(MAN_HAVE_AVX512) && defined(__AVX512F__) && defined(__AVX512VL__)
    return avx512_ ? "AVX-512F/VL 16-lane int32 tiles over SoA planes"
                   : "portable fallback (CPU lacks AVX-512F/VL)";
#else
    return "portable fallback (built without AVX-512)";
#endif
  }
  [[nodiscard]] bool accelerated() const noexcept override {
    return avx512_;
  }

  void accumulate_dense(const DenseLayerPlan& plan,
                        const std::int32_t* multiples,
                        std::int64_t* out) const override {
#if defined(MAN_HAVE_AVX512) && defined(__AVX512F__) && defined(__AVX512VL__)
    if (avx512_) {
      accumulate_planes_avx512(plan, multiples, out);
      return;
    }
#endif
    accumulate_planes(plan, multiples, out);
  }

  void accumulate_dense_batch(const DenseLayerPlan& plan,
                              const std::int32_t* multiples, int lanes,
                              int col_begin, int col_end,
                              std::int64_t* out) const override {
#if defined(MAN_HAVE_AVX512) && defined(__AVX512F__) && defined(__AVX512VL__)
    static_assert(kMaxBatchLanes == 2 * kZmmLanes, "extend the dispatch");
    if (avx512_) {
      if (lanes <= kZmmLanes) {
        dense_batch_planes_avx512<1>(plan, multiples, lanes, col_begin,
                                     col_end, out);
      } else {
        dense_batch_planes_avx512<2>(plan, multiples, lanes, col_begin,
                                     col_end, out);
      }
      return;
    }
#endif
    accumulate_dense_batch_planes(plan, multiples, lanes, col_begin, col_end,
                                  out);
  }

  [[nodiscard]] int min_batch_lanes() const noexcept override {
    return avx512_ ? kAvx512MinBatchLanes : kPortableMinBatchLanes;
  }

  void exact_dense(const DenseLayerPlan& plan,
                   const std::int64_t* activations,
                   std::int64_t* out) const override {
    // 64-bit products need AVX-512DQ's vpmullq; gating on F/VL only,
    // the blocked loop is the right shape for the compiler here.
    exact_dense_blocked(plan, activations, out);
  }

  void accumulate_conv(const ConvLayerPlan& plan,
                       const std::int32_t* multiples,
                       std::int64_t* out) const override {
#if defined(MAN_HAVE_AVX512) && defined(__AVX512F__) && defined(__AVX512VL__)
    if (avx512_) {
      accumulate_conv_avx512_shaped(plan, multiples, out, plan.tile_avx512);
      return;
    }
#endif
    accumulate_conv_planes(plan, multiples, out);
  }

  void exact_conv(const ConvLayerPlan& plan,
                  const std::int64_t* activations,
                  std::int64_t* out) const override {
    // Same reasoning as exact_dense: no 64-bit multiplier without DQ.
    exact_conv_blocked(plan, activations, out);
  }

 private:
  bool avx512_ = false;
};

}  // namespace

const KernelBackend& avx512_backend() {
  static const Avx512Backend backend;
  return backend;
}

bool conv_run_shaped_avx512(const ConvLayerPlan& plan,
                            const std::int32_t* multiples, std::int64_t* out,
                            const ConvTileShape& shape) {
#if defined(MAN_HAVE_AVX512) && defined(__AVX512F__) && defined(__AVX512VL__)
  if (avx512_backend().accelerated()) {
    accumulate_conv_avx512_shaped(plan, multiples, out, shape);
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

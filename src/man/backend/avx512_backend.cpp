// The AVX-512 backend: the vector kernel family (vector_kernels.h) at
// 16 int32 lanes of AVX-512F/VL — twice the AVX2 width, k-register
// lane masks for ragged row and batch tails (a 10-wide conv row is one
// masked vector), and the 32-register file that makes its deeper
// default row tile pay. The CSHM datapath is shift-add, so there is
// no multiply for AVX-512VNNI to fuse.
//
// Compile-time gate: this translation unit is built with -mavx512f
// -mavx512vl and MAN_HAVE_AVX512 only when the build enables it
// (MAN_ENABLE_AVX512, on by default, and the compiler supports the
// flags). Without it — or on a CPU whose CPUID lacks AVX-512F/VL at
// runtime — the backend is the blocked backend under the name
// "avx512" (VectorKernels, compiled at the default ISA), so
// MAN_BACKEND=avx512 is safe on any host and bit-identical.
#include "man/backend/backend_impls.h"

#if defined(MAN_HAVE_AVX512) && defined(__AVX512F__) && defined(__AVX512VL__)
#include <immintrin.h>

#include "man/backend/vector_kernels.h"
#endif

namespace man::backend::detail {

#if defined(MAN_HAVE_AVX512) && defined(__AVX512F__) && defined(__AVX512VL__)

namespace {

struct Avx512 {
  using Vec = __m512i;
  using Mask = __mmask16;
  static constexpr int kLanes = 16;
  static constexpr int kConvRowTile = 6;
  static constexpr int kMinBatchLanes = 6;

  static Vec zero() { return _mm512_setzero_si512(); }
  static Vec set1(std::int32_t x) { return _mm512_set1_epi32(x); }
  static Vec load(const std::int32_t* p) { return _mm512_loadu_si512(p); }
  static Vec load(const std::int32_t* p, Mask m) {
    return _mm512_maskz_loadu_epi32(m, p);
  }
  static Mask lane_mask(int live) {
    return static_cast<Mask>((1u << live) - 1u);
  }
  static Vec sll(Vec v, std::int32_t n) {
    return _mm512_sll_epi32(v, _mm_cvtsi32_si128(n));
  }
  static Vec sllv(Vec v, Vec n) { return _mm512_sllv_epi32(v, n); }
  static Vec gather(const std::int32_t* base, Vec idx, Mask m) {
    return _mm512_mask_i32gather_epi32(zero(), m, idx, base, 4);
  }
  static Vec add(Vec a, Vec b) { return _mm512_add_epi32(a, b); }
  static Vec apply_sign(Vec t, Vec sign) {
    return _mm512_sub_epi32(_mm512_xor_si512(t, sign), sign);
  }
  /// Vector adds throughout: GCC's _mm512_reduce_add_epi32 finishes in
  /// signed scalar arithmetic, which must not wrap.
  static std::uint32_t hsum(Vec v) {
    const __m256i half = _mm256_add_epi32(half256(v, 0), half256(v, 1));
    __m128i sum = _mm_add_epi32(_mm256_castsi256_si128(half),
                                _mm256_extracti128_si256(half, 1));
    sum = _mm_add_epi32(sum, _mm_shuffle_epi32(sum, _MM_SHUFFLE(1, 0, 3, 2)));
    sum = _mm_add_epi32(sum, _mm_shuffle_epi32(sum, _MM_SHUFFLE(2, 3, 0, 1)));
    return static_cast<std::uint32_t>(_mm_cvtsi128_si32(sum));
  }
  static void store(std::int32_t* p, Vec v) { _mm512_storeu_si512(p, v); }
  static void store(std::int32_t* p, Vec v, Mask m) {
    _mm512_mask_storeu_epi32(p, m, v);
  }
  /// Lanes 0-7 (h = 0) or 8-15 (h = 1) of `v`. Zero-masked extracts:
  /// the plain cast/extract intrinsics of GCC 12 read an "undefined"
  /// vector that -Wuninitialized flags once the sanitizers change
  /// inlining.
  static __m256i half256(Vec v, int h) {
    return h == 0 ? _mm512_maskz_extracti64x4_epi64(0xF, v, 0)
                  : _mm512_maskz_extracti64x4_epi64(0xF, v, 1);
  }
  template <bool kAdd>
  static void store_widened(std::int64_t* dst, Vec v) {
    store_widened<kAdd>(dst, v, lane_mask(kLanes));
  }
  template <bool kAdd>
  static void store_widened(std::int64_t* dst, Vec v, Mask m) {
    for (int h = 0; h < 2; ++h) {
      const auto half_mask = static_cast<__mmask8>(m >> (8 * h));
      if (half_mask == 0) continue;
      __m512i value = _mm512_cvtepi32_epi64(half256(v, h));
      if constexpr (kAdd) {
        value = _mm512_add_epi64(
            value, _mm512_maskz_loadu_epi64(half_mask, dst + 8 * h));
      }
      _mm512_mask_storeu_epi64(dst + 8 * h, half_mask, value);
    }
  }
};

}  // namespace

const VectorKernels& avx512_backend() {
  static const bool live = __builtin_cpu_supports("avx512f") != 0 &&
                           __builtin_cpu_supports("avx512vl") != 0;
  if (live) {
    static const VectorBackend<Avx512> backend(
        BackendKind::kAvx512,
        "AVX-512F/VL 16-lane int32 tiles over SoA planes");
    return backend;
  }
  static const VectorKernels fallback(
      BackendKind::kAvx512, "portable fallback (CPU lacks AVX-512F/VL)");
  return fallback;
}

#else

const VectorKernels& avx512_backend() {
  static const VectorKernels fallback(
      BackendKind::kAvx512, "portable fallback (built without AVX-512)");
  return fallback;
}

#endif  // MAN_HAVE_AVX512 && __AVX512F__ && __AVX512VL__

}  // namespace man::backend::detail

// The SIMD backend: the vector kernel family (vector_kernels.h) at 8
// int32 lanes of AVX2 — dense gathers and variable shifts, conv
// position tiles of contiguous 256-bit loads, lane masks from
// vpmaskmovd.
//
// Compile-time gate: this translation unit is built with -mavx2 and
// MAN_HAVE_AVX2 only when the build enables it (MAN_ENABLE_AVX2, on by
// default, and the compiler supports the flag). Without it — or on a
// CPU whose CPUID lacks AVX2 at runtime — the backend is the blocked
// backend under the name "simd" (VectorKernels, compiled at the
// default ISA), so MAN_BACKEND=simd is safe on any host and
// bit-identical.
#include "man/backend/backend_impls.h"

#if defined(MAN_HAVE_AVX2) && defined(__AVX2__)
#include <immintrin.h>

#include "man/backend/vector_kernels.h"
#endif

namespace man::backend::detail {

#if defined(MAN_HAVE_AVX2) && defined(__AVX2__)

namespace {

struct Avx2 {
  using Vec = __m256i;
  using Mask = __m256i;  // -1 in every selected int32 lane
  static constexpr int kLanes = 8;
  static constexpr int kConvRowTile = 4;
  static constexpr int kMinBatchLanes = 7;

  static Vec zero() { return _mm256_setzero_si256(); }
  static Vec set1(std::int32_t x) { return _mm256_set1_epi32(x); }
  static Vec load(const std::int32_t* p) {
    return _mm256_loadu_si256(reinterpret_cast<const __m256i*>(p));
  }
  static Vec load(const std::int32_t* p, Mask m) {
    return _mm256_maskload_epi32(p, m);
  }
  static Mask lane_mask(int live) {
    return _mm256_cmpgt_epi32(_mm256_set1_epi32(live),
                              _mm256_setr_epi32(0, 1, 2, 3, 4, 5, 6, 7));
  }
  static Vec sll(Vec v, std::int32_t n) {
    return _mm256_sll_epi32(v, _mm_cvtsi32_si128(n));
  }
  static Vec sllv(Vec v, Vec n) { return _mm256_sllv_epi32(v, n); }
  static Vec gather(const std::int32_t* base, Vec idx, Mask m) {
    return _mm256_mask_i32gather_epi32(zero(), base, idx, m, 4);
  }
  static Vec add(Vec a, Vec b) { return _mm256_add_epi32(a, b); }
  static Vec apply_sign(Vec t, Vec sign) {
    return _mm256_sub_epi32(_mm256_xor_si256(t, sign), sign);
  }
  static std::uint32_t hsum(Vec v) {
    __m128i sum = _mm_add_epi32(_mm256_castsi256_si128(v),
                                _mm256_extracti128_si256(v, 1));
    sum = _mm_add_epi32(sum, _mm_shuffle_epi32(sum, _MM_SHUFFLE(1, 0, 3, 2)));
    sum = _mm_add_epi32(sum, _mm_shuffle_epi32(sum, _MM_SHUFFLE(2, 3, 0, 1)));
    return static_cast<std::uint32_t>(_mm_cvtsi128_si32(sum));
  }
  static void store(std::int32_t* p, Vec v) {
    _mm256_storeu_si256(reinterpret_cast<__m256i*>(p), v);
  }
  static void store(std::int32_t* p, Vec v, Mask m) {
    _mm256_maskstore_epi32(p, m, v);
  }
  /// Lanes 0-3 (h = 0) or 4-7 (h = 1) of `v`, sign-extended to int64.
  static __m256i half(Vec v, int h) {
    return _mm256_cvtepi32_epi64(h == 0 ? _mm256_castsi256_si128(v)
                                        : _mm256_extracti128_si256(v, 1));
  }
  template <bool kAdd>
  static void store_widened(std::int64_t* dst, Vec v) {
    for (int h = 0; h < 2; ++h) {
      auto* p = reinterpret_cast<__m256i*>(dst + 4 * h);
      __m256i value = half(v, h);
      if constexpr (kAdd) value = _mm256_add_epi64(value, _mm256_loadu_si256(p));
      _mm256_storeu_si256(p, value);
    }
  }
  template <bool kAdd>
  static void store_widened(std::int64_t* dst, Vec v, Mask m) {
    for (int h = 0; h < 2; ++h) {
      auto* p = reinterpret_cast<long long*>(dst + 4 * h);
      const __m256i mask = half(m, h);
      __m256i value = half(v, h);
      if constexpr (kAdd) {
        value = _mm256_add_epi64(value, _mm256_maskload_epi64(p, mask));
      }
      _mm256_maskstore_epi64(p, mask, value);
    }
  }
};

}  // namespace

const VectorKernels& simd_backend() {
  static const bool live = __builtin_cpu_supports("avx2") != 0;
  if (live) {
    static const VectorBackend<Avx2> backend(
        BackendKind::kSimd, "AVX2 int32 gather/sllv over SoA quartet planes");
    return backend;
  }
  static const VectorKernels fallback(BackendKind::kSimd,
                                      "portable fallback (CPU lacks AVX2)");
  return fallback;
}

#else

const VectorKernels& simd_backend() {
  static const VectorKernels fallback(
      BackendKind::kSimd, "portable fallback (built without AVX2)");
  return fallback;
}

#endif  // MAN_HAVE_AVX2 && __AVX2__

}  // namespace man::backend::detail

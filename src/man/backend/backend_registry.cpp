#include <array>
#include <cstdlib>
#include <stdexcept>
#include <string>
#include <vector>

#include "man/backend/backend_impls.h"
#include "man/backend/kernel_backend.h"

namespace man::backend {

namespace {

/// `n` int64 multiples narrowed modulo 2^32 into a per-thread buffer.
const std::int32_t* narrowed(const std::int64_t* multiples, std::size_t n) {
  thread_local std::vector<std::int32_t> buffer;
  buffer.resize(n);
  for (std::size_t i = 0; i < n; ++i) {
    buffer[i] = static_cast<std::int32_t>(multiples[i]);
  }
  return buffer.data();
}

}  // namespace

void KernelBackend::accumulate_dense(const DenseLayerPlan& plan,
                                     const std::int64_t* multiples,
                                     std::int64_t* out) const {
  accumulate_dense(plan, narrowed(multiples, plan.padded_multiples()), out);
}

void KernelBackend::accumulate_conv(const ConvLayerPlan& plan,
                                    const std::int64_t* multiples,
                                    std::int64_t* out) const {
  accumulate_conv(plan, narrowed(multiples, plan.padded_multiples()), out);
}

const KernelBackend& backend_for(BackendKind kind) {
  switch (kind) {
    case BackendKind::kScalar:
      return detail::scalar_backend();
    case BackendKind::kBlocked:
      return detail::blocked_backend();
    case BackendKind::kSimd:
      return detail::simd_backend();
    case BackendKind::kAvx512:
      return detail::avx512_backend();
  }
  throw std::invalid_argument("backend_for: unknown BackendKind");
}

std::span<const KernelBackend* const> all_backends() {
  static const std::array<const KernelBackend*, 4> backends = {
      &detail::scalar_backend(), &detail::blocked_backend(),
      &detail::simd_backend(), &detail::avx512_backend()};
  return backends;
}

const detail::VectorKernels& detail::vector_backend(BackendKind kind) {
  if (kind == BackendKind::kSimd) return simd_backend();
  if (kind == BackendKind::kAvx512) return avx512_backend();
  throw std::invalid_argument("vector_backend: not a vector BackendKind");
}

bool detail::conv_run_shaped(BackendKind kind, const ConvLayerPlan& plan,
                             const std::int32_t* multiples, std::int64_t* out,
                             const ConvTileShape& shape) {
  if (kind != BackendKind::kSimd && kind != BackendKind::kAvx512) return false;
  return vector_backend(kind).accumulate_conv_shaped(plan, multiples, out,
                                                     shape);
}

BackendKind detect_best_backend() {
  if (detail::avx512_backend().accelerated()) return BackendKind::kAvx512;
  return detail::simd_backend().accelerated() ? BackendKind::kSimd
                                              : BackendKind::kBlocked;
}

BackendKind parse_backend(std::string_view name) {
  if (name == "scalar") return BackendKind::kScalar;
  if (name == "blocked") return BackendKind::kBlocked;
  if (name == "simd") return BackendKind::kSimd;
  if (name == "avx512") return BackendKind::kAvx512;
  throw std::invalid_argument(
      "MAN_BACKEND: unknown backend \"" + std::string(name) +
      "\" (expected scalar, blocked, simd, avx512, or auto)");
}

std::optional<BackendKind> env_backend_override() {
  const char* env = std::getenv("MAN_BACKEND");
  if (env == nullptr) return std::nullopt;
  const std::string_view value(env);
  if (value.empty() || value == "auto") return std::nullopt;
  return parse_backend(value);
}

BackendKind resolve_backend(std::optional<BackendKind> programmatic) {
  if (programmatic.has_value()) return *programmatic;
  if (const auto env = env_backend_override()) return *env;
  return detect_best_backend();
}

const KernelBackend& resolve(std::optional<BackendKind> programmatic) {
  return backend_for(resolve_backend(programmatic));
}

std::string_view to_string(BackendKind kind) noexcept {
  switch (kind) {
    case BackendKind::kScalar:
      return "scalar";
    case BackendKind::kBlocked:
      return "blocked";
    case BackendKind::kSimd:
      return "simd";
    case BackendKind::kAvx512:
      return "avx512";
  }
  return "unknown";
}

}  // namespace man::backend

// The concrete kernel backends, internal to man::backend (callers go
// through backend_for()/resolve()). Every member declared here is
// defined out of line in a baseline-ISA translation unit
// (blocked_backend.cpp), so the ISA translation units that derive
// from VectorKernels emit none of them (see vector_kernels.h).
#ifndef MAN_BACKEND_BACKEND_IMPLS_H
#define MAN_BACKEND_BACKEND_IMPLS_H

#include <cstddef>
#include <cstdint>

#include "man/backend/kernel_backend.h"

namespace man::backend::detail {

/// The blocked backend: branch-free blocked-scalar walks over the SoA
/// quartet planes, plain C++ at the default ISA.
class BlockedBackend : public KernelBackend {
 public:
  ~BlockedBackend() override;
  [[nodiscard]] BackendKind kind() const noexcept override;
  [[nodiscard]] const char* name() const noexcept override;
  [[nodiscard]] const char* description() const noexcept override;
  [[nodiscard]] bool accelerated() const noexcept override;
  void accumulate_dense(const DenseLayerPlan& plan,
                        const std::int32_t* multiples,
                        std::int64_t* out) const override;
  void accumulate_dense_batch(const DenseLayerPlan& plan,
                              const std::int32_t* multiples, int lanes,
                              int col_begin, int col_end,
                              std::int64_t* out) const override;
  [[nodiscard]] int min_batch_lanes() const noexcept override;
  void exact_dense(const DenseLayerPlan& plan,
                   const std::int64_t* activations,
                   std::int64_t* out) const override;
  void accumulate_conv(const ConvLayerPlan& plan,
                       const std::int32_t* multiples,
                       std::int64_t* out) const override;
  void exact_conv(const ConvLayerPlan& plan,
                  const std::int64_t* activations,
                  std::int64_t* out) const override;
};

/// A vector backend (kSimd or kAvx512) under its own name. This class
/// alone is the backend when the ISA path is not live (compiled out,
/// or the CPU lacks the ISA): every kernel is the blocked backend's.
/// The ISA translation unit derives VectorBackend<Traits> from it
/// when the CPU has the ISA, overriding the ASM entry points; the
/// exact kernels stay the blocked ones (64-bit products have no
/// multiplier in AVX2 or AVX-512F/VL).
class VectorKernels : public BlockedBackend {
 public:
  /// `lanes` is the int32 lanes of one vector on the live path, 0
  /// when it is not live.
  VectorKernels(BackendKind kind, const char* description, int lanes = 0);
  ~VectorKernels() override;

  [[nodiscard]] BackendKind kind() const noexcept final;
  [[nodiscard]] const char* name() const noexcept final;
  [[nodiscard]] const char* description() const noexcept final;
  [[nodiscard]] int lanes() const noexcept;
  /// The plan's autotuned tile shape for this ISA (tile_avx2 or
  /// tile_avx512).
  [[nodiscard]] ConvTileShape& tile(ConvLayerPlan& plan) const noexcept;

  /// One full accumulate_conv pass with an explicit tile shape on the
  /// accelerated path. Returns false, without touching `out`, when
  /// that path is not live.
  [[nodiscard]] virtual bool accumulate_conv_shaped(
      const ConvLayerPlan& plan, const std::int32_t* multiples,
      std::int64_t* out, const ConvTileShape& shape) const;

 protected:
  BackendKind kind_;
  const char* description_;
  int lanes_;
  ConvTileShape ConvLayerPlan::*tile_;
};

[[nodiscard]] const KernelBackend& scalar_backend();
[[nodiscard]] const BlockedBackend& blocked_backend();
[[nodiscard]] const VectorKernels& simd_backend();
[[nodiscard]] const VectorKernels& avx512_backend();

/// simd_backend() or avx512_backend(); throws std::invalid_argument
/// for the other kinds.
[[nodiscard]] const VectorKernels& vector_backend(BackendKind kind);

/// The shaped conv entry point of the tile autotuner: one full
/// accumulate_conv pass with an explicit tile shape on the named
/// vector backend's accelerated path. Returns false, without
/// touching `out`, when that path is not live in this build or on
/// this CPU, and for the scalar and blocked kinds.
[[nodiscard]] bool conv_run_shaped(BackendKind kind, const ConvLayerPlan& plan,
                                   const std::int32_t* multiples,
                                   std::int64_t* out,
                                   const ConvTileShape& shape);

/// The SoA planes of one ASM plan as raw pointers. The vector kernels
/// read plans through this view and plain fields only: an inline
/// member function of the plan types called there would be emitted
/// in the ISA translation unit as a weak symbol, compiled for that
/// ISA, that the linker may pick for baseline code.
struct PlanePointers {
  const std::uint32_t* idx;
  const std::int32_t* shifts;
  const std::int32_t* signs;
  const std::int64_t* biases;
  std::size_t stride;  ///< entries per quartet plane
};
[[nodiscard]] PlanePointers plane_pointers(const DenseLayerPlan& plan);
[[nodiscard]] PlanePointers plane_pointers(const ConvLayerPlan& plan);

/// A per-thread int32 buffer of at least `n` elements (the
/// weight-stationary conv kernel's output rows).
[[nodiscard]] std::int32_t* thread_sums(std::size_t n);

}  // namespace man::backend::detail

#endif  // MAN_BACKEND_BACKEND_IMPLS_H

// Multi-backend quartet accumulation: the inner MAC loop of the
// fixed-point engine abstracted behind a KernelBackend interface, so
// the same compiled DenseLayerPlan can run on the extracted scalar
// reference, an auto-vectorizable blocked-scalar kernel, or one
// family of explicit vector kernels instantiated at AVX2 and AVX-512
// width — all under one bit-exactness contract
// (every backend must produce accumulators identical to the scalar
// reference; the Fig 9 replay gate enforces this in CI). The ASM
// kernels read int32 staged multiples and form their sums in int32
// lanes — exact for every plan FixedNetwork admits (layer_plan.h,
// magnitude_bound()) — and widen their results to int64 on store.
//
// Selection: resolve() picks, in precedence order, a programmatic
// override (BatchOptions::backend), the MAN_BACKEND environment
// variable (scalar|blocked|simd|avx512; auto/unset defers), then CPU
// feature detection (AVX-512 when live, else AVX2-accelerated SIMD,
// blocked otherwise).
#ifndef MAN_BACKEND_KERNEL_BACKEND_H
#define MAN_BACKEND_KERNEL_BACKEND_H

#include <cstdint>
#include <limits>
#include <optional>
#include <span>
#include <string_view>

#include "man/backend/layer_plan.h"

namespace man::backend {

/// Registered quartet-accumulation kernels.
enum class BackendKind {
  kScalar,   ///< extracted reference loop over the AoS schedule
  kBlocked,  ///< branch-free blocked-scalar loop over the SoA planes
  kSimd,     ///< the vector kernels at 8 int32 lanes of AVX2 (the
             ///< blocked kernels when AVX2 is compiled out or the CPU
             ///< lacks it)
  kAvx512,   ///< the same vector kernels at 16 int32 lanes of
             ///< AVX-512F/VL (the blocked kernels when AVX-512 is
             ///< compiled out or the CPU lacks it)
};

/// Widest tile of samples the batch-as-lanes dense kernel runs at
/// once (accumulate_dense_batch): two zmm of int32 lanes.
inline constexpr int kMaxBatchLanes = 32;

/// min_batch_lanes() of a backend whose batched dense kernel never
/// beats running its per-sample kernel once per sample.
inline constexpr int kNeverBatchLanes = std::numeric_limits<int>::max();

/// One implementation of the inner accumulation loops. Stateless and
/// thread-safe: instances are process-wide singletons obtained via
/// backend_for()/resolve().
class KernelBackend {
 public:
  virtual ~KernelBackend() = default;

  [[nodiscard]] virtual BackendKind kind() const noexcept = 0;
  /// Stable lowercase identifier ("scalar", "blocked", "simd",
  /// "avx512") — the MAN_BACKEND spelling and the EngineStats backend
  /// label.
  [[nodiscard]] virtual const char* name() const noexcept = 0;
  /// Human-readable variant description (e.g. which SIMD path is
  /// live on this CPU/build).
  [[nodiscard]] virtual const char* description() const noexcept = 0;
  /// True when this backend runs its accelerated code path (a vector
  /// backend reports false when its ISA path is not live and it runs
  /// the blocked kernels). Every registered backend is always
  /// *runnable*.
  [[nodiscard]] virtual bool accelerated() const noexcept = 0;

  /// ASM quartet accumulation for one dense stage:
  /// out[r] = biases[r] + Σ_c sign · Σ_q multiples[idx] << shift.
  /// The lane backends sum modulo 2^32 and sign-extend into `out`, the
  /// scalar reference sums in int64; they agree on every plan whose
  /// magnitude_bound() is within kInt32LaneBound. `multiples` holds
  /// plan.padded_multiples() slots (cols × k bank outputs plus the
  /// trailing zero slot, which must be 0).
  virtual void accumulate_dense(const DenseLayerPlan& plan,
                                const std::int32_t* multiples,
                                std::int64_t* out) const = 0;
  /// The same for multiples staged as int64 (narrowed modulo 2^32
  /// into a per-thread buffer first).
  void accumulate_dense(const DenseLayerPlan& plan,
                        const std::int64_t* multiples,
                        std::int64_t* out) const;

  /// Batch-as-lanes ASM accumulation of columns [col_begin, col_end)
  /// of one dense stage over `lanes` samples (1..kMaxBatchLanes):
  ///   out[r·lanes + b] += Σ_{c in block} sign · Σ_q
  ///       multiples[(idx − col_begin·k)·lanes + b] << shift.
  /// `multiples` holds the block's bank outputs slot-major — slot
  /// s = (c − col_begin)·k + alphabet, lane b at s·lanes + b — so one
  /// weight step reads `lanes` consecutive slots (plain loads, one
  /// broadcast shift) where accumulate_dense gathers one slot per
  /// weight. Zero-step weights and absent quartets are skipped, never
  /// read, so the block carries no zero slot. The caller seeds `out`
  /// (rows × lanes) with the biases before the first block; summed
  /// over blocks covering [0, cols), lane b equals accumulate_dense
  /// on that sample's multiples, bit for bit, whenever the plan's
  /// magnitude_bound() is within kInt32LaneBound (each block's int32
  /// partial sum is then exact; it is sign-extended and added to the
  /// int64 `out`).
  virtual void accumulate_dense_batch(const DenseLayerPlan& plan,
                                      const std::int32_t* multiples,
                                      int lanes, int col_begin, int col_end,
                                      std::int64_t* out) const = 0;

  /// Smallest tile width at which accumulate_dense_batch beats
  /// accumulate_dense run once per sample on this backend (a measured
  /// constant, see docs/backends.md); kNeverBatchLanes when it never
  /// does. Narrower tiles stay on the per-sample path.
  [[nodiscard]] virtual int min_batch_lanes() const noexcept = 0;

  /// Conventional exact dense stage:
  /// out[r] = biases[r] + Σ_c weights[r][c] · activations[c].
  virtual void exact_dense(const DenseLayerPlan& plan,
                           const std::int64_t* activations,
                           std::int64_t* out) const = 0;

  /// ASM quartet accumulation for one conv stage: for every filter r
  /// and output position p = (oy, ox),
  ///   out[r·P + p] = biases[r] + Σ_c sign · Σ_q
  ///       multiples[idx + oy·iw + ox] << shift
  /// (the position base is in element units — the lane-major layout
  /// strides by elements, not by k). `multiples` holds
  /// plan.padded_multiples() slots — k planes of ic·ih·iw bank
  /// outputs plus the trailing zero region, which must be 0. Summed
  /// as in accumulate_dense.
  virtual void accumulate_conv(const ConvLayerPlan& plan,
                               const std::int32_t* multiples,
                               std::int64_t* out) const = 0;
  /// The same for multiples staged as int64 (narrowed first).
  void accumulate_conv(const ConvLayerPlan& plan,
                       const std::int64_t* multiples,
                       std::int64_t* out) const;

  /// Conventional exact conv stage over the degenerate single-multiple
  /// plane: out[r·P + p] = biases[r] + Σ_c weights[r][c] ·
  /// activations[patch_elems[c] + oy·iw + ox].
  virtual void exact_conv(const ConvLayerPlan& plan,
                          const std::int64_t* activations,
                          std::int64_t* out) const = 0;
};

/// The process-wide instance of one backend kind.
[[nodiscard]] const KernelBackend& backend_for(BackendKind kind);

/// Every registered backend (all four kinds are always registered;
/// the simd/avx512 entries run the blocked kernels under their own
/// names when their ISA path is not live).
[[nodiscard]] std::span<const KernelBackend* const> all_backends();

/// Best backend for this CPU/build: AVX-512 when its accelerated path
/// is live, else SIMD when accelerated, blocked otherwise.
[[nodiscard]] BackendKind detect_best_backend();

/// Parses a MAN_BACKEND spelling ("scalar", "blocked", "simd",
/// "avx512"); throws std::invalid_argument on anything else.
[[nodiscard]] BackendKind parse_backend(std::string_view name);

/// The MAN_BACKEND environment override, if set. Unset, empty, or
/// "auto" yield nullopt; an unknown value throws
/// std::invalid_argument.
[[nodiscard]] std::optional<BackendKind> env_backend_override();

/// Selection with full precedence: `programmatic` beats MAN_BACKEND
/// beats detect_best_backend().
[[nodiscard]] BackendKind resolve_backend(
    std::optional<BackendKind> programmatic = std::nullopt);

/// resolve_backend() + backend_for() in one call.
[[nodiscard]] const KernelBackend& resolve(
    std::optional<BackendKind> programmatic = std::nullopt);

/// Backend names for diagnostics ("scalar|blocked|simd|avx512").
[[nodiscard]] std::string_view to_string(BackendKind kind) noexcept;

}  // namespace man::backend

#endif  // MAN_BACKEND_KERNEL_BACKEND_H

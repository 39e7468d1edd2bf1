// Blocked-scalar kernel: branch-free walk over the contiguous quartet
// planes with padded fixed trip counts — plain C++ the compiler can
// unroll and auto-vectorize, no intrinsics. It is also every vector
// backend whose ISA path is not live (VectorKernels), so this file is
// built at the default ISA and defines everything backend_impls.h
// declares.
#include <algorithm>
#include <cstdint>
#include <vector>

#include "man/backend/backend_impls.h"

namespace man::backend::detail {

namespace {

/// `m << shift` on the wrapping uint32 image the portable kernels
/// compute in — the vector kernels' lane op. Counts are taken modulo
/// 32, so a crafted plan's shift cannot make the shift undefined.
std::uint32_t shl32(std::int32_t m, std::int32_t shift) {
  return static_cast<std::uint32_t>(m) << (static_cast<std::uint32_t>(shift) &
                                           31u);
}

/// Sign-applied contribution (product ^ sign) - sign of one weight.
std::uint32_t apply_sign(std::uint32_t product, std::int32_t sign) {
  const auto mask = static_cast<std::uint32_t>(sign);
  return (product ^ mask) - mask;
}

/// An int32 lane sum sign-extended into the int64 output.
std::int64_t widen(std::uint32_t sum) {
  return static_cast<std::int32_t>(sum);  // modulo 2^32 (C++20)
}

/// Branch-free plane walk: for each output row, every padded column
/// contributes (Σ_q multiples[idx] << shift) ^ sign - sign; absent
/// quartets and padding columns hit the zero slot and sign mask 0.
/// Fixed trip counts and contiguous streams — the loop the
/// auto-vectorizer (and the vector gather kernel) feed on.
void accumulate_planes(const DenseLayerPlan& plan,
                       const std::int32_t* multiples, std::int64_t* out) {
  const PlanePointers p = plane_pointers(plan);
  for (int r = 0; r < plan.rows; ++r) {
    const std::size_t base = static_cast<std::size_t>(r) * plan.cols_padded;
    auto acc = static_cast<std::uint32_t>(p.biases[r]);
    for (int c = 0; c < plan.cols_padded; ++c) {
      const std::size_t cell = base + static_cast<std::size_t>(c);
      std::uint32_t product = 0;
      for (int q = 0; q < plan.planes; ++q) {
        const std::size_t pc = q * p.stride + cell;
        product += shl32(multiples[p.idx[pc]], p.shifts[pc]);
      }
      acc += apply_sign(product, p.signs[cell]);
    }
    out[r] = widen(acc);
  }
}

/// min_batch_lanes() of the portable batched walk (the blocked
/// backend, and the vector backends when their ISA is not live); see
/// docs/backends.md.
constexpr int kPortableMinBatchLanes = 7;

/// Batch-as-lanes plane walk (KernelBackend::accumulate_dense_batch):
/// each weight step of the column block reads `lanes` consecutive
/// slot-major multiples and shift-adds them into one product per
/// lane — the conv plane walk's shape with samples for positions.
/// Zero-step weights and absent quartets (steps are packed from plane
/// 0) are skipped, contributing exactly the zero the padded walk adds.
/// The block's int32 sums are sign-extended onto `out` at the end.
void accumulate_dense_batch_planes(const DenseLayerPlan& plan,
                                   const std::int32_t* multiples, int lanes,
                                   int col_begin, int col_end,
                                   std::int64_t* out) {
  const PlanePointers p = plane_pointers(plan);
  const auto n = static_cast<std::size_t>(lanes);
  const std::uint32_t block_slot = static_cast<std::uint32_t>(col_begin) *
                                   static_cast<std::uint32_t>(plan.k);
  std::uint32_t acc[kMaxBatchLanes];
  std::uint32_t product[kMaxBatchLanes];
  for (int r = 0; r < plan.rows; ++r) {
    std::int64_t* dst = out + static_cast<std::size_t>(r) * n;
    const std::size_t row = static_cast<std::size_t>(r) * plan.cols_padded;
    for (std::size_t b = 0; b < n; ++b) acc[b] = 0;
    for (int c = col_begin; c < col_end; ++c) {
      const std::size_t cell = row + static_cast<std::size_t>(c);
      const std::uint32_t first = p.idx[cell];
      if (first == plan.zero_slot) continue;  // zero-step weight
      const std::int32_t* src0 = multiples + (first - block_slot) * n;
      for (std::size_t b = 0; b < n; ++b) {
        product[b] = shl32(src0[b], p.shifts[cell]);
      }
      for (int q = 1; q < plan.planes; ++q) {
        const std::size_t pc = q * p.stride + cell;
        const std::uint32_t cell_idx = p.idx[pc];
        if (cell_idx == plan.zero_slot) break;  // steps are packed
        const std::int32_t* src = multiples + (cell_idx - block_slot) * n;
        for (std::size_t b = 0; b < n; ++b) {
          product[b] += shl32(src[b], p.shifts[pc]);
        }
      }
      for (std::size_t b = 0; b < n; ++b) {
        acc[b] += apply_sign(product[b], p.signs[cell]);
      }
    }
    for (std::size_t b = 0; b < n; ++b) {
      dst[b] = static_cast<std::int64_t>(static_cast<std::uint64_t>(dst[b]) +
                                         static_cast<std::uint64_t>(
                                             widen(acc[b])));
    }
  }
}

/// Exact dense with kLaneWidth independent accumulators per row (the
/// blocked shape; integer addition commutes, so the result is
/// bit-identical to the sequential reference).
void exact_dense_blocked(const DenseLayerPlan& plan,
                         const std::int64_t* activations, std::int64_t* out) {
  for (int r = 0; r < plan.rows; ++r) {
    const std::int32_t* wrow =
        &plan.weights[static_cast<std::size_t>(r) * plan.cols];
    std::int64_t lanes[kLaneWidth] = {};
    const int main = plan.cols / kLaneWidth * kLaneWidth;
    for (int c = 0; c < main; c += kLaneWidth) {
      for (int l = 0; l < kLaneWidth; ++l) {
        lanes[l] += static_cast<std::int64_t>(wrow[c + l]) *
                    activations[static_cast<std::size_t>(c + l)];
      }
    }
    std::int64_t acc = plan.biases[static_cast<std::size_t>(r)];
    for (int l = 0; l < kLaneWidth; ++l) acc += lanes[l];
    for (int c = main; c < plan.cols; ++c) {
      acc += static_cast<std::int64_t>(wrow[c]) *
             activations[static_cast<std::size_t>(c)];
    }
    out[r] = acc;
  }
}

/// Positions processed per tile of the conv plane walk: big enough to
/// amortize the per-weight plan loads across a whole cache line of
/// accumulators, small enough to live on the stack.
constexpr int kConvTile = 64;

/// Conv variant of the plane walk, blocked over a 2-D tile of output
/// positions (up to kConvTile of them, arranged as several output
/// rows × a run of columns): a conv weight fires once per output
/// position with the same idx/shift/sign, so each plan entry is
/// loaded once per *tile* and streamed over every tile position —
/// multi-row tiles matter because a large conv stage's plan exceeds
/// L1 and would otherwise be re-read once per output row. In the
/// lane-major layout the per-row reads are contiguous (base offsets
/// step by one element), so the inner loop is a shift-and-add over
/// adjacent slots — exactly the shape the auto-vectorizer eats. The
/// per-weight quartet steps are packed from plane 0, so the first
/// absent cell ends the weight — skipped weights contribute exactly
/// the zero the padded walk would have added, keeping the result
/// bit-identical to the scalar reference.
void accumulate_conv_planes(const ConvLayerPlan& plan,
                            const std::int32_t* multiples,
                            std::int64_t* out) {
  const PlanePointers p = plane_pointers(plan);
  const std::size_t positions = plan.positions();
  const int cn = std::min(plan.ow, kConvTile);     // tile columns
  const int rn_max = std::max(1, kConvTile / cn);  // tile rows
  std::uint32_t tmp[kConvTile];
  std::uint32_t prod[kConvTile];
  for (int oy0 = 0; oy0 < plan.oh; oy0 += rn_max) {
    const int rn = std::min(rn_max, plan.oh - oy0);
    for (int ox0 = 0; ox0 < plan.ow; ox0 += cn) {
      const int tc = std::min(cn, plan.ow - ox0);
      const std::size_t ebase0 =
          static_cast<std::size_t>(oy0) * plan.iw + ox0;
      for (int r = 0; r < plan.oc; ++r) {
        std::int64_t* out_r = out + static_cast<std::size_t>(r) * positions;
        const auto bias = static_cast<std::uint32_t>(p.biases[r]);
        for (int t = 0; t < rn * tc; ++t) tmp[t] = bias;
        const std::size_t row =
            static_cast<std::size_t>(r) * plan.cols_padded;
        for (int c = 0; c < plan.cols_padded; ++c) {
          const std::size_t cell = row + static_cast<std::size_t>(c);
          if (p.idx[cell] == plan.zero_base) continue;  // zero-step weight
          for (int t = 0; t < rn * tc; ++t) prod[t] = 0;
          for (int q = 0; q < plan.planes; ++q) {
            const std::size_t pc = q * p.stride + cell;
            const std::uint32_t cell_idx = p.idx[pc];
            if (cell_idx == plan.zero_base) break;  // steps are packed
            const std::int32_t sh = p.shifts[pc];
            for (int ty = 0; ty < rn; ++ty) {
              const std::int32_t* src = multiples + cell_idx + ebase0 +
                                        static_cast<std::size_t>(ty) *
                                            plan.iw;
              std::uint32_t* dst = prod + ty * tc;
              for (int t = 0; t < tc; ++t) dst[t] += shl32(src[t], sh);
            }
          }
          const std::int32_t sign = p.signs[cell];
          for (int t = 0; t < rn * tc; ++t) tmp[t] += apply_sign(prod[t], sign);
        }
        for (int ty = 0; ty < rn; ++ty) {
          std::int64_t* out_row = out_r +
                                  static_cast<std::size_t>(oy0 + ty) *
                                      plan.ow +
                                  ox0;
          const std::uint32_t* src = tmp + ty * tc;
          for (int t = 0; t < tc; ++t) out_row[t] = widen(src[t]);
        }
      }
    }
  }
}

/// Exact conv with kLaneWidth independent accumulators per filter and
/// the degenerate single-multiple plane gather (integer addition
/// commutes, so the result is bit-identical to the sequential
/// reference).
void exact_conv_blocked(const ConvLayerPlan& plan,
                        const std::int64_t* activations, std::int64_t* out) {
  const std::size_t positions = plan.positions();
  const std::uint32_t* elems = plan.patch_elems.data();
  for (int oy = 0; oy < plan.oh; ++oy) {
    for (int ox = 0; ox < plan.ow; ++ox) {
      const std::size_t base = static_cast<std::size_t>(oy) * plan.iw + ox;
      const std::size_t p = static_cast<std::size_t>(oy) * plan.ow + ox;
      for (int r = 0; r < plan.oc; ++r) {
        const std::int32_t* wrow =
            &plan.weights[static_cast<std::size_t>(r) * plan.cols_padded];
        std::int64_t lanes[kLaneWidth] = {};
        for (int c = 0; c < plan.cols_padded; c += kLaneWidth) {
          for (int l = 0; l < kLaneWidth; ++l) {
            lanes[l] += static_cast<std::int64_t>(wrow[c + l]) *
                        activations[elems[c + l] + base];
          }
        }
        std::int64_t acc = plan.biases[static_cast<std::size_t>(r)];
        for (int l = 0; l < kLaneWidth; ++l) acc += lanes[l];
        out[static_cast<std::size_t>(r) * positions + p] = acc;
      }
    }
  }
}

}  // namespace

BlockedBackend::~BlockedBackend() = default;

BackendKind BlockedBackend::kind() const noexcept {
  return BackendKind::kBlocked;
}

const char* BlockedBackend::name() const noexcept { return "blocked"; }

const char* BlockedBackend::description() const noexcept {
  return "branch-free blocked-scalar over SoA quartet planes";
}

bool BlockedBackend::accelerated() const noexcept { return false; }

void BlockedBackend::accumulate_dense(const DenseLayerPlan& plan,
                                      const std::int32_t* multiples,
                                      std::int64_t* out) const {
  accumulate_planes(plan, multiples, out);
}

void BlockedBackend::accumulate_dense_batch(const DenseLayerPlan& plan,
                                            const std::int32_t* multiples,
                                            int lanes, int col_begin,
                                            int col_end,
                                            std::int64_t* out) const {
  accumulate_dense_batch_planes(plan, multiples, lanes, col_begin, col_end,
                                out);
}

int BlockedBackend::min_batch_lanes() const noexcept {
  return kPortableMinBatchLanes;
}

void BlockedBackend::exact_dense(const DenseLayerPlan& plan,
                                 const std::int64_t* activations,
                                 std::int64_t* out) const {
  exact_dense_blocked(plan, activations, out);
}

void BlockedBackend::accumulate_conv(const ConvLayerPlan& plan,
                                     const std::int32_t* multiples,
                                     std::int64_t* out) const {
  accumulate_conv_planes(plan, multiples, out);
}

void BlockedBackend::exact_conv(const ConvLayerPlan& plan,
                                const std::int64_t* activations,
                                std::int64_t* out) const {
  exact_conv_blocked(plan, activations, out);
}

const BlockedBackend& blocked_backend() {
  static const BlockedBackend backend;
  return backend;
}

VectorKernels::VectorKernels(BackendKind kind, const char* description,
                             int lanes)
    : kind_(kind),
      description_(description),
      lanes_(lanes),
      tile_(kind == BackendKind::kAvx512 ? &ConvLayerPlan::tile_avx512
                                         : &ConvLayerPlan::tile_avx2) {}

VectorKernels::~VectorKernels() = default;

BackendKind VectorKernels::kind() const noexcept { return kind_; }

const char* VectorKernels::name() const noexcept {
  return to_string(kind_).data();  // a NUL-terminated literal
}

const char* VectorKernels::description() const noexcept {
  return description_;
}

int VectorKernels::lanes() const noexcept { return lanes_; }

ConvTileShape& VectorKernels::tile(ConvLayerPlan& plan) const noexcept {
  return plan.*tile_;
}

bool VectorKernels::accumulate_conv_shaped(const ConvLayerPlan& /*plan*/,
                                           const std::int32_t* /*multiples*/,
                                           std::int64_t* /*out*/,
                                           const ConvTileShape& /*shape*/)
    const {
  return false;
}

PlanePointers plane_pointers(const DenseLayerPlan& plan) {
  return {plan.idx.data(), plan.shifts.data(), plan.sign_masks.data(),
          plan.biases.data(), plan.plane_stride()};
}

PlanePointers plane_pointers(const ConvLayerPlan& plan) {
  return {plan.idx.data(), plan.shifts.data(), plan.sign_masks.data(),
          plan.biases.data(), plan.plane_stride()};
}

std::int32_t* thread_sums(std::size_t n) {
  thread_local std::vector<std::int32_t> sums;
  if (sums.size() < n) sums.resize(n);
  return sums.data();
}

}  // namespace man::backend::detail

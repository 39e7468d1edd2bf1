// The vector kernel family: the four ASM kernels (dense gather, dense
// batch-as-lanes, conv position tiles, weight-stationary conv)
// written once over an ISA lane-traits type T, and VectorBackend<T>,
// the backend that runs them. Each lane op (logical left shift,
// two's-complement negation, wrapping add) is exact modulo 2^32, only
// the commutative summation order differs from the scalar reference,
// and a plan within its magnitude_bound() never leaves the int32
// range (layer_plan.h) — so every instantiation is bit-identical to
// it, at 8 lanes or 16.
//
// Included only by the ISA translation units (simd_backend.cpp,
// avx512_backend.cpp), each compiled with its ISA flags and declaring
// its traits in an anonymous namespace. Everything here is a template
// over T, so every instantiation has internal linkage: nothing
// compiled for an ISA can be picked by the linker for baseline code
// (scripts/check_isa_isolation.py checks the objects). For the same
// reason the kernels read plans through plain fields and the
// out-of-line plane_pointers() view, never an inline member function.
//
// T provides, for int32 lanes:
//   Vec, Mask, kLanes        vector and lane-mask types, lanes per Vec
//   kConvRowTile             default conv row tile (no autotuned shape)
//   kMinBatchLanes           measured min_batch_lanes() (docs/backends.md)
//   zero(), set1(x)
//   load(p), load(p, m)      m: lanes outside it read 0, untouched in memory
//   lane_mask(live)          the first `live` (0..kLanes) lanes
//   sll(v, n), sllv(v, ns)   broadcast / per-lane left shift
//   gather(base, idx, m)     base[idx] in the lanes m selects, else 0
//   add(a, b), apply_sign(t, s)   a + b, (t ^ s) - s
//   hsum(v)                  wrapping sum of every lane
//   store(p, v), store(p, v, m)
//   store_widened<kAdd>(dst, v), store_widened<kAdd>(dst, v, m)
//                            write (kAdd: add onto) the lanes to int64
//                            dst, sign-extended
#ifndef MAN_BACKEND_VECTOR_KERNELS_H
#define MAN_BACKEND_VECTOR_KERNELS_H

#include <algorithm>
#include <cstdint>
#include <utility>

#include "man/backend/backend_impls.h"

namespace man::backend::detail {

/// Loads kLanes int32 lanes, or only the lanes `mask` selects.
template <class T, bool kMasked>
typename T::Vec load_lanes(const std::int32_t* src,
                           [[maybe_unused]] typename T::Mask mask) {
  if constexpr (kMasked) return T::load(src, mask);
  return T::load(src);
}

/// One kLanes-column group of one dense row: Σ_q gathered multiples
/// << shift, sign applied. kMasked limits it to the `live` columns.
template <class T, bool kMasked>
typename T::Vec dense_group(const PlanePointers& p, int planes,
                            std::size_t cell, const std::int32_t* multiples,
                            typename T::Mask live) {
  const auto* idx = reinterpret_cast<const std::int32_t*>(p.idx);
  typename T::Vec product = T::zero();
  for (int q = 0; q < planes; ++q) {
    const std::size_t pc = q * p.stride + cell;
    const auto m =
        T::gather(multiples, load_lanes<T, kMasked>(idx + pc, live), live);
    product = T::add(
        product, T::sllv(m, load_lanes<T, kMasked>(p.shifts + pc, live)));
  }
  return T::apply_sign(product, load_lanes<T, kMasked>(p.signs + cell, live));
}

/// Per-sample dense kernel: one gather of kLanes weights' multiples
/// per plane, lane sums reduced per row. cols_padded is a multiple of
/// kLaneWidth (8), so at 16 lanes a row may end in a half group.
template <class T>
void dense_gather(const DenseLayerPlan& plan, const std::int32_t* multiples,
                  std::int64_t* out) {
  const PlanePointers p = plane_pointers(plan);
  const auto full = T::lane_mask(T::kLanes);
  for (int r = 0; r < plan.rows; ++r) {
    const std::size_t row = static_cast<std::size_t>(r) * plan.cols_padded;
    typename T::Vec acc = T::zero();
    int c = 0;
    for (; c + T::kLanes <= plan.cols_padded; c += T::kLanes) {
      acc = T::add(acc, dense_group<T, false>(p, plan.planes, row + c,
                                              multiples, full));
    }
    if (c < plan.cols_padded) {
      acc = T::add(acc, dense_group<T, true>(
                            p, plan.planes, row + c, multiples,
                            T::lane_mask(plan.cols_padded - c)));
    }
    out[r] = static_cast<std::int32_t>(
        static_cast<std::uint32_t>(p.biases[r]) + T::hsum(acc));
  }
}

/// Batch-as-lanes dense kernel: NV vectors cover the tile's lanes (the
/// last one lane-masked, so a ragged tile needs no scalar tail), and
/// every weight step is one broadcast shift of NV plain loads — the
/// conv position tile with samples for positions, where dense_gather
/// spends a gather per kLanes weights of one sample. The block's
/// int32 sums are sign-extended onto `out` once per row. PLANES > 0
/// fixes the plan's plane count at compile time (the shipped 8/12-bit
/// plans have 1 or 2), which unrolls the step loop; 0 walks
/// plan.planes at run time.
template <class T, int NV, int PLANES>
void dense_batch(const DenseLayerPlan& plan, const std::int32_t* multiples,
                 int lanes, int col_begin, int col_end, std::int64_t* out) {
  const PlanePointers p = plane_pointers(plan);
  const int planes = PLANES > 0 ? PLANES : plan.planes;
  const std::uint32_t zero_slot = plan.zero_slot;
  const auto cols_padded = static_cast<std::size_t>(plan.cols_padded);
  const auto n = static_cast<std::size_t>(lanes);
  const std::uint32_t block_slot = static_cast<std::uint32_t>(col_begin) *
                                   static_cast<std::uint32_t>(plan.k);
  const auto tail = T::lane_mask(lanes - (NV - 1) * T::kLanes);
  const auto load = [tail](const std::int32_t* src, int v) {
    return v + 1 < NV ? T::load(src + v * T::kLanes)
                      : T::load(src + v * T::kLanes, tail);
  };
  for (int r = 0; r < plan.rows; ++r) {
    const std::size_t row = static_cast<std::size_t>(r) * cols_padded;
    typename T::Vec acc[NV];
    for (int v = 0; v < NV; ++v) acc[v] = T::zero();
    for (int c = col_begin; c < col_end; ++c) {
      const std::size_t cell = row + static_cast<std::size_t>(c);
      const std::uint32_t first = p.idx[cell];
      if (first == zero_slot) continue;  // zero-step weight
      typename T::Vec product[NV];
      const std::int32_t* src0 = multiples + (first - block_slot) * n;
      for (int v = 0; v < NV; ++v) {
        product[v] = T::sll(load(src0, v), p.shifts[cell]);
      }
      for (int q = 1; q < planes; ++q) {
        const std::size_t pc = q * p.stride + cell;
        const std::uint32_t cell_idx = p.idx[pc];
        if (cell_idx == zero_slot) break;  // steps are packed
        const std::int32_t* src = multiples + (cell_idx - block_slot) * n;
        for (int v = 0; v < NV; ++v) {
          product[v] = T::add(product[v], T::sll(load(src, v), p.shifts[pc]));
        }
      }
      const auto sign = T::set1(p.signs[cell]);
      for (int v = 0; v < NV; ++v) {
        acc[v] = T::add(acc[v], T::apply_sign(product[v], sign));
      }
    }
    std::int64_t* dst = out + static_cast<std::size_t>(r) * n;
    for (int v = 0; v + 1 < NV; ++v) {
      T::template store_widened<true>(dst + v * T::kLanes, acc[v]);
    }
    T::template store_widened<true>(dst + (NV - 1) * T::kLanes, acc[NV - 1],
                                    tail);
  }
}

/// Plane-count dispatch for one vector count.
template <class T, int NV>
void dense_batch_planes(const DenseLayerPlan& plan,
                        const std::int32_t* multiples, int lanes,
                        int col_begin, int col_end, std::int64_t* out) {
  switch (plan.planes) {
    case 1:
      dense_batch<T, NV, 1>(plan, multiples, lanes, col_begin, col_end, out);
      break;
    case 2:
      dense_batch<T, NV, 2>(plan, multiples, lanes, col_begin, col_end, out);
      break;
    default:
      dense_batch<T, NV, 0>(plan, multiples, lanes, col_begin, col_end, out);
  }
}

/// Vector-count dispatch: ceil(lanes / kLanes) of the
/// kMaxBatchLanes / kLanes instantiations.
template <class T, int... I>
void dense_batch_vectors(std::integer_sequence<int, I...> /*counts*/,
                         const DenseLayerPlan& plan,
                         const std::int32_t* multiples, int lanes,
                         int col_begin, int col_end, std::int64_t* out) {
  using Kernel = void (*)(const DenseLayerPlan&, const std::int32_t*, int,
                          int, int, std::int64_t*);
  static constexpr Kernel kKernels[] = {&dense_batch_planes<T, I + 1>...};
  const int nv = std::clamp((lanes + T::kLanes - 1) / T::kLanes, 1,
                            static_cast<int>(sizeof...(I)));
  kKernels[nv - 1](plan, multiples, lanes, col_begin, col_end, out);
}

// Conv kernel vectorized over output *positions*, not weight columns:
// a conv weight fires at every position with the same idx/shift/sign,
// so consecutive positions of one output row share one broadcast
// plan entry — and in the lane-major multiples layout their reads are
// *contiguous*, so the inner step is a plain load plus one
// broadcast-count shift; no gather at all. Each plan entry feeds a
// register-blocked grid of RN output rows × CN column groups (one
// vector accumulator each) before the walk moves on, so the (often
// L1-exceeding) plan streams through RN·CN·kLanes times less often.
// Packed quartet steps let whole absent planes (and zero-step
// weights) skip without touching memory.
/// One tile: RN output rows × CN column groups starting at (oy0, ox),
/// every filter. kTail makes it the row tail instead: one column
/// group of the positions `mask` selects — masked loads read nothing
/// past them and masked stores write nothing, so the tail runs the
/// very same lane ops. RN/CN are compile-time constants so the
/// accumulator/product arrays live in registers (shapes near the
/// kMaxConvRowTile × kMaxConvColVecs corner spill; the autotuner
/// simply measures them and moves on).
template <class T, int RN, int CN, bool kTail>
void conv_tile(const ConvLayerPlan& plan, const PlanePointers& p,
               const std::int32_t* multiples, std::int64_t* out, int oy0,
               int ox, typename T::Mask mask) {
  static_assert(!kTail || CN == 1, "a row tail is one column group");
  const std::size_t positions = static_cast<std::size_t>(plan.oh) * plan.ow;
  const std::size_t ebase0 = static_cast<std::size_t>(oy0) * plan.iw + ox;
  for (int r = 0; r < plan.oc; ++r) {
    const std::size_t row = static_cast<std::size_t>(r) * plan.cols_padded;
    typename T::Vec acc[RN * CN];
    const auto bias = T::set1(static_cast<std::int32_t>(p.biases[r]));
    for (int t = 0; t < RN * CN; ++t) acc[t] = bias;
    for (int c = 0; c < plan.cols_padded; ++c) {
      const std::size_t cell = row + static_cast<std::size_t>(c);
      if (p.idx[cell] == plan.zero_base) continue;  // zero-step weight
      typename T::Vec product[RN * CN];
      for (int t = 0; t < RN * CN; ++t) product[t] = T::zero();
      for (int q = 0; q < plan.planes; ++q) {
        const std::size_t pc = q * p.stride + cell;
        const std::uint32_t cell_idx = p.idx[pc];
        if (cell_idx == plan.zero_base) break;  // steps are packed
        const std::int32_t sh = p.shifts[pc];
        const std::int32_t* src = multiples + cell_idx + ebase0;
        for (int ty = 0; ty < RN; ++ty) {
          for (int tx = 0; tx < CN; ++tx) {
            const auto m = load_lanes<T, kTail>(
                src + static_cast<std::size_t>(ty) * plan.iw +
                    static_cast<std::size_t>(tx) * T::kLanes,
                mask);
            product[ty * CN + tx] =
                T::add(product[ty * CN + tx], T::sll(m, sh));
          }
        }
      }
      const auto sign = T::set1(p.signs[cell]);
      for (int t = 0; t < RN * CN; ++t) {
        acc[t] = T::add(acc[t], T::apply_sign(product[t], sign));
      }
    }
    for (int ty = 0; ty < RN; ++ty) {
      for (int tx = 0; tx < CN; ++tx) {
        std::int64_t* dst = out + static_cast<std::size_t>(r) * positions +
                            static_cast<std::size_t>(oy0 + ty) * plan.ow +
                            ox + static_cast<std::size_t>(tx) * T::kLanes;
        if constexpr (kTail) {
          T::template store_widened<false>(dst, acc[ty * CN + tx], mask);
        } else {
          T::template store_widened<false>(dst, acc[ty * CN + tx]);
        }
      }
    }
  }
}

/// Runtime row count (1..kMaxConvRowTile) → compile-time RN dispatch
/// for one tile kind.
template <class T, int CN, bool kTail, int... I>
void conv_tile_rows(std::integer_sequence<int, I...> /*rows*/, int rn,
                    const ConvLayerPlan& plan, const PlanePointers& p,
                    const std::int32_t* multiples, std::int64_t* out,
                    int oy0, int ox, typename T::Mask mask) {
  using Tile = void (*)(const ConvLayerPlan&, const PlanePointers&,
                        const std::int32_t*, std::int64_t*, int, int,
                        typename T::Mask);
  static constexpr Tile kTiles[] = {&conv_tile<T, I + 1, CN, kTail>...};
  kTiles[rn - 1](plan, p, multiples, out, oy0, ox, mask);
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
template <class T>
void conv_ws(const ConvLayerPlan& plan, const PlanePointers& p,
             const std::int32_t* multiples, std::int64_t* out) {
  const std::size_t positions = static_cast<std::size_t>(plan.oh) * plan.ow;
  std::int32_t* sums = thread_sums(positions);
  const auto row_tail = T::lane_mask(plan.ow % T::kLanes);
  for (int r = 0; r < plan.oc; ++r) {
    const auto bias = static_cast<std::int32_t>(p.biases[r]);
    for (std::size_t i = 0; i < positions; ++i) sums[i] = bias;
    const std::size_t row = static_cast<std::size_t>(r) * plan.cols_padded;
    for (int c = 0; c < plan.cols_padded; ++c) {
      const std::size_t cell = row + static_cast<std::size_t>(c);
      if (p.idx[cell] == plan.zero_base) continue;  // zero-step weight
      const auto sign = T::set1(p.signs[cell]);
      for (int q = 0; q < plan.planes; ++q) {
        const std::size_t pc = q * p.stride + cell;
        const std::uint32_t cell_idx = p.idx[pc];
        if (cell_idx == plan.zero_base) break;  // steps are packed
        const std::int32_t sh = p.shifts[pc];
        for (int oy = 0; oy < plan.oh; ++oy) {
          const std::int32_t* src =
              multiples + cell_idx + static_cast<std::size_t>(oy) * plan.iw;
          std::int32_t* drow = sums + static_cast<std::size_t>(oy) * plan.ow;
          int ox = 0;
          for (; ox + T::kLanes <= plan.ow; ox += T::kLanes) {
            const auto t = T::apply_sign(T::sll(T::load(src + ox), sh), sign);
            T::store(drow + ox, T::add(T::load(drow + ox), t));
          }
          if (ox < plan.ow) {  // masked row tail
            const auto t = T::apply_sign(
                T::sll(T::load(src + ox, row_tail), sh), sign);
            T::store(drow + ox, T::add(T::load(drow + ox, row_tail), t),
                     row_tail);
          }
        }
      }
    }
    std::int64_t* dst = out + static_cast<std::size_t>(r) * positions;
    std::size_t i = 0;
    for (; i + T::kLanes <= positions; i += T::kLanes) {
      T::template store_widened<false>(dst + i, T::load(sums + i));
    }
    if (i < positions) {
      const auto live = T::lane_mask(static_cast<int>(positions - i));
      T::template store_widened<false>(dst + i, T::load(sums + i, live),
                                       live);
    }
  }
}

/// One accumulate_conv pass with an explicit tile shape (zero fields:
/// the kernel defaults).
template <class T>
void conv_shaped(const ConvLayerPlan& plan, const std::int32_t* multiples,
                 std::int64_t* out, const ConvTileShape& shape) {
  const PlanePointers p = plane_pointers(plan);
  if (shape.weight_stationary) {
    conv_ws<T>(plan, p, multiples, out);
    return;
  }
  constexpr auto rows = std::make_integer_sequence<int, kMaxConvRowTile>();
  const int row_tile = shape.row_tile <= 0 ? T::kConvRowTile
                       : shape.row_tile > kMaxConvRowTile ? kMaxConvRowTile
                                                          : shape.row_tile;
  const auto full = T::lane_mask(T::kLanes);
  for (int oy0 = 0; oy0 < plan.oh; oy0 += row_tile) {
    const int rn = std::min(row_tile, plan.oh - oy0);
    int ox = 0;
    if (shape.col_vecs >= 2) {
      for (; ox + 2 * T::kLanes <= plan.ow; ox += 2 * T::kLanes) {
        conv_tile_rows<T, 2, false>(rows, rn, plan, p, multiples, out, oy0,
                                    ox, full);
      }
    }
    for (; ox + T::kLanes <= plan.ow; ox += T::kLanes) {
      conv_tile_rows<T, 1, false>(rows, rn, plan, p, multiples, out, oy0, ox,
                                  full);
    }
    // Row tail (ow % kLanes positions): one lane-masked partial vector.
    if (ox < plan.ow) {
      conv_tile_rows<T, 1, true>(rows, rn, plan, p, multiples, out, oy0, ox,
                                 T::lane_mask(plan.ow - ox));
    }
  }
}

/// The accelerated vector backend over traits T: constructed only when
/// the CPU has T's ISA (the ISA translation unit's accessor checks
/// first), it overrides every ASM entry point of VectorKernels with
/// the kernels above; the exact kernels stay the blocked ones.
template <class T>
class VectorBackend final : public VectorKernels {
 public:
  VectorBackend(BackendKind kind, const char* description)
      : VectorKernels(kind, description, T::kLanes) {}

  [[nodiscard]] bool accelerated() const noexcept override { return true; }

  void accumulate_dense(const DenseLayerPlan& plan,
                        const std::int32_t* multiples,
                        std::int64_t* out) const override {
    dense_gather<T>(plan, multiples, out);
  }

  void accumulate_dense_batch(const DenseLayerPlan& plan,
                              const std::int32_t* multiples, int lanes,
                              int col_begin, int col_end,
                              std::int64_t* out) const override {
    static_assert(kMaxBatchLanes % T::kLanes == 0, "whole vectors per tile");
    dense_batch_vectors<T>(
        std::make_integer_sequence<int, kMaxBatchLanes / T::kLanes>(), plan,
        multiples, lanes, col_begin, col_end, out);
  }

  [[nodiscard]] int min_batch_lanes() const noexcept override {
    return T::kMinBatchLanes;
  }

  void accumulate_conv(const ConvLayerPlan& plan,
                       const std::int32_t* multiples,
                       std::int64_t* out) const override {
    conv_shaped<T>(plan, multiples, out, plan.*tile_);
  }

  [[nodiscard]] bool accumulate_conv_shaped(
      const ConvLayerPlan& plan, const std::int32_t* multiples,
      std::int64_t* out, const ConvTileShape& shape) const override {
    conv_shaped<T>(plan, multiples, out, shape);
    return true;
  }
};

}  // namespace man::backend::detail

#endif  // MAN_BACKEND_VECTOR_KERNELS_H

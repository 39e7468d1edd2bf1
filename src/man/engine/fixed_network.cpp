#include "man/engine/fixed_network.h"

#include <algorithm>
#include <bit>
#include <stdexcept>

#include "man/backend/conv_autotune.h"
#include "man/core/asm_multiplier.h"
#include "man/core/quartet.h"
#include "man/core/weight_constraint.h"
#include "man/nn/activation_layer.h"
#include "man/nn/conv2d.h"
#include "man/nn/dense.h"
#include "man/nn/pool.h"
#include "man/util/stopwatch.h"

namespace man::engine {

using man::core::AlphabetSet;
using man::core::MultiplierKind;
using man::core::OpCounts;
using man::core::QuartetLayout;
using man::core::WeightConstraint;

namespace {

// Accumulators carry weight×activation products.
man::fixed::QFormat accumulator_format(const man::nn::QuantSpec& spec) {
  return man::fixed::QFormat(
      30, spec.weight_format.frac_bits() + spec.activation_format.frac_bits());
}

// Staged values resolved per PrecomputerCache::lookup_rows() call by
// the per-sample staging loops (row pointers live on the stack).
constexpr std::size_t kRowChunk = 256;

// Stages the CSHM bank outputs of every input element, k-strided
// element-major, into `multiples` (values.size() × k slots) — the
// dense path's staging loop. Values resolve through the cache's flat
// table (subtract + indexed load, no hashing).
void stage_multiples(std::span<const std::int64_t> values, std::size_t k,
                     man::core::PrecomputerCache& cache,
                     std::int32_t* multiples) {
  OpCounts discard;
  const std::int32_t* rows[kRowChunk];
  for (std::size_t i0 = 0; i0 < values.size(); i0 += kRowChunk) {
    const std::size_t n = std::min(kRowChunk, values.size() - i0);
    cache.lookup_rows(values.subspan(i0, n), rows, discard);
    std::int32_t* dest = multiples + i0 * k;
    for (std::size_t i = 0; i < n; ++i, dest += k) {
      std::copy_n(rows[i], k, dest);
    }
  }
}

// Lane-major variant for the conv path: lane l's multiple of element i
// lands at multiples[l · values.size() + i], so consecutive output
// positions of one conv weight read consecutive slots (the layout
// ConvLayerPlan::idx indexes). Written one lane at a time, so the
// stores run contiguously.
void stage_multiples_lane_major(std::span<const std::int64_t> values,
                                std::size_t k,
                                man::core::PrecomputerCache& cache,
                                std::int32_t* multiples) {
  OpCounts discard;
  const std::int32_t* rows[kRowChunk];
  const std::size_t stride = values.size();
  for (std::size_t i0 = 0; i0 < stride; i0 += kRowChunk) {
    const std::size_t n = std::min(kRowChunk, stride - i0);
    cache.lookup_rows(values.subspan(i0, n), rows, discard);
    for (std::size_t l = 0; l < k; ++l) {
      std::int32_t* dest = multiples + l * stride + i0;
      for (std::size_t i = 0; i < n; ++i) dest[i] = rows[i][l];
    }
  }
}

// Slot-major staging for one column block of a batch tile. `values`
// holds the block's inputs lane-major (input c of sample b at
// c·lanes + b, c counted from the block's first column); alphabet l of
// that input lands at (c·k + l)·lanes + b — the layout
// KernelBackend::accumulate_dense_batch reads, so one weight step
// loads `lanes` consecutive slots. Each column's lanes resolve in one
// lookup_rows() call through the same flat-table cache as the
// per-sample path.
void stage_tile_block(std::span<const std::int64_t> values, std::size_t lanes,
                      std::size_t k, man::core::PrecomputerCache& cache,
                      std::int32_t* block) {
  OpCounts discard;
  const std::int32_t* rows[man::backend::kMaxBatchLanes];
  for (std::size_t v0 = 0; v0 < values.size(); v0 += lanes) {
    cache.lookup_rows(values.subspan(v0, lanes), rows, discard);
    for (std::size_t b = 0; b < lanes; ++b) {
      for (std::size_t l = 0; l < k; ++l) block[l * lanes + b] = rows[b][l];
    }
    block += k * lanes;
  }
}

// Quantizes pixels [c0, c1) of `lanes` consecutive samples (each
// `stride` floats) into `values`, lane-major as stage_tile_block reads
// them. Each sample's pixels are read as one contiguous run: walking
// the lanes of one column instead would put every load `stride`
// floats apart, into the same few L1 sets.
void quantize_tile_block(const man::fixed::QFormat& format,
                         const float* pixels, std::size_t stride,
                         std::size_t c0, std::size_t c1, std::size_t lanes,
                         std::vector<std::int64_t>& values) {
  values.resize((c1 - c0) * lanes);
  std::int64_t* const dest = values.data();
  for (std::size_t b = 0; b < lanes; ++b) {
    const float* row = pixels + b * stride + c0;
    for (std::size_t c = 0; c < c1 - c0; ++c) {
      dest[c * lanes + b] = format.quantize(static_cast<double>(row[c]));
    }
  }
}

// Staged bytes per column block of a batch tile: the block stays in
// L1 while every row of the stage streams over it.
constexpr std::size_t kTileBlockBytes = 32 * 1024;

// Rejects an ASM plan whose int32 kernel lanes could overflow: the
// kernels are exact only while every row's |bias| + Σ|w|·max|x| fits.
template <typename Plan>
void check_int32_bound(const Plan& plan, const man::core::PrecomputerBank& bank,
                       std::uint64_t max_abs_input, const std::string& stage) {
  const std::uint64_t bound = man::backend::magnitude_bound(
      plan, bank.alphabet_set().alphabets(), max_abs_input);
  if (bound > man::backend::kInt32LaneBound) {
    throw std::invalid_argument(
        "FixedNetwork: stage \"" + stage + "\" has |bias| + sum |w|*max|x| = " +
        std::to_string(bound) + ", above the int32 lane bound " +
        std::to_string(man::backend::kInt32LaneBound));
  }
}

// Quantizes one sample's pixels into `buffer` (activation raw units).
void quantize_pixels(const man::fixed::QFormat& format,
                     std::span<const float> pixels,
                     std::vector<std::int64_t>& buffer) {
  buffer.resize(pixels.size());
  std::int64_t* const dest = buffer.data();
  for (std::size_t i = 0; i < pixels.size(); ++i) {
    dest[i] = format.quantize(static_cast<double>(pixels[i]));
  }
}

// Non-overlapping window×window average pooling of `c` channels of
// ih×iw activations into c×oh×ow outputs, rounded to nearest with
// ties away from zero: sign(sum)·divide(|sum|), where divide(m) is
// floor((m + n/2) / n) for n = window². Each output row accumulates
// its window sums in place, one input row pointer at a time, then
// rounds them.
template <typename Divide>
void average_pool_rows(const std::int64_t* in, std::int64_t* out, int c,
                       int ih, int iw, int window, int oh, int ow,
                       Divide divide) {
  const auto row = static_cast<std::ptrdiff_t>(iw);
  const auto step = static_cast<std::ptrdiff_t>(window);
  for (int ch = 0; ch < c; ++ch) {
    const std::int64_t* r = in + static_cast<std::ptrdiff_t>(ch) * ih * iw;
    for (int oy = 0; oy < oh; ++oy, out += ow) {
      std::fill_n(out, ow, 0);
      for (std::ptrdiff_t y = 0; y < step; ++y, r += row) {
        for (std::ptrdiff_t x = 0; x < step; ++x) {
          for (int ox = 0; ox < ow; ++ox) out[ox] += r[ox * step + x];
        }
      }
      for (int ox = 0; ox < ow; ++ox) {
        const std::int64_t sign = out[ox] >> 63;  // 0 or -1
        out[ox] = (divide((out[ox] ^ sign) - sign) ^ sign) - sign;
      }
    }
  }
}

// average_pool_rows with its divisor fixed once per stage: a shift
// when window² is a power of two (the hardware's add tree + shift),
// an integer division otherwise.
void average_pool(const std::int64_t* in, std::int64_t* out, int c, int ih,
                  int iw, int window, int oh, int ow) {
  const std::int64_t n = std::int64_t{window} * window;
  const std::int64_t half = n / 2;
  if ((n & (n - 1)) == 0) {
    const int shift = std::countr_zero(static_cast<std::uint64_t>(n));
    average_pool_rows(in, out, c, ih, iw, window, oh, ow,
                      [=](std::int64_t m) { return (m + half) >> shift; });
  } else {
    average_pool_rows(in, out, c, ih, iw, window, oh, ow,
                      [=](std::int64_t m) { return (m + half) / n; });
  }
}

// Charges `n` inferences' static activity of one synapse stage.
template <typename Synapse>
void charge(LayerStats& layer, const Synapse& synapse, std::uint64_t n) {
  layer.macs += synapse.macs * n;
  layer.bank_activations += synapse.bank_activations * n;
  for (std::uint64_t i = 0; i < n; ++i) layer.ops += synapse.ops_per_inference;
}

// Phase timing shim: runs `fn` and charges its wall clock to the given
// PhaseProfile field when profiling is on (profile non-null).
template <typename Fn>
void timed_phase(PhaseProfile* profile, double PhaseProfile::*field,
                 Fn&& fn) {
  if (profile == nullptr) {
    fn();
    return;
  }
  man::util::Stopwatch watch;
  fn();
  profile->*field += watch.seconds();
}

}  // namespace

FixedNetwork::FixedNetwork(man::nn::Network& network,
                           man::nn::QuantSpec spec, LayerAlphabetPlan plan,
                           int lanes)
    : spec_(spec), plan_(std::move(plan)), lanes_(lanes) {
  if (lanes_ < 1) {
    throw std::invalid_argument("FixedNetwork: lanes must be >= 1");
  }
  (void)staging_window();  // rejects activation formats too wide to stage
  if (plan_.size() != network.num_weight_layers()) {
    throw std::invalid_argument(
        "FixedNetwork: plan has " + std::to_string(plan_.size()) +
        " schemes for " + std::to_string(network.num_weight_layers()) +
        " synapse layers");
  }

  const auto acc_format = accumulator_format(spec_);
  std::size_t synapse_index = 0;
  for (std::size_t li = 0; li < network.num_layers(); ++li) {
    man::nn::Layer& layer = network.layer(li);
    if (auto* dense = dynamic_cast<man::nn::Dense*>(&layer)) {
      DenseStage stage;
      stage.in = dense->in_features();
      stage.out = dense->out_features();
      stage.synapse.scheme = plan_.scheme(synapse_index++);
      compile_synapse(stage.synapse, dense->weights(), dense->biases(),
                      static_cast<std::uint64_t>(stage.in) * stage.out,
                      stage.out);
      synapse_stage_indices_.push_back(stages_.size());
      stats_.layers.push_back(LayerStats{dense->name(), 0, 0, {}});
      stages_.emplace_back(std::move(stage));
    } else if (auto* conv = dynamic_cast<man::nn::Conv2D*>(&layer)) {
      ConvStage stage;
      stage.ic = conv->in_channels();
      stage.oc = conv->out_channels();
      stage.k = conv->kernel();
      stage.ih = conv->in_height();
      stage.iw = conv->in_width();
      stage.oh = conv->out_height();
      stage.ow = conv->out_width();
      stage.synapse.scheme = plan_.scheme(synapse_index++);
      compile_synapse(stage.synapse, conv->weights(),
                      std::span<const float>(conv->biases().data(),
                                             conv->biases().size()),
                      conv->macs_per_inference(), stage.oc);
      synapse_stage_indices_.push_back(stages_.size());
      stats_.layers.push_back(LayerStats{conv->name(), 0, 0, {}});
      stages_.emplace_back(std::move(stage));
    } else if (auto* pool = dynamic_cast<man::nn::AvgPool2D*>(&layer)) {
      PoolStage stage;
      stage.c = pool->channels();
      stage.ih = pool->in_height();
      stage.iw = pool->in_width();
      stage.window = pool->window();
      stage.oh = pool->out_height();
      stage.ow = pool->out_width();
      stages_.emplace_back(stage);
    } else if (auto* act =
                   dynamic_cast<man::nn::ActivationLayer*>(&layer)) {
      stages_.emplace_back(LutStage{man::core::FixedActivationLut(
          act->kind(), acc_format, spec_.activation_format)});
    } else {
      throw std::invalid_argument("FixedNetwork: unsupported layer type: " +
                                  layer.name());
    }
  }

  link_stages();
  compile_plan();
  default_kernel_ = &man::backend::resolve();
}

void FixedNetwork::link_stages() {
  // Static stage-graph geometry: records input/output sizes (span
  // validation, batch buffer pre-allocation) and rejects mis-chained
  // networks up front — infer_into() itself no longer re-checks every
  // stage boundary per sample.
  std::size_t current = 0;  // 0 until the first size-defining stage
  const auto check_chain = [&](std::size_t expected, const char* kind) {
    if (current != 0 && current != expected) {
      throw std::invalid_argument(
          std::string("FixedNetwork: ") + kind + " stage expects " +
          std::to_string(expected) + " inputs but previous stage produces " +
          std::to_string(current));
    }
  };
  for (const Stage& stage : stages_) {
    if (const auto* dense = std::get_if<DenseStage>(&stage)) {
      check_chain(static_cast<std::size_t>(dense->in), "dense");
      if (input_size_ == 0) input_size_ = static_cast<std::size_t>(dense->in);
      current = static_cast<std::size_t>(dense->out);
    } else if (const auto* conv = std::get_if<ConvStage>(&stage)) {
      const auto conv_in =
          static_cast<std::size_t>(conv->ic) * conv->ih * conv->iw;
      check_chain(conv_in, "conv");
      if (input_size_ == 0) input_size_ = conv_in;
      current = static_cast<std::size_t>(conv->oc) * conv->oh * conv->ow;
    } else if (const auto* pool = std::get_if<PoolStage>(&stage)) {
      const auto pool_in =
          static_cast<std::size_t>(pool->c) * pool->ih * pool->iw;
      check_chain(pool_in, "pool");
      if (input_size_ == 0) input_size_ = pool_in;
      current = static_cast<std::size_t>(pool->c) * pool->oh * pool->ow;
    }
  }
  output_size_ = current;

  // The dense tail: the longest suffix of ASM dense and LUT stages,
  // from its first ASM dense stage on. Exact dense stages gain nothing
  // from lanes, so they end the tail and run per sample.
  tail_begin_ = stages_.size();
  for (std::size_t i = stages_.size(); i-- > 0;) {
    if (std::holds_alternative<LutStage>(stages_[i])) continue;
    const auto* dense = std::get_if<DenseStage>(&stages_[i]);
    if (dense == nullptr ||
        dense->synapse.scheme.multiplier == MultiplierKind::kExact) {
      break;
    }
    tail_begin_ = i;
  }
  tail_synapse_ = static_cast<std::size_t>(
      std::count_if(synapse_stage_indices_.begin(),
                    synapse_stage_indices_.end(),
                    [&](std::size_t i) { return i < tail_begin_; }));
}

namespace {

std::vector<LayerScheme> synapse_schemes(const CompiledModel& model) {
  std::vector<LayerScheme> schemes;
  for (const CompiledStage& stage : model.stages) {
    if (const auto* dense = std::get_if<CompiledDenseStage>(&stage)) {
      schemes.push_back(dense->synapse.scheme);
    } else if (const auto* conv = std::get_if<CompiledConvStage>(&stage)) {
      schemes.push_back(conv->synapse.scheme);
    }
  }
  return schemes;
}

}  // namespace

FixedNetwork::FixedNetwork(const CompiledModel& model,
                           std::vector<man::backend::DenseLayerPlan> plans,
                           std::vector<man::backend::ConvLayerPlan> conv_plans,
                           std::shared_ptr<const void> storage)
    : spec_(model.spec),
      plan_(LayerAlphabetPlan(synapse_schemes(model))),
      lanes_(model.lanes),
      plans_(std::move(plans)),
      conv_plans_(std::move(conv_plans)),
      storage_(std::move(storage)) {
  if (lanes_ < 1) {
    throw std::invalid_argument("FixedNetwork: lanes must be >= 1");
  }
  (void)staging_window();  // rejects activation formats too wide to stage
  const auto acc_format = accumulator_format(spec_);
  const auto restore_synapse = [](SynapseData& syn,
                                  const CompiledSynapse& cs) {
    syn.scheme = cs.scheme;
    // Banks are cheap deterministic functions of the alphabet set —
    // rebuilt here instead of serialized.
    syn.bank = man::core::PrecomputerBank(cs.scheme.effective_alphabets());
    syn.macs = cs.macs;
    syn.bank_activations = cs.bank_activations;
    syn.ops_per_inference = cs.ops_per_inference;
  };

  std::size_t dense_count = 0;
  std::size_t conv_count = 0;
  for (const CompiledStage& cs : model.stages) {
    if (const auto* d = std::get_if<CompiledDenseStage>(&cs)) {
      if (dense_count >= plans_.size()) {
        throw std::invalid_argument(
            "FixedNetwork: more dense stages than dense plans");
      }
      const auto& plan = plans_[dense_count];
      const bool exact =
          d->synapse.scheme.multiplier == MultiplierKind::kExact;
      if (plan.rows != d->out || plan.cols != d->in || plan.exact != exact) {
        throw std::invalid_argument(
            "FixedNetwork: dense plan disagrees with its stage descriptor");
      }
      DenseStage stage;
      stage.in = d->in;
      stage.out = d->out;
      stage.plan_index = static_cast<int>(dense_count++);
      restore_synapse(stage.synapse, d->synapse);
      synapse_stage_indices_.push_back(stages_.size());
      stats_.layers.push_back(LayerStats{d->synapse.name, 0, 0, {}});
      stages_.emplace_back(std::move(stage));
    } else if (const auto* c = std::get_if<CompiledConvStage>(&cs)) {
      if (conv_count >= conv_plans_.size()) {
        throw std::invalid_argument(
            "FixedNetwork: more conv stages than conv plans");
      }
      const auto& plan = conv_plans_[conv_count];
      const bool exact =
          c->synapse.scheme.multiplier == MultiplierKind::kExact;
      if (plan.oc != c->oc || plan.ic != c->ic || plan.kernel != c->k ||
          plan.ih != c->ih || plan.iw != c->iw || plan.oh != c->oh ||
          plan.ow != c->ow || plan.exact != exact) {
        throw std::invalid_argument(
            "FixedNetwork: conv plan disagrees with its stage descriptor");
      }
      ConvStage stage;
      stage.ic = c->ic;
      stage.oc = c->oc;
      stage.k = c->k;
      stage.ih = c->ih;
      stage.iw = c->iw;
      stage.oh = c->oh;
      stage.ow = c->ow;
      stage.plan_index = static_cast<int>(conv_count++);
      restore_synapse(stage.synapse, c->synapse);
      synapse_stage_indices_.push_back(stages_.size());
      stats_.layers.push_back(LayerStats{c->synapse.name, 0, 0, {}});
      stages_.emplace_back(std::move(stage));
    } else if (const auto* p = std::get_if<CompiledPoolStage>(&cs)) {
      PoolStage stage;
      stage.c = p->c;
      stage.ih = p->ih;
      stage.iw = p->iw;
      stage.window = p->window;
      stage.oh = p->oh;
      stage.ow = p->ow;
      stages_.emplace_back(stage);
    } else if (const auto* l = std::get_if<CompiledLutStage>(&cs)) {
      stages_.emplace_back(LutStage{man::core::FixedActivationLut(
          l->kind, acc_format, spec_.activation_format)});
    }
  }
  if (dense_count != plans_.size() || conv_count != conv_plans_.size()) {
    throw std::invalid_argument(
        "FixedNetwork: plan count disagrees with stage descriptors");
  }

  link_stages();
  // Plans saved on a host without live vector backends arrive with
  // untuned tiles; finish the pick here (no-op when already tuned,
  // exact, or tiny).
  for (auto& plan : conv_plans_) {
    if (!plan.tiles_tuned) man::backend::autotune_conv_plan(plan);
  }
  default_kernel_ = &man::backend::resolve();
}

CompiledModel FixedNetwork::compiled_model() const {
  CompiledModel model;
  model.spec = spec_;
  model.lanes = lanes_;
  model.stages.reserve(stages_.size());
  std::size_t synapse_counter = 0;
  const auto export_synapse = [&](const SynapseData& syn) {
    CompiledSynapse cs;
    cs.scheme = syn.scheme;
    cs.name = stats_.layers[synapse_counter++].name;
    cs.macs = syn.macs;
    cs.bank_activations = syn.bank_activations;
    cs.ops_per_inference = syn.ops_per_inference;
    return cs;
  };
  for (const Stage& stage : stages_) {
    if (const auto* dense = std::get_if<DenseStage>(&stage)) {
      model.stages.emplace_back(CompiledDenseStage{
          dense->in, dense->out, export_synapse(dense->synapse)});
    } else if (const auto* conv = std::get_if<ConvStage>(&stage)) {
      model.stages.emplace_back(CompiledConvStage{
          conv->ic, conv->oc, conv->k, conv->ih, conv->iw, conv->oh,
          conv->ow, export_synapse(conv->synapse)});
    } else if (const auto* pool = std::get_if<PoolStage>(&stage)) {
      model.stages.emplace_back(CompiledPoolStage{
          pool->c, pool->ih, pool->iw, pool->window, pool->oh, pool->ow});
    } else if (const auto* lut = std::get_if<LutStage>(&stage)) {
      model.stages.emplace_back(CompiledLutStage{lut->lut.kind()});
    }
  }
  return model;
}

void FixedNetwork::compile_plan() {
  // Every synapse stage's inputs are quantized pixels, LUT outputs,
  // or pool averages of those — all confined to the activation
  // format's raw range, the window make_scratch() arms the flat CSHM
  // tables with. Its max|x| is the input magnitude of each ASM plan's
  // int32 overflow proof.
  const auto [in_min, in_max] = staging_window();
  const auto max_abs_input = static_cast<std::uint64_t>(
      std::max(in_max, -in_min));

  // The synapse runtime paths read only the plans from here on, so the
  // schedules move instead of copy — no weight is resident twice.
  std::size_t synapse_index = 0;
  for (Stage& stage : stages_) {
    if (auto* dense = std::get_if<DenseStage>(&stage)) {
      SynapseData& syn = dense->synapse;
      dense->plan_index = static_cast<int>(plans_.size());
      if (syn.scheme.multiplier == MultiplierKind::kExact) {
        plans_.push_back(man::backend::DenseLayerPlan::build_exact(
            dense->out, dense->in, std::move(syn.weights_raw),
            std::move(syn.biases_raw)));
      } else {
        syn.weights_raw.clear();
        syn.weights_raw.shrink_to_fit();
        plans_.push_back(man::backend::DenseLayerPlan::build_asm(
            dense->out, dense->in,
            static_cast<int>(syn.bank.alphabet_set().size()),
            std::move(syn.asm_weights), std::move(syn.steps),
            std::move(syn.biases_raw)));
        check_int32_bound(plans_.back(), syn.bank, max_abs_input,
                          stats_.layers[synapse_index].name);
      }
      ++synapse_index;
    } else if (auto* conv = std::get_if<ConvStage>(&stage)) {
      SynapseData& syn = conv->synapse;
      conv->plan_index = static_cast<int>(conv_plans_.size());
      if (syn.scheme.multiplier == MultiplierKind::kExact) {
        conv_plans_.push_back(man::backend::ConvLayerPlan::build_exact(
            conv->oc, conv->ic, conv->k, conv->ih, conv->iw,
            std::move(syn.weights_raw), std::move(syn.biases_raw)));
      } else {
        syn.weights_raw.clear();
        syn.weights_raw.shrink_to_fit();
        conv_plans_.push_back(man::backend::ConvLayerPlan::build_asm(
            conv->oc, conv->ic, conv->k, conv->ih, conv->iw,
            static_cast<int>(syn.bank.alphabet_set().size()),
            std::move(syn.asm_weights), std::move(syn.steps),
            std::move(syn.biases_raw)));
        check_int32_bound(conv_plans_.back(), syn.bank, max_abs_input,
                          stats_.layers[synapse_index].name);
      }
      ++synapse_index;
      // One-shot register-blocking microbench: pick the vector
      // kernels' tile shapes for this geometry (construction is
      // single-threaded; the plan is immutable afterwards).
      man::backend::autotune_conv_plan(conv_plans_.back());
    }
  }
}

const FixedNetwork::SynapseData& FixedNetwork::synapse_at(
    std::size_t stage_index) const {
  const Stage& stage = stages_[stage_index];
  if (const auto* dense = std::get_if<DenseStage>(&stage)) {
    return dense->synapse;
  }
  return std::get<ConvStage>(stage).synapse;
}

std::pair<std::int64_t, std::int64_t> FixedNetwork::staging_window() const {
  const std::int64_t in_min = spec_.activation_format.min_raw();
  const std::int64_t in_max = spec_.activation_format.max_raw();
  const auto span = static_cast<std::uint64_t>(in_max - in_min) + 1;
  if (span > man::core::PrecomputerCache::kMaxFlatSpan) {
    throw std::invalid_argument(
        "FixedNetwork: activation format " +
        spec_.activation_format.to_string() + " spans " +
        std::to_string(span) + " raw values; the CSHM staging window holds " +
        std::to_string(man::core::PrecomputerCache::kMaxFlatSpan));
  }
  return {in_min, in_max};
}

FixedNetwork::InferScratch FixedNetwork::make_scratch() const {
  InferScratch scratch;
  const auto [in_min, in_max] = staging_window();
  scratch.buffer.reserve(input_size_);
  scratch.caches.reserve(synapse_stage_indices_.size());
  for (std::size_t idx : synapse_stage_indices_) {
    scratch.caches.emplace_back(synapse_at(idx).bank);
    scratch.caches.back().configure_range(in_min, in_max);
  }
  return scratch;
}

EngineStats FixedNetwork::make_stats() const {
  EngineStats stats;
  stats.layers.reserve(stats_.layers.size());
  for (const LayerStats& layer : stats_.layers) {
    stats.layers.push_back(LayerStats{layer.name, 0, 0, {}});
  }
  return stats;
}

void FixedNetwork::compile_synapse(SynapseData& synapse,
                                   std::span<const float> weights,
                                   std::span<const float> biases,
                                   std::uint64_t macs, int out_neurons) {
  const auto& wfmt = spec_.weight_format;
  const QuartetLayout layout(wfmt.total_bits());
  const AlphabetSet& set = synapse.scheme.effective_alphabets();
  const bool is_asm = synapse.scheme.multiplier != MultiplierKind::kExact;

  synapse.macs = macs;
  synapse.bank = man::core::PrecomputerBank(set);

  // Quantize (and constrain, for ASM schemes) every weight.
  synapse.weights_raw.reserve(weights.size());
  std::unique_ptr<WeightConstraint> constraint;
  if (is_asm) constraint = std::make_unique<WeightConstraint>(layout, set);
  for (float w : weights) {
    std::int32_t raw = wfmt.quantize(static_cast<double>(w));
    if (constraint) raw = constraint->constrain(raw);
    synapse.weights_raw.push_back(raw);
  }

  // Biases live at product scale: value·2^(wfrac+afrac).
  const int bias_shift =
      wfmt.frac_bits() + spec_.activation_format.frac_bits();
  synapse.biases_raw.reserve(biases.size());
  for (float b : biases) {
    const double scaled = static_cast<double>(b) * std::pow(2.0, bias_shift);
    synapse.biases_raw.push_back(static_cast<std::int64_t>(
        scaled >= 0 ? scaled + 0.5 : scaled - 0.5));
  }

  // Static per-inference op counts (the accumulator add per MAC).
  OpCounts& ops = synapse.ops_per_inference;
  const std::uint64_t fires_per_weight =
      weights.empty() ? 0 : macs / weights.size();

  if (!is_asm) {
    ops.adds = macs;  // accumulator adds; multiplier priced structurally
    synapse.bank_activations = 0;
    return;
  }

  // Compile the select/shift schedule of every weight.
  const auto alphabets = set.alphabets();
  synapse.asm_weights.reserve(synapse.weights_raw.size());
  for (std::int32_t raw : synapse.weights_raw) {
    AsmWeight compiled;
    compiled.step_begin = static_cast<std::uint32_t>(synapse.steps.size());
    const man::core::SignMagnitude sm =
        man::core::to_sign_magnitude(raw, layout);
    compiled.negative = sm.negative;
    for (int q = 0; q < layout.num_quartets(); ++q) {
      const int width = layout.quartet_width(q);
      const int value =
          (sm.magnitude >> layout.quartet_shift(q)) & ((1 << width) - 1);
      if (value == 0) continue;
      const auto enc = set.encode(value, width);
      if (!enc) {
        throw std::logic_error(
            "FixedNetwork: constrained weight has unsupported quartet");
      }
      std::uint8_t lane = 0;
      while (alphabets[lane] != enc->alphabet) ++lane;
      synapse.steps.push_back(Step{
          lane,
          static_cast<std::uint8_t>(enc->shift + layout.quartet_shift(q))});
      ++compiled.step_count;
    }
    synapse.asm_weights.push_back(compiled);

    // Per-fire activity of this weight.
    ops.selects += compiled.step_count * fires_per_weight;
    ops.shifts += compiled.step_count * fires_per_weight;
    if (compiled.step_count > 1) {
      ops.adds += (compiled.step_count - 1) * fires_per_weight;
    }
    if (compiled.negative) ops.negates += fires_per_weight;
  }
  ops.adds += macs;  // accumulator adds

  // Hardware bank firings: the bank serves `lanes_` neurons at a time,
  // re-streaming the inputs for each neuron group (Fig 3).
  const std::uint64_t groups =
      (static_cast<std::uint64_t>(out_neurons) + lanes_ - 1) / lanes_;
  const std::uint64_t inputs_per_group =
      out_neurons == 0 ? 0 : macs / out_neurons;
  synapse.bank_activations = groups * inputs_per_group;
  ops.precomputer_adds =
      synapse.bank_activations *
      static_cast<std::uint64_t>(synapse.bank.adder_count());
}

void FixedNetwork::infer_into(std::span<const float> pixels,
                              std::span<std::int64_t> out,
                              EngineStats& stats,
                              InferScratch& scratch) const {
  infer_into(pixels, out, stats, scratch, *default_kernel_);
}

void FixedNetwork::infer_into(std::span<const float> pixels,
                              std::span<std::int64_t> out,
                              EngineStats& stats, InferScratch& scratch,
                              const man::backend::KernelBackend& kernel) const {
  if (pixels.size() != input_size_) {
    throw std::invalid_argument(
        "FixedNetwork: input has " + std::to_string(pixels.size()) +
        " values, engine expects " + std::to_string(input_size_));
  }
  if (out.size() != output_size_) {
    throw std::invalid_argument(
        "FixedNetwork: output span has " + std::to_string(out.size()) +
        " slots, engine produces " + std::to_string(output_size_));
  }
  prepare(stats, scratch);
  forward_one(pixels, out, stats, scratch, kernel);
}

void FixedNetwork::infer_batch_into(
    std::span<const float> inputs, std::span<std::int64_t> outputs,
    EngineStats& stats, InferScratch& scratch,
    const man::backend::KernelBackend& kernel) const {
  if (input_size_ == 0 || inputs.size() % input_size_ != 0) {
    throw std::invalid_argument(
        "FixedNetwork: batch input is not a whole number of samples");
  }
  const std::size_t count = inputs.size() / input_size_;
  if (outputs.size() != count * output_size_) {
    throw std::invalid_argument(
        "FixedNetwork: batch output span has " +
        std::to_string(outputs.size()) + " slots for " +
        std::to_string(count) + " samples of " +
        std::to_string(output_size_));
  }
  prepare(stats, scratch);
  const auto min_lanes = static_cast<std::size_t>(
      tail_begin_ < stages_.size() ? kernel.min_batch_lanes()
                                   : man::backend::kNeverBatchLanes);
  for (std::size_t begin = 0; begin < count;) {
    const std::size_t lanes = std::min<std::size_t>(
        count - begin, man::backend::kMaxBatchLanes);
    const auto in = inputs.subspan(begin * input_size_, lanes * input_size_);
    const auto out =
        outputs.subspan(begin * output_size_, lanes * output_size_);
    if (lanes >= min_lanes) {
      forward_tile(in, out, static_cast<int>(lanes), stats, scratch, kernel);
    } else {
      for (std::size_t b = 0; b < lanes; ++b) {
        forward_one(in.subspan(b * input_size_, input_size_),
                    out.subspan(b * output_size_, output_size_), stats,
                    scratch, kernel);
      }
    }
    begin += lanes;
  }
}

void FixedNetwork::prepare(EngineStats& stats, InferScratch& scratch) const {
  // Re-bind the caches of a scratch that is default-constructed or was
  // made by a different engine (they would serve another bank's
  // multiples). Only the caches are replaced; the buffers stay put.
  bool scratch_matches =
      scratch.caches.size() == synapse_stage_indices_.size();
  for (std::size_t si = 0; scratch_matches && si < scratch.caches.size();
       ++si) {
    scratch_matches = scratch.caches[si].bank() ==
                      &synapse_at(synapse_stage_indices_[si]).bank;
  }
  if (!scratch_matches) scratch.caches = make_scratch().caches;
  if (stats.layers.empty()) stats = make_stats();
  if (stats.layers.size() != stats_.layers.size()) {
    throw std::invalid_argument(
        "FixedNetwork: stats layout mismatch; use make_stats()");
  }
}

void FixedNetwork::forward_one(std::span<const float> pixels,
                               std::span<std::int64_t> out,
                               EngineStats& stats, InferScratch& scratch,
                               const man::backend::KernelBackend& kernel) const {
  std::vector<std::int64_t>& buffer = scratch.buffer;
  timed_phase(scratch.profile, &PhaseProfile::quantize_s, [&] {
    quantize_pixels(spec_.activation_format, pixels, buffer);
  });
  run_stages(stages_.size(), stats, scratch, kernel);
  stats.inferences += 1;
  std::copy(buffer.begin(), buffer.end(), out.begin());
}

void FixedNetwork::run_stages(std::size_t end, EngineStats& stats,
                              InferScratch& scratch,
                              const man::backend::KernelBackend& kernel) const {
  PhaseProfile* const profile = scratch.profile;
  std::vector<std::int64_t>& buffer = scratch.buffer;
  std::size_t synapse = 0;
  for (std::size_t si = 0; si < end; ++si) {
    const Stage& stage = stages_[si];
    if (const auto* dense = std::get_if<DenseStage>(&stage)) {
      std::vector<std::int64_t>& next = scratch.next;
      next.assign(static_cast<std::size_t>(dense->out), 0);
      const man::backend::DenseLayerPlan& plan =
          plans_[static_cast<std::size_t>(dense->plan_index)];

      if (plan.exact) {
        timed_phase(profile, &PhaseProfile::kernel_s, [&] {
          kernel.exact_dense(plan, buffer.data(), next.data());
        });
      } else {
        // Pre-computer bank outputs for every input value (computed
        // once per distinct value per shard, shared across lanes —
        // CSHM; values resolve via the flat direct-mapped table),
        // staged k-strided plus the trailing zero slot the quartet
        // planes point absent entries at.
        std::vector<std::int32_t>& multiples = scratch.multiples;
        timed_phase(profile, &PhaseProfile::staging_s, [&] {
          multiples.resize(plan.padded_multiples());
          stage_multiples(buffer, static_cast<std::size_t>(plan.k),
                          scratch.caches[synapse], multiples.data());
          multiples[plan.zero_slot] = 0;
        });
        if (profile != nullptr) profile->staged_values += buffer.size();
        timed_phase(profile, &PhaseProfile::kernel_s, [&] {
          kernel.accumulate_dense(plan, multiples.data(), next.data());
        });
      }
      charge(stats.layers[synapse++], dense->synapse, 1);
      std::swap(buffer, next);
    } else if (const auto* conv = std::get_if<ConvStage>(&stage)) {
      std::vector<std::int64_t>& next = scratch.next;
      next.resize(static_cast<std::size_t>(conv->oc) * conv->oh * conv->ow);
      const man::backend::ConvLayerPlan& plan =
          conv_plans_[static_cast<std::size_t>(conv->plan_index)];

      if (plan.exact) {
        timed_phase(profile, &PhaseProfile::kernel_s, [&] {
          kernel.exact_conv(plan, buffer.data(), next.data());
        });
      } else {
        // Lane-major staging (consecutive positions read consecutive
        // slots), plus the zero *region* the conv planes point absent
        // quartets at (wide enough to stay zero under every
        // per-position base offset).
        std::vector<std::int32_t>& multiples = scratch.multiples;
        timed_phase(profile, &PhaseProfile::staging_s, [&] {
          multiples.resize(plan.padded_multiples());
          stage_multiples_lane_major(buffer,
                                     static_cast<std::size_t>(plan.k),
                                     scratch.caches[synapse],
                                     multiples.data());
          std::fill(multiples.begin() + plan.zero_base, multiples.end(), 0);
        });
        if (profile != nullptr) profile->staged_values += buffer.size();
        timed_phase(profile, &PhaseProfile::kernel_s, [&] {
          kernel.accumulate_conv(plan, multiples.data(), next.data());
        });
      }
      charge(stats.layers[synapse++], conv->synapse, 1);
      std::swap(buffer, next);
    } else if (const auto* pool = std::get_if<PoolStage>(&stage)) {
      std::vector<std::int64_t>& next = scratch.next;
      next.resize(static_cast<std::size_t>(pool->c) * pool->oh * pool->ow);
      timed_phase(profile, &PhaseProfile::pool_s, [&] {
        average_pool(buffer.data(), next.data(), pool->c, pool->ih, pool->iw,
                     pool->window, pool->oh, pool->ow);
      });
      std::swap(buffer, next);
    } else if (const auto* lut = std::get_if<LutStage>(&stage)) {
      timed_phase(profile, &PhaseProfile::lut_s,
                  [&] { lut->lut.apply_raw_in_place(buffer); });
      if (profile != nullptr) profile->lut_values += buffer.size();
    }
  }
}

void FixedNetwork::forward_tile(std::span<const float> inputs,
                                std::span<std::int64_t> outputs, int lanes,
                                EngineStats& stats, InferScratch& scratch,
                                const man::backend::KernelBackend& kernel) const {
  const auto n = static_cast<std::size_t>(lanes);
  PhaseProfile* const profile = scratch.profile;
  std::vector<std::int64_t>& tile = scratch.tile;

  // Stages before the tail run sample by sample; each sample's output
  // lands in its lane of the tile.
  if (tail_begin_ > 0) {
    for (std::size_t b = 0; b < n; ++b) {
      std::vector<std::int64_t>& buffer = scratch.buffer;
      timed_phase(profile, &PhaseProfile::quantize_s, [&] {
        quantize_pixels(spec_.activation_format,
                        inputs.subspan(b * input_size_, input_size_), buffer);
      });
      run_stages(tail_begin_, stats, scratch, kernel);
      tile.resize(buffer.size() * n);
      for (std::size_t c = 0; c < buffer.size(); ++c) {
        tile[c * n + b] = buffer[c];
      }
    }
  }

  std::size_t synapse = tail_synapse_;
  for (std::size_t si = tail_begin_; si < stages_.size(); ++si) {
    if (const auto* lut = std::get_if<LutStage>(&stages_[si])) {
      timed_phase(profile, &PhaseProfile::lut_s,
                  [&] { lut->lut.apply_raw_in_place(tile); });
      if (profile != nullptr) profile->lut_values += tile.size();
      continue;
    }
    const auto& dense = std::get<DenseStage>(stages_[si]);
    const man::backend::DenseLayerPlan& plan =
        plans_[static_cast<std::size_t>(dense.plan_index)];
    const auto rows = static_cast<std::size_t>(plan.rows);
    const auto cols = static_cast<std::size_t>(plan.cols);
    std::vector<std::int64_t>& next = scratch.tile_next;
    next.resize(rows * n);

    for (std::size_t r = 0; r < rows; ++r) {
      std::fill_n(next.begin() + static_cast<std::ptrdiff_t>(r * n), n,
                  plan.biases[r]);
    }
    // Column blocks of about kTileBlockBytes of staged multiples keep
    // them L1-resident while every row streams over them; the first
    // tail stage quantizes its pixels one column block at a time into
    // scratch.buffer (unused when the tail starts at stage 0), so no
    // lane-major copy of the whole input is ever made.
    const auto k = static_cast<std::size_t>(plan.k);
    const std::size_t block_cols = std::max<std::size_t>(
        1, kTileBlockBytes / (sizeof(std::int32_t) * k * n));
    std::vector<std::int32_t>& block = scratch.multiples;
    block.resize(block_cols * k * n);
    man::core::PrecomputerCache& cache = scratch.caches[synapse];
    const bool from_pixels = si == tail_begin_ && tail_begin_ == 0;
    for (std::size_t c0 = 0; c0 < cols; c0 += block_cols) {
      const std::size_t c1 = std::min(cols, c0 + block_cols);
      timed_phase(profile, &PhaseProfile::staging_s, [&] {
        if (from_pixels) {
          quantize_tile_block(spec_.activation_format, inputs.data(),
                              input_size_, c0, c1, n, scratch.buffer);
        }
        const std::span<const std::int64_t> values =
            from_pixels ? std::span<const std::int64_t>(scratch.buffer)
                        : std::span<const std::int64_t>(tile).subspan(
                              c0 * n, (c1 - c0) * n);
        stage_tile_block(values, n, k, cache, block.data());
      });
      timed_phase(profile, &PhaseProfile::kernel_s, [&] {
        kernel.accumulate_dense_batch(plan, block.data(), lanes,
                                      static_cast<int>(c0),
                                      static_cast<int>(c1), next.data());
      });
    }
    if (profile != nullptr) profile->staged_values += cols * n;
    charge(stats.layers[synapse++], dense.synapse, n);
    std::swap(tile, next);
  }

  stats.inferences += n;
  for (std::size_t b = 0; b < n; ++b) {
    for (std::size_t r = 0; r < output_size_; ++r) {
      outputs[b * output_size_ + r] = tile[r * n + b];
    }
  }
}

void FixedNetwork::infer_into(std::span<const float> pixels,
                              std::span<std::int64_t> out,
                              EngineStats& stats) const {
  InferScratch scratch = make_scratch();
  infer_into(pixels, out, stats, scratch);
}

std::vector<std::int64_t> FixedNetwork::forward_raw(
    std::span<const float> pixels) {
  std::vector<std::int64_t> out(output_size_);
  infer_into(pixels, out, stats_);
  return out;
}

int FixedNetwork::predict(std::span<const float> pixels) {
  return argmax_raw(forward_raw(pixels));
}

double FixedNetwork::evaluate(std::span<const man::data::Example> examples) {
  if (examples.empty()) return 0.0;
  InferScratch scratch = make_scratch();
  std::vector<std::int64_t> raw(output_size_);
  std::size_t correct = 0;
  for (const man::data::Example& ex : examples) {
    infer_into(ex.pixels, raw, stats_, scratch);
    if (argmax_raw(raw) == ex.label) ++correct;
  }
  return static_cast<double>(correct) / examples.size();
}

std::vector<std::uint64_t> FixedNetwork::macs_per_inference() const {
  std::vector<std::uint64_t> macs;
  macs.reserve(synapse_stage_indices_.size());
  for (std::size_t idx : synapse_stage_indices_) {
    if (const auto* dense = std::get_if<DenseStage>(&stages_[idx])) {
      macs.push_back(dense->synapse.macs);
    } else if (const auto* conv = std::get_if<ConvStage>(&stages_[idx])) {
      macs.push_back(conv->synapse.macs);
    }
  }
  return macs;
}

}  // namespace man::engine

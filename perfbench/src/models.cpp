#include "models.h"

#include "common.h"
#include "man/apps/activity_energy.h"
#include "man/apps/app_registry.h"
#include "man/backend/kernel_backend.h"

namespace perfbench {

ModelCase mlp_case() {
  man::serve::EngineSpec spec;
  spec.app = man::apps::AppId::kDigitMlp8;
  spec.alphabets = 4;
  spec.trained = false;
  return {"mlp", spec};
}

ModelCase cnn_case() {
  man::serve::EngineSpec spec;
  spec.app = man::apps::AppId::kDigitCnn12;
  spec.alphabets = 4;
  spec.trained = false;
  return {"cnn", spec};
}

man::serve::EngineSpec face_spec() {
  man::serve::EngineSpec spec;
  spec.app = man::apps::AppId::kFaceMlp12;
  spec.alphabets = 1;
  spec.trained = false;
  return spec;
}

std::vector<man::serve::QosTier> digit_ladder() {
  return man::serve::parse_qos_tiers("asm4,asm2,exact");
}

std::unique_ptr<man::serve::EngineCache> make_cache(
    const ScratchDir& dir, const std::string& plan_dir) {
  return std::make_unique<man::serve::EngineCache>(
      (dir.path() / "models").string(), plan_dir);
}

std::vector<std::int64_t> scalar_reference(
    const man::engine::FixedNetwork& engine, std::span<const float> inputs,
    man::engine::EngineStats* stats) {
  const auto& scalar =
      man::backend::backend_for(man::backend::BackendKind::kScalar);
  const std::size_t in = engine.input_size();
  const std::size_t out = engine.output_size();
  const std::size_t count = inputs.size() / in;
  std::vector<std::int64_t> raw(count * out);
  auto scratch = engine.make_scratch();
  man::engine::EngineStats local = engine.make_stats();
  for (std::size_t i = 0; i < count; ++i) {
    engine.infer_into(inputs.subspan(i * in, in),
                      std::span<std::int64_t>(raw).subspan(i * out, out),
                      local, scratch, scalar);
  }
  if (stats != nullptr) stats->merge(local);
  return raw;
}

void corrupt(std::vector<std::int64_t>& expected, std::size_t output_size) {
  for (std::size_t i = 0; i < expected.size(); i += output_size) {
    expected[i] ^= 1;
  }
}

double energy_nj_per_sample(const man::engine::EngineStats& stats,
                            const man::engine::FixedNetwork& engine,
                            const man::serve::EngineSpec& spec) {
  const int bits = man::apps::get_app(spec.app).weight_bits;
  return man::apps::energy_from_activity(stats, engine.plan(), bits)
             .per_inference_pj() /
         1000.0;
}

}  // namespace perfbench

// Reproduces Fig 11 — add-on accuracy improvement through mixed
// alphabets: {1} in the large early layers, {1,3}/{1,3,5,7} in the
// small concluding layers (paper §VI.E). For each of MNIST (2-layer
// MLP), SVHN (6-layer MLP) and TICH (5-layer MLP), compares
// conventional vs uniform-MAN vs mixed plans on both accuracy (via the
// fixed-point engine, after constrained retraining) and energy (via
// the hardware model).
#include <iostream>
#include <vector>

#include "bench_common.h"
#include "man/hw/network_cost.h"

namespace {

using man::apps::AppId;
using man::apps::AppSpec;
using man::bench::evaluate_batched;
using man::core::AlphabetSet;
using man::core::MultiplierKind;
using man::engine::FixedNetwork;
using man::engine::LayerAlphabetPlan;

// Paper §VI.E per-app recipes: MNIST upgrades only the output layer to
// 4 alphabets; SVHN and TICH upgrade penultimate to 2 and final to 4.
std::vector<AlphabetSet> mixed_sets(std::size_t layers, bool upgrade_penult) {
  std::vector<AlphabetSet> sets(layers, AlphabetSet::man());
  sets.back() = AlphabetSet::four();
  if (upgrade_penult && layers >= 2) {
    sets[layers - 2] = AlphabetSet::two();
  }
  return sets;
}

man::hw::NetworkEnergySpec energy_with_sets(
    const AppSpec& app, const std::vector<AlphabetSet>& sets) {
  auto spec = app.energy_spec();
  for (std::size_t i = 0; i < spec.layers.size(); ++i) {
    const AlphabetSet& set = sets[i];
    spec.layers[i].alphabets = set;
    spec.layers[i].multiplier = (set.size() == 1 && set.contains(1))
                                    ? MultiplierKind::kMan
                                    : MultiplierKind::kAsm;
  }
  return spec;
}

}  // namespace

int main() {
  const double scale = man::bench::bench_scale();
  man::apps::ModelCache cache;
  man::bench::print_banner(
      "Fig 11: accuracy & energy — conventional vs 1-alphabet vs "
      "mixed 1/2/4-alphabet ASM");
  std::cout << "dataset scale " << scale
            << " (MAN_BENCH_SCALE to change)\n";

  man::util::Table table({"Application", "Scheme", "Accuracy (%)",
                          "Norm. energy", "Cycles in upgraded layers (%)"});

  for (AppId id : {AppId::kDigitMlp8, AppId::kSvhnMlp8, AppId::kTichMlp8}) {
    const AppSpec& app = man::apps::get_app(id);
    const auto dataset = app.make_dataset(scale);
    const bool upgrade_penult = id != AppId::kDigitMlp8;

    auto baseline = cache.baseline(app, dataset, scale);
    const std::size_t layers = baseline.num_weight_layers();

    // Conventional reference.
    FixedNetwork conv_engine(baseline, app.quant(),
                             LayerAlphabetPlan::conventional(layers));
    const double conv_acc = evaluate_batched(conv_engine, dataset.test);
    const double conv_energy =
        compute_network_energy(app.energy_spec()).total_energy_pj;
    table.add_row({app.name, "conventional",
                   man::util::format_percent(conv_acc), "1.000", "--"});

    // Uniform MAN {1}.
    auto man_net = cache.retrained(app, dataset, scale, AlphabetSet::man());
    FixedNetwork man_engine(
        man_net, app.quant(),
        LayerAlphabetPlan::uniform_asm(layers, AlphabetSet::man()));
    const double man_acc = evaluate_batched(man_engine, dataset.test);
    const auto man_energy_spec = energy_with_sets(
        app, std::vector<AlphabetSet>(layers, AlphabetSet::man()));
    const double man_energy =
        compute_network_energy(man_energy_spec).total_energy_pj;
    table.add_row({"", "1 alphabet {1}", man::util::format_percent(man_acc),
                   man::util::format_double(man_energy / conv_energy, 3),
                   "--"});

    // Mixed plan.
    const auto sets = mixed_sets(layers, upgrade_penult);
    auto mixed_net = cache.retrained_mixed(app, dataset, scale, sets);
    FixedNetwork mixed_engine(
        mixed_net, app.quant(),
        LayerAlphabetPlan::mixed_tail(
            layers, upgrade_penult ? AlphabetSet::two() : AlphabetSet::man(),
            AlphabetSet::four()));
    const double mixed_acc = evaluate_batched(mixed_engine, dataset.test);
    const auto mixed_spec = energy_with_sets(app, sets);
    const double mixed_energy =
        compute_network_energy(mixed_spec).total_energy_pj;
    // Share of cycles spent in the upgraded (non-MAN) layers.
    const auto report = compute_network_energy(mixed_spec);
    double upgraded_share = report.layer_cycle_share.back();
    if (upgrade_penult && report.layer_cycle_share.size() >= 2) {
      upgraded_share +=
          report.layer_cycle_share[report.layer_cycle_share.size() - 2];
    }
    table.add_row({"", "mixed 1/2/4 alphabets",
                   man::util::format_percent(mixed_acc),
                   man::util::format_double(mixed_energy / conv_energy, 3),
                   man::util::format_percent(upgraded_share)});
    table.add_separator();
  }
  std::cout << table.to_string();
  std::cout << "\nPaper Fig 11: mixed alphabets recover accuracy over the "
               "uniform {1} configuration at a few-percent energy overhead "
               "(the upgraded final layers are a tiny share of processing "
               "cycles — 3.84% for the paper's SVHN network).\n";
  return 0;
}

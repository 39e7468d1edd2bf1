// End-to-end integration: the full paper pipeline on a reduced-scale
// app — train, quantize, constrain, retrain (Algorithm 2), run the
// fixed-point engine, and check the accuracy ladder behaves as the
// paper describes.
#include <gtest/gtest.h>

#include "man/apps/app_registry.h"
#include "man/engine/batch_runner.h"
#include "man/engine/fixed_network.h"
#include "man/nn/algorithm2.h"
#include "man/nn/sgd.h"
#include "man/nn/trainer.h"

namespace {

using man::apps::AppId;
using man::apps::get_app;
using man::core::AlphabetSet;
using man::engine::FixedNetwork;
using man::engine::LayerAlphabetPlan;
using man::nn::ProjectionPlan;

constexpr double kScale = 0.12;  // ~48 digit images per class

double engine_accuracy(const FixedNetwork& engine,
                       std::span<const man::data::Example> examples) {
  return man::engine::BatchRunner(engine).evaluate(examples).accuracy;
}

class IntegrationTest : public ::testing::Test {
 protected:
  static void SetUpTestSuite() {
    app_ = &get_app(AppId::kDigitMlp8);
    dataset_ = new man::data::Dataset(app_->make_dataset(kScale));

    // Train the shared baseline once for the whole suite.
    baseline_ = new man::nn::Network(app_->build_network(42));
    man::nn::Sgd::Options opts;
    opts.learning_rate = app_->baseline_lr();
    man::nn::Sgd optimizer(*baseline_, opts);
    auto cfg = app_->baseline_training();
    cfg.epochs = 8;
    (void)man::nn::fit(*baseline_, optimizer, dataset_->train, cfg);
  }
  static void TearDownTestSuite() {
    delete baseline_;
    delete dataset_;
  }

  static const man::apps::AppSpec* app_;
  static man::data::Dataset* dataset_;
  static man::nn::Network* baseline_;
};

const man::apps::AppSpec* IntegrationTest::app_ = nullptr;
man::data::Dataset* IntegrationTest::dataset_ = nullptr;
man::nn::Network* IntegrationTest::baseline_ = nullptr;

TEST_F(IntegrationTest, BaselineLearns) {
  EXPECT_GT(man::nn::evaluate_accuracy(*baseline_, dataset_->test), 0.85);
}

TEST_F(IntegrationTest, QuantizedEngineTracksFloatAccuracy) {
  man::nn::Network net = app_->build_network(42);
  net.restore_params(baseline_->snapshot_params());
  const double float_acc =
      man::nn::evaluate_accuracy(net, dataset_->test);
  FixedNetwork engine(net, app_->quant(),
                      LayerAlphabetPlan::conventional(2));
  const double fixed_acc = engine_accuracy(engine, dataset_->test);
  EXPECT_NEAR(fixed_acc, float_acc, 0.05);
}

TEST_F(IntegrationTest, RetrainedLadderRecoversAccuracy) {
  man::nn::Network net = app_->build_network(42);
  net.restore_params(baseline_->snapshot_params());
  FixedNetwork conventional(net, app_->quant(),
                            LayerAlphabetPlan::conventional(2));
  const double conv_acc = engine_accuracy(conventional, dataset_->test);

  // Hard-projected (no retraining) MAN accuracy: the lower bound.
  man::nn::Network projected = app_->build_network(42);
  projected.restore_params(baseline_->snapshot_params());
  const ProjectionPlan man_plan(app_->quant(), AlphabetSet::man(), 2);
  man_plan.project_network(projected);
  FixedNetwork projected_engine(
      projected, app_->quant(),
      LayerAlphabetPlan::uniform_asm(2, AlphabetSet::man()));
  const double projected_acc =
      engine_accuracy(projected_engine, dataset_->test);

  // Retrained MAN accuracy (Algorithm 2 step 3).
  man::nn::Network retrained = app_->build_network(42);
  retrained.restore_params(baseline_->snapshot_params());
  auto cfg = app_->retraining();
  cfg.epochs = 5;
  const double retrained_float_acc = man::nn::retrain_constrained(
      retrained, dataset_->train, dataset_->test, man_plan, cfg,
      app_->retrain_lr());
  FixedNetwork retrained_engine(
      retrained, app_->quant(),
      LayerAlphabetPlan::uniform_asm(2, AlphabetSet::man()));
  const double retrained_acc =
      engine_accuracy(retrained_engine, dataset_->test);

  // The paper's central claim, in miniature: retraining recovers most
  // of the constraint loss; the retrained MAN net sits near the
  // conventional baseline. (2% slack: on this reduced-scale corpus a
  // couple of test images flip either way.)
  EXPECT_GE(retrained_acc + 0.02, projected_acc);
  EXPECT_GT(retrained_acc, conv_acc - 0.06);
  EXPECT_GT(retrained_float_acc, 0.0);
}

TEST_F(IntegrationTest, Algorithm2SelectsSmallAlphabetOnEasyTask) {
  man::nn::Network net = app_->build_network(43);
  man::nn::Algorithm2Config config;
  config.quant = app_->quant();
  config.quality_constraint = 0.95;
  config.baseline_training = app_->baseline_training();
  config.baseline_training.epochs = 6;
  config.retraining = app_->retraining();
  config.retraining.epochs = 3;
  config.retrain_lr = app_->retrain_lr();

  const auto result = man::nn::run_algorithm2(net, dataset_->train,
                                              dataset_->test, config);
  EXPECT_TRUE(result.satisfied);
  EXPECT_LE(result.chosen_alphabets, 2u);
}

TEST_F(IntegrationTest, MixedTailPlanBeatsUniformManOnEngine) {
  // Fig 11's technique should never hurt: richer alphabets in the
  // output layer, MAN elsewhere.
  man::nn::Network uniform = app_->build_network(42);
  uniform.restore_params(baseline_->snapshot_params());
  const ProjectionPlan man_plan(app_->quant(), AlphabetSet::man(), 2);
  auto cfg = app_->retraining();
  cfg.epochs = 4;
  (void)man::nn::retrain_constrained(uniform, dataset_->train,
                                     dataset_->test, man_plan, cfg,
                                     app_->retrain_lr());
  FixedNetwork uniform_engine(
      uniform, app_->quant(),
      LayerAlphabetPlan::uniform_asm(2, AlphabetSet::man()));
  const double uniform_acc = engine_accuracy(uniform_engine, dataset_->test);

  man::nn::Network mixed = app_->build_network(42);
  mixed.restore_params(baseline_->snapshot_params());
  const ProjectionPlan mixed_plan(
      app_->quant(), {AlphabetSet::man(), AlphabetSet::four()});
  (void)man::nn::retrain_constrained(mixed, dataset_->train, dataset_->test,
                                     mixed_plan, cfg, app_->retrain_lr());
  FixedNetwork mixed_engine(
      mixed, app_->quant(),
      LayerAlphabetPlan::mixed_tail(2, AlphabetSet::man(),
                                    AlphabetSet::four()));
  const double mixed_acc = engine_accuracy(mixed_engine, dataset_->test);

  EXPECT_GE(mixed_acc + 0.03, uniform_acc);  // allow small noise
}

}  // namespace

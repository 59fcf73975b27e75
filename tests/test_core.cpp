// Unit tests for the core BSP pipeline, compression statistics, and the
// RtMobile facade.
#include <gtest/gtest.h>

#include "core/bsp.hpp"
#include "core/pruning_stats.hpp"
#include "core/rtmobile.hpp"
#include "speech/corpus.hpp"
#include "tensor/ops.hpp"
#include "train/trainer.hpp"
#include "util/rng.hpp"

namespace rtmobile {
namespace {

SpeechModel small_model(std::uint64_t seed, std::size_t hidden = 24) {
  Rng rng(seed);
  ModelConfig config;
  config.input_dim = 12;
  config.hidden_dim = hidden;
  config.num_layers = 2;
  config.num_classes = 8;
  SpeechModel model(config);
  model.init(rng);
  return model;
}

std::vector<LabeledSequence> small_dataset(std::size_t utterances,
                                           std::uint64_t seed) {
  // Argmax-of-first-8-dims toy task on 12-dim features.
  Rng rng(seed);
  std::vector<LabeledSequence> data(utterances);
  for (auto& utt : data) {
    utt.features = Matrix(6, 12);
    fill_normal(utt.features.span(), rng, 1.0F);
    utt.labels.resize(6);
    for (std::size_t t = 0; t < 6; ++t) {
      std::size_t best = 0;
      for (std::size_t c = 1; c < 8; ++c) {
        if (utt.features(t, c) > utt.features(t, best)) best = c;
      }
      utt.labels[t] = static_cast<std::uint16_t>(best);
    }
  }
  return data;
}

// ---------------------------------------------------------- config checks
TEST(BspConfig, Validation) {
  BspConfig config;
  config.col_keep_fraction = 0.0;
  EXPECT_THROW(BspPruner{config}, std::invalid_argument);
  config = BspConfig{};
  config.num_r = 0;
  EXPECT_THROW(BspPruner{config}, std::invalid_argument);
  config = BspConfig{};
  config.rho = -1.0;
  EXPECT_THROW(BspPruner{config}, std::invalid_argument);
}

// ------------------------------------------------------------- one-shot
TEST(BspOneShot, ProducesStructuredMasksForEveryWeight) {
  SpeechModel model = small_model(1);
  BspConfig config;
  config.num_r = 4;
  config.num_c = 4;
  config.col_keep_fraction = 0.25;
  config.row_keep_fraction = 0.5;
  BspPruner pruner(config);
  const BspResult result = pruner.prune_one_shot(model);

  // 12 GRU matrices + fc.
  EXPECT_EQ(result.block_masks.size(), 13U);
  EXPECT_EQ(result.masks.size(), 13U);
  // Weights were actually pruned in place to the masks' support.
  ParamSet params;
  model.register_params(params);
  for (const auto& [name, mask] : result.block_masks) {
    const Matrix& w = params.matrix(name);
    EXPECT_EQ(w.count_nonzero(), mask.nnz()) << name;
  }
}

TEST(BspOneShot, AchievedRatesMatchTargets) {
  SpeechModel model = small_model(2, 32);
  BspConfig config;
  config.num_r = 4;
  config.num_c = 4;
  config.col_keep_fraction = 0.25;
  config.row_keep_fraction = 0.5;
  config.prune_fc = false;
  BspPruner pruner(config);
  const BspResult result = pruner.prune_one_shot(model);
  // Column rate 4x, row rate 2x, overall ~8x on the GRU weights.
  EXPECT_NEAR(result.stats.column_rate(), 4.0, 0.6);
  EXPECT_NEAR(result.stats.row_rate(), 2.0, 0.3);
  EXPECT_NEAR(result.stats.overall_rate(), 8.0, 1.5);
}

TEST(BspOneShot, FcPruningToggle) {
  SpeechModel with_fc = small_model(3);
  SpeechModel without_fc = small_model(3);
  BspConfig config;
  config.num_r = 2;
  config.num_c = 2;
  config.col_keep_fraction = 0.5;
  config.prune_fc = true;
  EXPECT_EQ(BspPruner(config).prune_one_shot(with_fc).block_masks.count(
                "fc.w"),
            1U);
  config.prune_fc = false;
  EXPECT_EQ(BspPruner(config).prune_one_shot(without_fc).block_masks.count(
                "fc.w"),
            0U);
}

// ---------------------------------------------------------------- stats
TEST(CompressionStats, RatesAndParams) {
  CompressionStats stats;
  stats.total_weights = 1000;
  stats.kept_weights = 100;
  stats.column_keep_fraction = 0.1;
  stats.row_keep_fraction = 0.5;
  EXPECT_DOUBLE_EQ(stats.overall_rate(), 10.0);
  EXPECT_DOUBLE_EQ(stats.column_rate(), 10.0);
  EXPECT_DOUBLE_EQ(stats.row_rate(), 2.0);
  EXPECT_DOUBLE_EQ(stats.params_millions(), 1e-4);
}

TEST(CompressionStats, UnmaskedWeightsCountFullyKept) {
  const SpeechModel model = small_model(4);
  const CompressionStats stats = compute_compression_stats(model, {});
  EXPECT_EQ(stats.total_weights, stats.kept_weights);
  EXPECT_DOUBLE_EQ(stats.overall_rate(), 1.0);
}

// --------------------------------------------------------- ADMM pipeline
TEST(BspAdmm, FullPipelineRunsAndCompresses) {
  SpeechModel model = small_model(5);
  auto data = small_dataset(6, 6);

  // Light pre-training so pruning operates on a non-random model.
  {
    Trainer trainer(model);
    Adam adam(3e-3);
    TrainConfig config;
    config.epochs = 2;
    Rng rng(7);
    trainer.train(config, data, adam, rng);
  }

  BspConfig config;
  config.num_r = 4;
  config.num_c = 4;
  config.col_keep_fraction = 0.25;
  config.row_keep_fraction = 0.5;
  config.rho = 5e-2;
  config.admm_rounds_step1 = 3;
  config.admm_rounds_step2 = 1;
  config.epochs_per_round = 1;
  config.retrain_epochs = 1;
  BspPruner pruner(config);
  Rng rng(8);
  const BspResult result = pruner.prune(model, data, rng);

  // Compression achieved near the 8x target.
  EXPECT_GT(result.stats.overall_rate(), 5.0);
  // Weights obey the masks after retraining (mask respected).
  ParamSet params;
  model.register_params(params);
  for (const auto& [name, mask] : result.block_masks) {
    const Matrix& w = params.matrix(name);
    const Matrix dense_mask = mask.to_dense();
    for (std::size_t i = 0; i < w.size(); ++i) {
      if (dense_mask.span()[i] == 0.0F) {
        EXPECT_FLOAT_EQ(w.span()[i], 0.0F) << name << " slot " << i;
      }
    }
  }
  // Residual sanity: ||W - Z||/||W|| is bounded. (On a run this short the
  // dual variables can transiently exceed 1; true convergence behaviour is
  // covered by Admm.GradientFlowDrivesWeightsTowardConstraint and the
  // accuracy comparison test below.)
  EXPECT_LT(result.step1_residual, 1.5);
}

TEST(BspAdmm, AccuracyDegradesGracefullyVsOneShot) {
  // The pipeline's value: ADMM+retrain beats naive one-shot pruning at the
  // same compression.
  auto data = small_dataset(10, 9);
  SpeechModel admm_model = small_model(10);
  SpeechModel oneshot_model = small_model(10);
  {
    // Identical pre-training.
    for (SpeechModel* m : {&admm_model, &oneshot_model}) {
      Trainer trainer(*m);
      Adam adam(3e-3);
      TrainConfig config;
      config.epochs = 3;
      Rng rng(11);
      trainer.train(config, data, adam, rng);
    }
  }
  BspConfig config;
  config.num_r = 4;
  config.num_c = 4;
  config.col_keep_fraction = 0.25;
  config.admm_rounds_step1 = 2;
  config.retrain_epochs = 2;
  BspPruner pruner(config);
  Rng rng(12);
  pruner.prune(admm_model, data, rng);
  pruner.prune_one_shot(oneshot_model);

  const double admm_loss = Trainer::evaluate(admm_model, data).loss;
  const double oneshot_loss = Trainer::evaluate(oneshot_model, data).loss;
  EXPECT_LT(admm_loss, oneshot_loss);
}

// ----------------------------------------------------------- the facade
TEST(RtMobileFacade, OneShotDeployProducesWorkingExecutor) {
  SpeechModel model = small_model(13);
  RtMobileConfig config;
  config.bsp.num_r = 4;
  config.bsp.num_c = 4;
  config.bsp.col_keep_fraction = 0.25;
  config.compiler.threads = 2;
  const RtMobile framework(config);
  const Deployment deployment = framework.deploy_one_shot(model);
  ASSERT_NE(deployment.compiled, nullptr);

  Rng rng(14);
  Matrix features(4, 12);
  fill_normal(features.span(), rng, 1.0F);
  const Matrix reference = model.forward(features);
  const Matrix fast =
      deployment.compiled->infer(features, deployment.pool.get());
  EXPECT_LT(max_abs_diff(reference.span(), fast.span()), 1e-3F);
  EXPECT_GT(deployment.pruning.stats.overall_rate(), 2.0);
}

TEST(RtMobileFacade, DeployWithTrainingAndAutoTune) {
  SpeechModel model = small_model(15);
  auto data = small_dataset(4, 16);
  RtMobileConfig config;
  config.bsp.num_r = 2;
  config.bsp.num_c = 2;
  config.bsp.col_keep_fraction = 0.5;
  config.bsp.admm_rounds_step1 = 1;
  config.bsp.admm_rounds_step2 = 0;
  config.bsp.retrain_epochs = 1;
  config.auto_tune_block_size = true;
  config.tuner.num_c_candidates = {2, 4};
  config.tuner.thread_candidates = {1};
  config.tuner.timing_iters = 2;
  config.tuner.timing_repeats = 1;
  const RtMobile framework(config);
  Rng rng(17);
  const Deployment deployment = framework.deploy(model, data, rng);
  ASSERT_TRUE(deployment.tuning.has_value());
  EXPECT_NE(deployment.compiled, nullptr);
  // The tuner's choice was adopted by the pruner.
  EXPECT_TRUE(deployment.tuning->best.num_c == 2 ||
              deployment.tuning->best.num_c == 4);
}

}  // namespace
}  // namespace rtmobile

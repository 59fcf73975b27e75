// Integration tests: the paper's pipeline end to end on a scaled task —
// synthetic corpus -> dense training -> PER scoring -> BSP pruning ->
// compilation -> compiled inference agreeing with the reference model.
#include <gtest/gtest.h>

#include "compiler/gru_executor.hpp"
#include "core/bsp.hpp"
#include "core/rtmobile.hpp"
#include "speech/corpus.hpp"
#include "speech/per.hpp"
#include "tensor/ops.hpp"
#include "train/trainer.hpp"
#include "util/rng.hpp"

namespace rtmobile {
namespace {

/// Shared fixture: one small corpus and one dense-trained model reused by
/// all integration tests (training is the expensive part).
class EndToEnd : public ::testing::Test {
 protected:
  static void SetUpTestSuite() {
    speech::CorpusConfig corpus_config;
    corpus_config.num_train_utterances = 24;
    corpus_config.num_test_utterances = 8;
    corpus_config.min_phones = 4;
    corpus_config.max_phones = 8;
    corpus_config.seed = 2024;
    corpus = new speech::Corpus(
        speech::SyntheticTimit(corpus_config).generate());

    ModelConfig model_config;
    model_config.input_dim = 39;
    model_config.hidden_dim = 48;
    model_config.num_layers = 2;
    model_config.num_classes = 39;
    model = new SpeechModel(model_config);
    Rng rng(7);
    model->init(rng);

    Trainer trainer(*model);
    Adam adam(4e-3);
    TrainConfig train_config;
    train_config.epochs = 10;
    train_config.lr_decay = 0.9;
    trainer.train(train_config, corpus->train, adam, rng);
  }

  static void TearDownTestSuite() {
    delete model;
    model = nullptr;
    delete corpus;
    corpus = nullptr;
  }

  static speech::Corpus* corpus;
  static SpeechModel* model;
};

speech::Corpus* EndToEnd::corpus = nullptr;
SpeechModel* EndToEnd::model = nullptr;

TEST_F(EndToEnd, DenseModelLearnsTheTask) {
  const EvalResult train_eval = Trainer::evaluate(*model, corpus->train);
  const EvalResult test_eval = Trainer::evaluate(*model, corpus->test);
  EXPECT_GT(train_eval.frame_accuracy, 0.55);
  EXPECT_GT(test_eval.frame_accuracy, 0.45);
  // PER must be far below the 100% of an untrained model.
  const double per = speech::corpus_per(*model, corpus->test);
  EXPECT_LT(per, 65.0);
}

TEST_F(EndToEnd, ModeratePruningPreservesPer) {
  // The paper's core accuracy claim, scaled down: a moderate BSP
  // compression (~4x on this small model) with ADMM + retraining should
  // cost little PER versus dense.
  SpeechModel pruned = *model;
  BspConfig config;
  config.num_r = 4;
  config.num_c = 4;
  config.col_keep_fraction = 0.25;
  config.row_keep_fraction = 1.0;
  config.rho = 5e-2;
  config.admm_rounds_step1 = 3;
  config.epochs_per_round = 1;
  config.retrain_epochs = 6;
  config.prune_fc = false;
  BspPruner pruner(config);
  Rng rng(11);
  const BspResult result = pruner.prune(pruned, corpus->train, rng);
  EXPECT_GT(result.stats.overall_rate(), 3.0);

  const double dense_per = speech::corpus_per(*model, corpus->test);
  const double pruned_per = speech::corpus_per(pruned, corpus->test);
  // Graceful: within 12 points of dense on this small task.
  EXPECT_LT(pruned_per, dense_per + 12.0);
}

TEST_F(EndToEnd, ExtremePruningDegradesMoreThanModerate) {
  // Table I's shape: degradation grows with compression.
  SpeechModel moderate = *model;
  SpeechModel extreme = *model;
  BspConfig config;
  config.num_r = 4;
  config.num_c = 4;
  config.admm_rounds_step1 = 1;
  config.retrain_epochs = 2;
  config.prune_fc = false;
  Rng rng(12);

  config.col_keep_fraction = 0.5;
  BspPruner(config).prune(moderate, corpus->train, rng);
  config.col_keep_fraction = 0.1;
  config.row_keep_fraction = 0.5;
  BspPruner(config).prune(extreme, corpus->train, rng);

  const double moderate_per = speech::corpus_per(moderate, corpus->test);
  const double extreme_per = speech::corpus_per(extreme, corpus->test);
  EXPECT_GE(extreme_per, moderate_per - 2.0)
      << "20x pruning should not beat 2x pruning";
}

TEST_F(EndToEnd, CompiledModelReproducesReferencePer) {
  SpeechModel pruned = *model;
  BspConfig config;
  config.num_r = 4;
  config.num_c = 4;
  config.col_keep_fraction = 0.25;
  BspPruner pruner(config);
  const BspResult result = pruner.prune_one_shot(pruned);

  CompilerOptions options;
  options.format = SparseFormat::kBspc;
  options.threads = 2;
  ThreadPool pool(2);
  const CompiledSpeechModel compiled(pruned, result.block_masks, options);
  // Per-utterance logits agree, therefore PER agrees.
  for (const auto& utt : corpus->test) {
    const Matrix reference = pruned.forward(utt.features);
    const Matrix fast = compiled.infer(utt.features, &pool);
    EXPECT_LT(max_abs_diff(reference.span(), fast.span()), 5e-3F);
  }
}

TEST_F(EndToEnd, FacadeDeploysTrainedModel) {
  SpeechModel work = *model;
  RtMobileConfig config;
  config.bsp.num_r = 4;
  config.bsp.num_c = 4;
  config.bsp.col_keep_fraction = 0.25;
  config.bsp.rho = 5e-2;
  config.bsp.admm_rounds_step1 = 2;
  config.bsp.admm_rounds_step2 = 0;
  config.bsp.retrain_epochs = 4;
  config.bsp.prune_fc = false;
  config.compiler.threads = 2;
  Rng rng(13);
  const RtMobile framework(config);
  const Deployment deployment =
      framework.deploy(work, corpus->train, rng);
  ASSERT_NE(deployment.compiled, nullptr);
  EXPECT_GT(deployment.pruning.stats.overall_rate(), 3.0);
  // The deployed executor still recognizes speech (PER not catastrophic
  // versus the dense reference).
  speech::DecoderConfig decoder;
  double compiled_per = 0.0;
  {
    speech::EditStats total;
    for (const auto& utt : corpus->test) {
      const Matrix logits =
          deployment.compiled->infer(utt.features, deployment.pool.get());
      const auto decoded = speech::greedy_decode(logits, decoder);
      total += speech::align({utt.phones.data(), utt.phones.size()},
                             {decoded.data(), decoded.size()});
    }
    compiled_per = total.rate() * 100.0;
  }
  const double dense_per = speech::corpus_per(*model, corpus->test);
  EXPECT_LT(compiled_per, dense_per + 15.0);
}

TEST_F(EndToEnd, WaveformPipelineEndToEnd) {
  // Waveform -> MFCC -> trained model: exercises the full speech stack.
  speech::CorpusConfig corpus_config;
  corpus_config.mode = speech::FeatureMode::kWaveform;
  corpus_config.num_train_utterances = 2;
  corpus_config.num_test_utterances = 1;
  corpus_config.min_phones = 3;
  corpus_config.max_phones = 5;
  const speech::Corpus wave_corpus =
      speech::SyntheticTimit(corpus_config).generate();
  ASSERT_EQ(wave_corpus.feature_dim, 39U);
  // The dense model consumes the MFCC features directly.
  const Matrix logits = model->forward(wave_corpus.test[0].features);
  EXPECT_EQ(logits.rows(), wave_corpus.test[0].features.rows());
  EXPECT_EQ(logits.cols(), 39U);
}

}  // namespace
}  // namespace rtmobile

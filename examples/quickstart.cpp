// Quickstart: the whole RTMobile pipeline in one page.
//
//   1. generate a (synthetic) speech corpus
//   2. train a dense GRU phone recognizer
//   3. BSP-prune it 10x with ADMM + masked retraining
//   4. compile it (BSPC + reorder + LRE, multithreaded)
//   5. run real-time-style inference with the compiled model
//
// Build & run:  ./build/examples/quickstart
#include <cstdio>

#include "core/rtmobile.hpp"
#include "hw/timer.hpp"
#include "speech/corpus.hpp"
#include "speech/per.hpp"
#include "train/trainer.hpp"
#include "util/rng.hpp"

int main() {
  using namespace rtmobile;

  // 1. A small synthetic TIMIT-style corpus (39 phone classes).
  speech::CorpusConfig corpus_config;
  corpus_config.num_train_utterances = 32;
  corpus_config.num_test_utterances = 8;
  corpus_config.seed = 1;
  const speech::Corpus corpus =
      speech::SyntheticTimit(corpus_config).generate();
  std::printf("corpus: %zu train / %zu test utterances, %zu-dim features\n",
              corpus.train.size(), corpus.test.size(), corpus.feature_dim);

  // 2. Train a dense 2-layer GRU.
  ModelConfig model_config;
  model_config.input_dim = corpus.feature_dim;
  model_config.hidden_dim = 64;
  model_config.num_layers = 2;
  model_config.num_classes = corpus.num_classes;
  SpeechModel model(model_config);
  Rng rng(42);
  model.init(rng);
  {
    Trainer trainer(model);
    Adam adam(4e-3);
    TrainConfig train_config;
    train_config.epochs = 8;
    train_config.lr_decay = 0.9;
    trainer.train(train_config, corpus.train, adam, rng);
  }
  const double dense_per = speech::corpus_per(model, corpus.test);
  std::printf("dense model: %zu params, PER %.2f%%\n",
              model.nonzero_param_count(), dense_per);

  // 3 + 4. BSP pruning (10x) and compilation, via the RtMobile facade.
  RtMobileConfig config;
  config.bsp.num_r = 8;
  config.bsp.num_c = 8;
  config.bsp.col_keep_fraction = 0.1;   // 10x column compression
  config.bsp.row_keep_fraction = 1.0;   // no row pruning at 10x (Table I)
  config.bsp.admm_rounds_step1 = 2;
  config.bsp.retrain_epochs = 3;
  config.bsp.prune_fc = false;
  config.compiler.format = SparseFormat::kBspc;
  config.compiler.threads = 4;
  const RtMobile framework(config);
  const Deployment deployment = framework.deploy(model, corpus.train, rng);
  std::printf("BSP pruning: %.1fx compression (%zu -> %zu weights)\n",
              deployment.pruning.stats.overall_rate(),
              deployment.pruning.stats.total_weights,
              deployment.pruning.stats.kept_weights);

  // 5. Inference with the compiled model.
  const double pruned_per = speech::corpus_per(model, corpus.test);
  WallTimer timer;
  std::size_t frames = 0;
  for (const auto& utt : corpus.test) {
    const Matrix logits =
        deployment.compiled->infer(utt.features, deployment.pool.get());
    frames += logits.rows();
  }
  const double us_per_frame = timer.elapsed_us() / static_cast<double>(frames);
  std::printf("pruned model: PER %.2f%% (degradation %+.2f)\n", pruned_per,
              pruned_per - dense_per);
  std::printf("compiled inference: %.1f us/frame (%zu frames), %.2f KB "
              "weights (fp32)\n",
              us_per_frame, frames,
              static_cast<double>(
                  deployment.compiled->total_memory_bytes()) /
                  1024.0);
  std::printf("real-time factor vs 10 ms frame shift: %.4f\n",
              us_per_frame / 10000.0);
  return 0;
}

// End-to-end speech recognition: the paper's full workflow with knobs.
//
// Pipeline: synthetic corpus (optionally through the waveform + MFCC front
// end) -> dense GRU training -> PER -> BSP pruning at a chosen compression
// -> masked retraining -> compiled inference + timing.
//
// Flags:
//   --hidden         GRU width (default 64)
//   --utterances     training utterances (default 48)
//   --compression    column compression target (default 10)
//   --row-rate       row compression target (default 1 = off)
//   --waveform       use the waveform+MFCC front end (slower, realistic)
//   --threads        executor threads (default 4)
#include <cstdio>

#include "core/rtmobile.hpp"
#include "hw/timer.hpp"
#include "speech/corpus.hpp"
#include "speech/per.hpp"
#include "train/trainer.hpp"
#include "util/cli.hpp"
#include "util/rng.hpp"

int main(int argc, char** argv) {
  using namespace rtmobile;
  CliParser cli;
  cli.add_flag("hidden", "64", "GRU hidden width");
  cli.add_flag("utterances", "48", "number of training utterances");
  cli.add_flag("compression", "10", "column compression target (x)");
  cli.add_flag("row-rate", "1", "row compression target (x)");
  cli.add_flag("threads", "4", "executor threads");
  cli.add_flag("epochs", "10", "dense training epochs");
  cli.add_switch("waveform", "synthesize audio and extract real MFCCs");
  try {
    cli.parse(argc, argv);
  } catch (const std::exception& e) {
    std::fprintf(stderr, "%s\n%s", e.what(), cli.help(argv[0]).c_str());
    return 1;
  }

  // ---- corpus ------------------------------------------------------------
  speech::CorpusConfig corpus_config;
  corpus_config.num_train_utterances =
      static_cast<std::size_t>(cli.get_int("utterances"));
  corpus_config.num_test_utterances =
      std::max<std::size_t>(8, corpus_config.num_train_utterances / 4);
  corpus_config.mode = cli.get_switch("waveform")
                           ? speech::FeatureMode::kWaveform
                           : speech::FeatureMode::kDirect;
  corpus_config.seed = 99;
  std::printf("generating corpus (%s features)...\n",
              cli.get_switch("waveform") ? "waveform+MFCC" : "direct");
  const speech::Corpus corpus =
      speech::SyntheticTimit(corpus_config).generate();

  // ---- dense training ----------------------------------------------------
  ModelConfig model_config;
  model_config.input_dim = corpus.feature_dim;
  model_config.hidden_dim = static_cast<std::size_t>(cli.get_int("hidden"));
  model_config.num_layers = 2;
  model_config.num_classes = corpus.num_classes;
  SpeechModel model(model_config);
  Rng rng(1);
  model.init(rng);
  std::printf("training dense GRU (2x%zu, %zu params)...\n",
              model_config.hidden_dim, model.param_count());
  {
    Trainer trainer(model);
    Adam adam(4e-3);
    TrainConfig train_config;
    train_config.epochs = static_cast<std::size_t>(cli.get_int("epochs"));
    train_config.lr_decay = 0.92;
    WallTimer timer;
    const double loss = trainer.train(train_config, corpus.train, adam, rng);
    std::printf("  final loss %.4f (%.1f s)\n", loss,
                timer.elapsed_us() / 1e6);
  }
  const EvalResult dense_eval = Trainer::evaluate(model, corpus.test);
  const double dense_per = speech::corpus_per(model, corpus.test);
  std::printf("dense: frame accuracy %.1f%%, PER %.2f%%\n",
              dense_eval.frame_accuracy * 100.0, dense_per);

  // ---- BSP pruning + compilation ------------------------------------------
  const double compression = cli.get_double("compression");
  const double row_rate = cli.get_double("row-rate");
  RtMobileConfig config;
  config.bsp.num_r = 8;
  config.bsp.num_c = 8;
  config.bsp.col_keep_fraction = 1.0 / compression;
  config.bsp.row_keep_fraction = 1.0 / row_rate;
  config.bsp.admm_rounds_step1 = 2;
  config.bsp.admm_rounds_step2 = row_rate > 1.0 ? 1 : 0;
  config.bsp.retrain_epochs = 3;
  config.bsp.prune_fc = false;
  config.compiler.threads =
      static_cast<std::size_t>(cli.get_int("threads"));
  std::printf("BSP pruning (%.0fx columns, %.0fx rows) + compiling...\n",
              compression, row_rate);
  const RtMobile framework(config);
  const Deployment deployment = framework.deploy(model, corpus.train, rng);
  const double pruned_per = speech::corpus_per(model, corpus.test);
  std::printf("pruned: %.1fx overall compression, PER %.2f%% (%+.2f)\n",
              deployment.pruning.stats.overall_rate(), pruned_per,
              pruned_per - dense_per);

  // ---- compiled inference timing -------------------------------------------
  WallTimer timer;
  std::size_t frames = 0;
  speech::EditStats edits;
  for (const auto& utt : corpus.test) {
    const Matrix logits =
        deployment.compiled->infer(utt.features, deployment.pool.get());
    frames += logits.rows();
    const auto decoded = speech::greedy_decode(logits);
    edits += speech::align({utt.phones.data(), utt.phones.size()},
                           {decoded.data(), decoded.size()});
  }
  const double us_per_frame =
      timer.elapsed_us() / static_cast<double>(frames);
  std::printf(
      "compiled executor: PER %.2f%%, %.1f us/frame, real-time factor "
      "%.4f (10 ms frames)\n",
      edits.rate() * 100.0, us_per_frame, us_per_frame / 10000.0);
  std::printf("compiled weight storage: %.1f KB\n",
              static_cast<double>(
                  deployment.compiled->total_memory_bytes()) /
                  1024.0);
  return 0;
}

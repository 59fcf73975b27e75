// Precision ablation (paper Sec. V: "Our GPU implementation uses 16-bit
// floating point"): storage precision x pruning, measuring PER and weight
// storage on the scaled model. Reproduces the implicit claim that fp16
// weight storage is accuracy-free for this model family, and extends it
// with the int8 column the paper leaves as future work.
#include <cstdio>
#include <exception>

#include "core/bsp.hpp"
#include "core/quantize.hpp"
#include "rnn/model.hpp"
#include "speech/corpus.hpp"
#include "speech/per.hpp"
#include "train/optimizer.hpp"
#include "train/trainer.hpp"
#include "util/cli.hpp"
#include "util/report.hpp"
#include "util/rng.hpp"
#include "util/string_util.hpp"
#include "util/table.hpp"

namespace rtmobile {
namespace {

constexpr WeightPrecision kPrecisions[] = {
    WeightPrecision::kFp32, WeightPrecision::kFp16,
    WeightPrecision::kInt8PerTensor, WeightPrecision::kInt8PerRow};

void run_accuracy_section(bool quick, JsonReport& report) {
  std::printf("== Precision x pruning: PER and storage (scaled model) ==\n\n");

  speech::CorpusConfig corpus_config;
  corpus_config.num_train_utterances = quick ? 12 : 32;
  corpus_config.num_test_utterances = quick ? 6 : 12;
  corpus_config.feature_noise = 0.55;
  corpus_config.seed = 3;
  const speech::Corpus corpus =
      speech::SyntheticTimit(corpus_config).generate();

  ModelConfig model_config;
  model_config.input_dim = 39;
  model_config.hidden_dim = 64;
  model_config.num_layers = 2;
  model_config.num_classes = 39;
  SpeechModel dense(model_config);
  Rng rng(17);
  dense.init(rng);
  {
    Trainer trainer(dense);
    Adam adam(4e-3);
    TrainConfig config;
    config.epochs = quick ? 4 : 10;
    config.lr_decay = 0.92;
    trainer.train(config, corpus.train, adam, rng);
  }

  // A BSP-pruned variant to show precision composes with pruning.
  SpeechModel pruned = dense;
  {
    BspConfig config;
    config.num_r = 8;
    config.num_c = 4;
    config.col_keep_fraction = 0.25;
    config.rho = 5e-2;
    config.admm_rounds_step1 = 2;
    config.retrain_epochs = quick ? 2 : 4;
    config.retrain_learning_rate = 2e-3;
    config.prune_fc = false;
    Rng prune_rng(19);
    BspPruner(config).prune(pruned, corpus.train, prune_rng);
  }

  Table table({"model", "precision", "PER", "max |err|", "weight KB"});
  const auto evaluate = [&](const char* label, const SpeechModel& base,
                            WeightPrecision precision) {
    SpeechModel model = base;
    const QuantizationReport q = quantize_model(model, precision);
    const double per = speech::corpus_per(model, corpus.test);
    table.add_row({label, to_string(precision), format_double(per, 2),
                   format_double(q.max_abs_error, 6),
                   format_double(
                       static_cast<double>(q.stored_bytes) / 1024.0, 1)});
    JsonRecord record;
    record.set("experiment", "quantization");
    record.set("model", label);
    record.set("precision", to_string(precision));
    record.set("per", per);
    record.set("max_abs_error", q.max_abs_error);
    record.set("stored_bytes", static_cast<std::int64_t>(q.stored_bytes));
    report.add(record);
  };

  for (const WeightPrecision precision : kPrecisions) {
    evaluate("dense", dense, precision);
  }
  table.add_separator();
  for (const WeightPrecision precision : kPrecisions) {
    evaluate("BSP 4x", pruned, precision);
  }

  std::printf("%s\n", table.to_string().c_str());
  std::printf(
      "Expectation (paper's deployment choice): fp16 is PER-neutral at\n"
      "half the storage; int8 costs little with per-row scales.\n\n");
}

}  // namespace
}  // namespace rtmobile

int main(int argc, char** argv) {
  using namespace rtmobile;

  CliParser cli;
  cli.add_switch("quick", "small corpus + short training (CI smoke run)");
  try {
    cli.parse(argc, argv);
  } catch (const std::exception& e) {
    std::fprintf(stderr, "%s\n%s", e.what(),
                 cli.help("bench_quantization").c_str());
    return 1;
  }

  JsonReport report;
  run_accuracy_section(cli.get_switch("quick"), report);
  report.write_file("quantization.json");
  return 0;
}

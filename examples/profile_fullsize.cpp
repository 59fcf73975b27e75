// Profiles the full-size paper model (153 -> 1024 -> 1024 -> 39) compiled
// at a chosen compression rate: per-matrix timing breakdown, per-frame
// latency, and the real-time margin against the 10 ms frame shift — the
// "is it actually real-time?" question the paper's title asks.
//
// Flags: --compression (default 29), --threads (default host cores).
#include <cstdio>

#include "core/bsp.hpp"
#include "compiler/gru_executor.hpp"
#include "hw/thread_pool.hpp"
#include "hw/timer.hpp"
#include "rnn/model.hpp"
#include "util/cli.hpp"
#include "util/rng.hpp"
#include "util/string_util.hpp"
#include "util/table.hpp"

int main(int argc, char** argv) {
  using namespace rtmobile;
  CliParser cli;
  cli.add_flag("compression", "29", "overall compression target (x)");
  cli.add_flag("threads", "0", "executor threads (0 = host default)");
  try {
    cli.parse(argc, argv);
  } catch (const std::exception& e) {
    std::fprintf(stderr, "%s\n%s", e.what(), cli.help(argv[0]).c_str());
    return 1;
  }
  const double compression = cli.get_double("compression");
  std::size_t threads = static_cast<std::size_t>(cli.get_int("threads"));
  if (threads == 0) threads = ThreadPool::default_thread_count();

  std::printf("building full-size GRU (153 -> 1024 -> 1024 -> 39)...\n");
  Rng rng(123);
  SpeechModel model(ModelConfig::paper_full_size());
  model.init(rng);

  BspConfig config;
  config.num_r = 64;
  config.num_c = 16;
  const double col_rate = std::min(compression, 16.0);
  config.col_keep_fraction = 1.0 / col_rate;
  config.row_keep_fraction =
      compression > col_rate ? col_rate / compression : 1.0;
  config.prune_fc = true;
  BspPruner pruner(config);
  const BspResult result = pruner.prune_one_shot(model);
  std::printf("pruned structure: %.1fx overall (%.0fx columns, %.1fx rows)\n",
              result.stats.overall_rate(), result.stats.column_rate(),
              result.stats.row_rate());

  ThreadPool pool(threads);
  CompilerOptions options;
  options.format = compression > 1.0 ? SparseFormat::kBspc
                                     : SparseFormat::kDense;
  options.threads = threads;
  options.value_bytes = 2;
  const CompiledSpeechModel compiled(model, result.block_masks, options);

  std::printf("profiling per-matrix plans (%zu threads)...\n\n", threads);
  const auto profiles = compiled.profile(30, &pool);
  Table table({"plan", "nnz", "matvec us", "share"});
  for (const auto& entry : profiles) {
    table.add_row({entry.name,
                   format_si(static_cast<double>(entry.nnz), 2),
                   format_double(entry.time_us, 2),
                   format_percent(entry.share, 1)});
  }
  std::printf("%s\n", table.to_string().c_str());

  constexpr std::size_t kFrames = 30;
  const double frame_us = time_best_of_us(
      [&] { compiled.run_recurrence(kFrames, 1, &pool); }, 2, 3);
  std::printf("inference: %.0f us per %zu-timestep frame "
              "(%.1f us/timestep)\n",
              frame_us, kFrames, frame_us / kFrames);
  std::printf("weight storage (fp16 accounting): %.2f MB\n",
              static_cast<double>(compiled.total_memory_bytes()) / 1e6);
  const double rtf = (frame_us / kFrames) / 10000.0;
  std::printf("real-time factor vs 10 ms frame shift: %.4f (%s)\n", rtf,
              rtf < 1.0 ? "real-time" : "NOT real-time");
  return 0;
}

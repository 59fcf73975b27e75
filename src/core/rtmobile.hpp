// RtMobile: the top-level framework facade.
//
// One object that strings the paper's pipeline together:
//   dense training  ->  BSP pruning (ADMM)  ->  compiler optimization
//   (reorder + LRE + BSPC + tuning)  ->  deployable CompiledSpeechModel.
// Each stage is also available separately (BspPruner, LayerPlan,
// CompiledSpeechModel) for finer control; this facade is what the
// quickstart example uses.
#pragma once

#include <memory>
#include <optional>
#include <vector>

#include "compiler/auto_tuner.hpp"
#include "compiler/gru_executor.hpp"
#include "core/bsp.hpp"
#include "hw/thread_pool.hpp"
#include "rnn/model.hpp"
#include "train/trainer.hpp"
#include "train/types.hpp"
#include "util/rng.hpp"

namespace rtmobile {

struct RtMobileConfig {
  BspConfig bsp;
  CompilerOptions compiler;
  /// When true, run the auto-tuner over block counts before pruning and
  /// adopt its num_c choice.
  bool auto_tune_block_size = false;
  TunerConfig tuner;
};

/// A deployed model plus the artifacts that produced it.
struct Deployment {
  std::unique_ptr<ThreadPool> pool;  // for `compiled`; null at 1 thread
  std::unique_ptr<CompiledSpeechModel> compiled;
  BspResult pruning;
  std::optional<TunerResult> tuning;
};

class RtMobile {
 public:
  explicit RtMobile(const RtMobileConfig& config = RtMobileConfig{});

  [[nodiscard]] const RtMobileConfig& config() const { return config_; }

  /// Full pipeline on an already-trained dense model: (optionally tuned)
  /// BSP pruning with ADMM + retraining, then compilation.
  [[nodiscard]] Deployment deploy(
      SpeechModel& model, const std::vector<LabeledSequence>& train_data,
      Rng& rng) const;

  /// Structure-only pipeline: one-shot masks (no ADMM training), then
  /// compilation. This is what the performance benchmarks use on the
  /// full-size model, where only the sparsity structure matters.
  [[nodiscard]] Deployment deploy_one_shot(SpeechModel& model) const;

 private:
  [[nodiscard]] Deployment compile_with(SpeechModel& model, BspResult bsp,
                                        std::optional<TunerResult> tuning)
      const;

  RtMobileConfig config_;
};

}  // namespace rtmobile

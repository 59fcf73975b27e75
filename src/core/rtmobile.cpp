#include "core/rtmobile.hpp"

#include "util/check.hpp"
#include "util/logging.hpp"

namespace rtmobile {

RtMobile::RtMobile(const RtMobileConfig& config) : config_(config) {}

Deployment RtMobile::compile_with(SpeechModel& model, BspResult bsp,
                                  std::optional<TunerResult> tuning) const {
  Deployment deployment;
  deployment.pruning = std::move(bsp);
  deployment.tuning = std::move(tuning);
  if (config_.compiler.threads > 1) {
    deployment.pool = std::make_unique<ThreadPool>(config_.compiler.threads);
  }
  deployment.compiled = std::make_unique<CompiledSpeechModel>(
      model, deployment.pruning.block_masks, config_.compiler);
  return deployment;
}

Deployment RtMobile::deploy(SpeechModel& model,
                            const std::vector<LabeledSequence>& train_data,
                            Rng& rng) const {
  RtMobileConfig effective = config_;
  std::optional<TunerResult> tuning;
  if (config_.auto_tune_block_size) {
    // Tune on the largest recurrent matrix: it dominates inference time.
    TunerConfig tuner_config = config_.tuner;
    tuner_config.num_r = config_.bsp.num_r;
    tuner_config.col_keep_fraction = config_.bsp.col_keep_fraction;
    tuner_config.row_keep_fraction = config_.bsp.row_keep_fraction;
    tuning = tune_layer(model.layer(model.config().num_layers - 1).u_h,
                        tuner_config);
    effective.bsp.num_c = tuning->best.num_c;
    RT_LOG(Info, "rtmobile") << "auto-tuned num_c=" << effective.bsp.num_c;
  }
  BspPruner pruner(effective.bsp);
  BspResult result = pruner.prune(model, train_data, rng);
  return compile_with(model, std::move(result), std::move(tuning));
}

Deployment RtMobile::deploy_one_shot(SpeechModel& model) const {
  BspPruner pruner(config_.bsp);
  BspResult result = pruner.prune_one_shot(model);
  return compile_with(model, std::move(result), std::nullopt);
}

}  // namespace rtmobile

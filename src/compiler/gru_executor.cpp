#include "compiler/gru_executor.hpp"

#include <algorithm>

#include "compiler/gru_gates.hpp"
#include "hw/timer.hpp"
#include "tensor/ops.hpp"
#include "util/check.hpp"

namespace rtmobile {
namespace {

/// Compiles one weight under per-name mask lookup; no mask => dense plan
/// with the same threading options.
LayerPlan compile_weight(const Matrix& weights,
                         const std::map<std::string, BlockMask>& masks,
                         const std::string& name,
                         const CompilerOptions& options) {
  const auto it = masks.find(name);
  if (it == masks.end()) {
    CompilerOptions dense_options = options;
    dense_options.format = SparseFormat::kDense;
    return LayerPlan::compile(weights, nullptr, dense_options);
  }
  return LayerPlan::compile(weights, &it->second, options);
}

}  // namespace

CompiledSpeechModel::CompiledSpeechModel(
    const SpeechModel& model, const std::map<std::string, BlockMask>& masks,
    const CompilerOptions& options, ThreadPool* pool)
    : config_(model.config()), options_(options), pool_(pool) {
  layers_.reserve(config_.num_layers);
  for (std::size_t l = 0; l < config_.num_layers; ++l) {
    const GruParams& params = model.layer(l);
    const std::string prefix = "gru" + std::to_string(l) + ".";
    CompiledLayer layer;
    layer.w_z = compile_weight(params.w_z, masks, prefix + "w_z", options);
    layer.w_r = compile_weight(params.w_r, masks, prefix + "w_r", options);
    layer.w_h = compile_weight(params.w_h, masks, prefix + "w_h", options);
    layer.u_z = compile_weight(params.u_z, masks, prefix + "u_z", options);
    layer.u_r = compile_weight(params.u_r, masks, prefix + "u_r", options);
    layer.u_h = compile_weight(params.u_h, masks, prefix + "u_h", options);
    layer.b_z = params.b_z;
    layer.b_r = params.b_r;
    layer.b_h = params.b_h;
    layers_.push_back(std::move(layer));
  }
  fc_ = compile_weight(model.fc_weight(), masks, "fc.w", options);
  fc_b_ = model.fc_bias();

  // One scratch slot per possible step_batch chunk (the pool never runs
  // more than thread_count chunks per job; slot 0 doubles as the
  // single-threaded path's scratch).
  const std::size_t slots = pool_ != nullptr ? pool_->thread_count() : 1;
  // Pre-size every slot's LRE gather scratch to the widest plan's need
  // so the first serving step never allocates, for however many thread
  // partitions a single-stream matvec might split into.
  std::size_t gather_floats = fc_.lre_gather_floats();
  for (const CompiledLayer& layer : layers_) {
    for (const LayerPlan* plan : {&layer.w_z, &layer.w_r, &layer.w_h,
                                  &layer.u_z, &layer.u_r, &layer.u_h}) {
      gather_floats = std::max(gather_floats, plan->lre_gather_floats());
    }
  }
  step_scratch_.reserve(slots);
  for (std::size_t s = 0; s < slots; ++s) {
    step_scratch_.push_back(
        std::make_unique<StepScratch>(config_.hidden_dim));
    step_scratch_.back()->lre.prepare(options_.threads, gather_floats);
  }

  // Fused batched-step panels, sized once here so step_batch never
  // allocates: capacity rows per panel, and per-partition gather
  // scratch wide enough for the widest plan's batched kernel at full
  // capacity.
  if (options_.fused != FusedMode::kNever) {
    const std::size_t capacity = std::max<std::size_t>(
        options_.max_fused_batch, std::size_t{1});
    fused_ = std::make_unique<FusedScratch>(capacity, config_.hidden_dim);
    std::size_t panel_floats = fc_.batch_gather_floats();
    std::size_t q8_words = fc_.q8_scratch_words(capacity);
    bool all_int8 = fc_.int8_weights();
    for (const CompiledLayer& layer : layers_) {
      for (const LayerPlan* plan : {&layer.w_z, &layer.w_r, &layer.w_h,
                                    &layer.u_z, &layer.u_r, &layer.u_h}) {
        panel_floats = std::max(panel_floats, plan->batch_gather_floats());
        q8_words = std::max(q8_words, plan->q8_scratch_words(capacity));
        all_int8 = all_int8 && plan->int8_weights();
      }
    }
    fused_->lre.prepare(options_.threads, capacity * panel_floats);
    fused_q8_acts_ =
        options_.activation == ActivationPrecision::kInt8 && all_int8;
    if (fused_q8_acts_) {
      fused_->lre.prepare_q8(options_.threads, q8_words);
      fused_->xq.resize(capacity,
                        std::max(config_.input_dim, config_.hidden_dim));
      fused_->hq.resize(capacity, config_.hidden_dim);
      fused_->gq.resize(capacity, config_.hidden_dim);
    }
  }
}

bool CompiledSpeechModel::use_fused(std::size_t batch) const {
  if (fused_ == nullptr) return false;  // kNever allocates no panels
  if (batch > options_.max_fused_batch) return false;  // panel capacity
  if (options_.fused == FusedMode::kAlways) return true;
  return batch >= options_.min_fused_batch;
}

void CompiledSpeechModel::step_layer(const CompiledLayer& layer,
                                     std::span<const float> x,
                                     std::span<const float> h_prev,
                                     std::span<float> h_out,
                                     StepScratch& scratch,
                                     ThreadPool* pool) const {
  const std::span<float> scratch_a = scratch.a.span();
  const std::span<float> scratch_b = scratch.b.span();
  const std::span<float> scratch_c = scratch.c.span();
  const std::span<float> scratch_d = scratch.d.span();
  // scratch_a/scratch_c take W_z x / W_r x and leave holding z / r . h.
  layer.w_z.execute(x, scratch_a, pool, &scratch.lre);
  layer.u_z.execute(h_prev, scratch_b, pool, &scratch.lre);
  layer.w_r.execute(x, scratch_c, pool, &scratch.lre);
  layer.u_r.execute(h_prev, scratch_d, pool, &scratch.lre);
  gru_update_reset_row(scratch_a, scratch_b, layer.b_z.span(), scratch_c,
                       scratch_d, layer.b_r.span(), h_prev);
  layer.w_h.execute(x, scratch_b, pool, &scratch.lre);
  layer.u_h.execute(scratch_c, scratch_d, pool, &scratch.lre);
  gru_candidate_blend_row(scratch_a, scratch_b, scratch_d, layer.b_h.span(),
                          h_prev, h_out);
}

void CompiledSpeechModel::step_stream(std::span<const float> frame,
                                      StreamState& state,
                                      std::span<float> logits,
                                      StepScratch& scratch,
                                      ThreadPool* pool) const {
  std::span<const float> input = frame;
  for (std::size_t l = 0; l < layers_.size(); ++l) {
    step_layer(layers_[l], input, state.h[l].span(), scratch.h_next.span(),
               scratch, pool);
    std::swap(state.h[l], scratch.h_next);
    input = state.h[l].span();
  }
  fc_.execute(input, logits, pool, &scratch.lre);
  add_inplace(logits, fc_b_.span());
}

StreamState CompiledSpeechModel::make_state() const {
  StreamState state;
  state.h.assign(layers_.size(), Vector(config_.hidden_dim, 0.0F));
  return state;
}

StepResult CompiledSpeechModel::step_batch(
    const Matrix& features, std::span<StreamState* const> states,
    Matrix& logits) const {
  const std::size_t batch = states.size();
  RT_REQUIRE(batch > 0, "step_batch: empty batch");
  RT_REQUIRE(features.cols() == config_.input_dim,
             "step_batch: feature dimension mismatch");
  RT_REQUIRE(features.rows() >= batch,
             "step_batch: one feature row per state");
  RT_REQUIRE(logits.rows() >= batch && logits.cols() == config_.num_classes,
             "step_batch: logits shape mismatch");
  for (std::size_t b = 0; b < batch; ++b) {
    RT_REQUIRE(states[b] != nullptr && states[b]->h.size() == layers_.size(),
               "step_batch: state layer count mismatch");
  }

  if (use_fused(batch)) {
    return step_batch_fused(features, states, logits);
  }

  const auto run_rows = [&](std::size_t slot, std::size_t begin,
                            std::size_t end) {
    StepScratch& scratch = *step_scratch_[slot];
    for (std::size_t b = begin; b < end; ++b) {
      // Per-stream kernels run single-threaded: with many streams in
      // flight, cross-stream partitioning keeps every core busy without
      // nested pool dispatch.
      step_stream(features.row(b), *states[b], logits.row(b), scratch,
                  nullptr);
    }
  };
  if (pool_ != nullptr && batch > 1) {
    pool_->parallel_for_indexed(batch, run_rows);
  } else {
    run_rows(0, 0, batch);
  }
  return {batch, false};
}

StepResult CompiledSpeechModel::step_batch_fused(
    const Matrix& features, std::span<StreamState* const> states,
    Matrix& logits) const {
  const std::size_t batch = states.size();
  const std::size_t hidden = config_.hidden_dim;
  FusedScratch& fs = *fused_;

  // The gate epilogue is per-(stream, unit) independent, so partitioning
  // it across the pool cannot change any stream's arithmetic; each
  // stream row goes through the same row kernels as step_layer.
  const auto for_streams = [&](auto&& fn) {
    if (pool_ != nullptr && batch > 1) {
      pool_->parallel_for(batch, [&](std::size_t begin, std::size_t end) {
        for (std::size_t b = begin; b < end; ++b) fn(b);
      });
    } else {
      for (std::size_t b = 0; b < batch; ++b) fn(b);
    }
  };

  const Matrix* x = &features;
  Matrix* out = &fs.out0;
  Matrix* out_prev = &fs.out1;
  for (std::size_t l = 0; l < layers_.size(); ++l) {
    const CompiledLayer& layer = layers_[l];
    const QuantizedActivations* xqp = nullptr;
    const QuantizedActivations* hqp = nullptr;
    const QuantizedActivations* gqp = nullptr;
    if (fused_q8_acts_) {
      fs.xq.resize(batch, x->cols());
      fs.hq.resize(batch, hidden);
      fs.gq.resize(batch, hidden);
      xqp = &fs.xq;
      hqp = &fs.hq;
      gqp = &fs.gq;
    }
    // Gather this layer's recurrent states into one contiguous panel.
    // Panel row b is stream b of `states` — the caller's scheduler-
    // gather order, pinned as part of the step_batch contract.
    for_streams([&](std::size_t b) {
      const std::span<const float> h_prev = states[b]->h[l].span();
      std::copy(h_prev.begin(), h_prev.end(), fs.h.row(b).begin());
      if (fused_q8_acts_) {
        fs.xq.quantize_row(b, x->row(b));
        fs.hq.quantize_row(b, fs.h.row(b));
      }
    });
    if (fused_q8_acts_) {
      fs.xq.transpose(batch);
      fs.hq.transpose(batch);
    }

    // Panels A/C take W_z x / W_r x and leave holding z / r . h_prev.
    layer.w_z.execute_batch(*x, fs.a, batch, pool_, &fs.lre, xqp);
    layer.u_z.execute_batch(fs.h, fs.b, batch, pool_, &fs.lre, hqp);
    layer.w_r.execute_batch(*x, fs.c, batch, pool_, &fs.lre, xqp);
    layer.u_r.execute_batch(fs.h, fs.d, batch, pool_, &fs.lre, hqp);
    for_streams([&](std::size_t b) {
      gru_update_reset_row(fs.a.row(b), fs.b.row(b), layer.b_z.span(),
                           fs.c.row(b), fs.d.row(b), layer.b_r.span(),
                           fs.h.row(b));
      if (fused_q8_acts_) fs.gq.quantize_row(b, fs.c.row(b));
    });
    if (fused_q8_acts_) fs.gq.transpose(batch);
    layer.w_h.execute_batch(*x, fs.b, batch, pool_, &fs.lre, xqp);
    layer.u_h.execute_batch(fs.c, fs.d, batch, pool_, &fs.lre, gqp);
    // h = (1 - z) h_prev + z h~, scattered straight back to the states.
    for_streams([&](std::size_t b) {
      const std::span<float> h_out = out->row(b);
      gru_candidate_blend_row(fs.a.row(b), fs.b.row(b), fs.d.row(b),
                              layer.b_h.span(), fs.h.row(b), h_out);
      std::copy(h_out.begin(), h_out.end(), states[b]->h[l].span().begin());
    });
    x = out;
    std::swap(out, out_prev);
  }

  const QuantizedActivations* xqp = nullptr;
  if (fused_q8_acts_) {
    fs.xq.resize(batch, x->cols());
    for_streams([&](std::size_t b) { fs.xq.quantize_row(b, x->row(b)); });
    fs.xq.transpose(batch);
    xqp = &fs.xq;
  }
  fc_.execute_batch(*x, logits, batch, pool_, &fs.lre, xqp);
  for (std::size_t b = 0; b < batch; ++b) {
    add_inplace(logits.row(b), fc_b_.span());
  }
  return {batch, true};
}

Matrix CompiledSpeechModel::infer(const Matrix& features) const {
  RT_REQUIRE(features.cols() == config_.input_dim,
             "infer: feature dimension mismatch");
  const std::size_t frames = features.rows();
  RT_REQUIRE(frames > 0, "infer: empty utterance");
  const std::size_t hidden = config_.hidden_dim;

  Matrix current = features;
  StepScratch scratch(hidden);
  for (const CompiledLayer& layer : layers_) {
    Matrix next(frames, hidden);
    Vector h(hidden, 0.0F);
    for (std::size_t t = 0; t < frames; ++t) {
      step_layer(layer, current.row(t), h.span(), next.row(t), scratch,
                 pool_);
      std::copy(next.row(t).begin(), next.row(t).end(), h.begin());
    }
    current = std::move(next);
  }

  Matrix logits(frames, config_.num_classes);
  for (std::size_t t = 0; t < frames; ++t) {
    fc_.execute(current.row(t), logits.row(t), pool_, &scratch.lre);
    add_inplace(logits.row(t), fc_b_.span());
  }
  return logits;
}

void CompiledSpeechModel::run_recurrence(std::size_t frames,
                                         std::size_t batch) const {
  RT_REQUIRE(frames > 0, "run_recurrence: frames must be positive");
  RT_REQUIRE(batch > 0, "run_recurrence: batch must be positive");
  const std::size_t hidden = config_.hidden_dim;

  if (batch == 1) {
    // Single-stream steady state: each matvec may thread internally.
    Vector x(config_.input_dim, 0.1F);
    std::vector<Vector> states(layers_.size(), Vector(hidden, 0.0F));
    Vector h_next(hidden);
    StepScratch scratch(hidden);
    for (std::size_t t = 0; t < frames; ++t) {
      // First layer consumes x, each later layer consumes the layer
      // below's fresh state; every layer keeps its own recurrent state.
      std::span<const float> input = x.span();
      for (std::size_t l = 0; l < layers_.size(); ++l) {
        step_layer(layers_[l], input, states[l].span(), h_next.span(),
                   scratch, pool_);
        std::swap(states[l], h_next);
        input = states[l].span();
      }
    }
    return;
  }

  // Multi-stream steady state through the batched step path.
  Matrix x(batch, config_.input_dim, 0.1F);
  Matrix logits(batch, config_.num_classes);
  std::vector<StreamState> states(batch, make_state());
  std::vector<StreamState*> state_ptrs(batch);
  for (std::size_t b = 0; b < batch; ++b) state_ptrs[b] = &states[b];
  for (std::size_t t = 0; t < frames; ++t) {
    step_batch(x, state_ptrs, logits);
  }
}

std::size_t CompiledSpeechModel::total_nnz() const {
  std::size_t total = fc_.nnz();
  for (const CompiledLayer& layer : layers_) {
    total += layer.w_z.nnz() + layer.w_r.nnz() + layer.w_h.nnz() +
             layer.u_z.nnz() + layer.u_r.nnz() + layer.u_h.nnz();
  }
  return total;
}

std::size_t CompiledSpeechModel::total_memory_bytes() const {
  std::size_t total = fc_.memory_bytes();
  for (const CompiledLayer& layer : layers_) {
    total += layer.w_z.memory_bytes() + layer.w_r.memory_bytes() +
             layer.w_h.memory_bytes() + layer.u_z.memory_bytes() +
             layer.u_r.memory_bytes() + layer.u_h.memory_bytes();
  }
  return total;
}

std::vector<CompiledSpeechModel::PlanProfile> CompiledSpeechModel::profile(
    std::size_t iters) const {
  RT_REQUIRE(iters > 0, "profile: iters must be positive");
  std::vector<PlanProfile> profiles;
  Vector x_input(config_.input_dim, 0.1F);
  Vector x_hidden(config_.hidden_dim, 0.1F);
  Vector y_hidden(config_.hidden_dim);
  Vector y_classes(config_.num_classes);

  // One gather scratch for every timed matvec, so the timings exclude
  // the allocation execute() makes without one. Local, not step_scratch_:
  // a concurrent step may be using that.
  LreScratch scratch;
  const auto measure = [&](const std::string& name, const LayerPlan& plan,
                           std::span<const float> x, std::span<float> y) {
    PlanProfile entry;
    entry.name = name;
    entry.nnz = plan.nnz();
    plan.execute(x, y, pool_, &scratch);  // grows the scratch untimed
    entry.time_us = time_best_of_us(
        [&] { plan.execute(x, y, pool_, &scratch); }, iters, 2);
    profiles.push_back(std::move(entry));
  };

  for (std::size_t l = 0; l < layers_.size(); ++l) {
    const CompiledLayer& layer = layers_[l];
    const std::string prefix = "gru" + std::to_string(l) + ".";
    const std::span<const float> x =
        l == 0 ? x_input.span() : std::span<const float>(x_hidden.span());
    measure(prefix + "w_z", layer.w_z, x, y_hidden.span());
    measure(prefix + "w_r", layer.w_r, x, y_hidden.span());
    measure(prefix + "w_h", layer.w_h, x, y_hidden.span());
    measure(prefix + "u_z", layer.u_z, x_hidden.span(), y_hidden.span());
    measure(prefix + "u_r", layer.u_r, x_hidden.span(), y_hidden.span());
    measure(prefix + "u_h", layer.u_h, x_hidden.span(), y_hidden.span());
  }
  measure("fc.w", fc_, x_hidden.span(), y_classes.span());

  double total = 0.0;
  for (const PlanProfile& entry : profiles) total += entry.time_us;
  for (PlanProfile& entry : profiles) {
    entry.share = total > 0.0 ? entry.time_us / total : 0.0;
  }
  std::sort(profiles.begin(), profiles.end(),
            [](const PlanProfile& a, const PlanProfile& b) {
              return a.time_us > b.time_us;
            });
  return profiles;
}

double CompiledSpeechModel::worst_imbalance() const {
  double worst = fc_.imbalance();
  for (const CompiledLayer& layer : layers_) {
    for (const LayerPlan* plan : {&layer.w_z, &layer.w_r, &layer.w_h,
                                  &layer.u_z, &layer.u_r, &layer.u_h}) {
      worst = std::max(worst, plan->imbalance());
    }
  }
  return worst;
}

}  // namespace rtmobile

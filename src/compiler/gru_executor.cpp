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

/// Runs fn(b) for every stream b of a batch, partitioned across `pool`
/// when there is more than one stream. Only for per-stream independent
/// work, where the partition cannot change any stream's arithmetic.
template <class Fn>
void for_each_stream(ThreadPool* pool, std::size_t batch, const Fn& fn) {
  if (pool != nullptr && batch > 1) {
    pool->parallel_for(batch, [&](std::size_t begin, std::size_t end) {
      for (std::size_t b = begin; b < end; ++b) fn(b);
    });
  } else {
    for (std::size_t b = 0; b < batch; ++b) fn(b);
  }
}

}  // namespace

CompiledSpeechModel::CompiledSpeechModel(
    const SpeechModel& model, const std::map<std::string, BlockMask>& masks,
    const CompilerOptions& options)
    : config_(model.config()), options_(options) {
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

  bool all_int8 = fc_.int8_weights();
  for (const CompiledLayer& layer : layers_) {
    for (const LayerPlan* plan : {&layer.w_z, &layer.w_r, &layer.w_h,
                                  &layer.u_z, &layer.u_r, &layer.u_h}) {
      all_int8 = all_int8 && plan->int8_weights();
    }
  }
  q8_acts_ = options_.activation == ActivationPrecision::kInt8 && all_int8;
}

void CompiledSpeechModel::size_panels(Panels& panels,
                                      std::size_t capacity) const {
  const std::size_t hidden = config_.hidden_dim;
  for (Matrix* panel : {&panels.h, &panels.out0, &panels.out1, &panels.a,
                        &panels.b, &panels.c, &panels.d}) {
    *panel = Matrix(capacity, hidden);
  }
  // Per-partition gather scratch wide enough for the widest plan's
  // batched kernel at full capacity; it also covers every plan's
  // single-stream execute().
  std::size_t panel_floats = fc_.batch_gather_floats();
  std::size_t q8_words = fc_.q8_scratch_words(capacity);
  for (const CompiledLayer& layer : layers_) {
    for (const LayerPlan* plan : {&layer.w_z, &layer.w_r, &layer.w_h,
                                  &layer.u_z, &layer.u_r, &layer.u_h}) {
      panel_floats = std::max(panel_floats, plan->batch_gather_floats());
      q8_words = std::max(q8_words, plan->q8_scratch_words(capacity));
    }
  }
  panels.lre.prepare(options_.threads, capacity * panel_floats);
  if (q8_acts_ && capacity > 1) {
    panels.lre.prepare_q8(options_.threads, q8_words);
    panels.xq.resize(capacity, std::max(config_.input_dim, config_.hidden_dim));
    panels.hq.resize(capacity, hidden);
    panels.gq.resize(capacity, hidden);
  }
  panels.capacity = capacity;
}

StreamState CompiledSpeechModel::make_state() const {
  StreamState state;
  state.h.assign(layers_.size(), Vector(config_.hidden_dim, 0.0F));
  return state;
}

StepResult CompiledSpeechModel::step_batch(
    const Matrix& features, std::span<StreamState* const> states,
    Matrix& logits, Panels& panels, ThreadPool* pool) const {
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

  if (batch > panels.capacity) {
    size_panels(panels, std::max(batch, kPresizedStreams));
  }
  const Matrix& top = advance_layers(features, states, panels, pool);

  const QuantizedActivations* xqp = nullptr;
  if (q8_acts_ && batch > 1) {
    panels.xq.resize(batch, top.cols());
    for_each_stream(pool, batch, [&](std::size_t b) {
      panels.xq.quantize_row(b, top.row(b));
    });
    panels.xq.transpose(batch);
    xqp = &panels.xq;
  }
  fc_.execute_batch(top, logits, batch, pool, &panels.lre, xqp);
  for (std::size_t b = 0; b < batch; ++b) {
    add_inplace(logits.row(b), fc_b_.span());
  }
  return {batch, batch > 1};
}

const Matrix& CompiledSpeechModel::advance_layers(
    const Matrix& features, std::span<StreamState* const> states,
    Panels& panels, ThreadPool* pool) const {
  const Matrix* x = &features;
  Matrix* out = &panels.out0;
  Matrix* out_prev = &panels.out1;
  for (std::size_t l = 0; l < layers_.size(); ++l) {
    advance_layer(l, *x, states, panels, *out, pool);
    x = out;
    std::swap(out, out_prev);
  }
  return *x;
}

void CompiledSpeechModel::advance_layer(std::size_t l, const Matrix& x,
                                        std::span<StreamState* const> states,
                                        Panels& panels, Matrix& out,
                                        ThreadPool* pool) const {
  const std::size_t batch = states.size();
  const std::size_t hidden = config_.hidden_dim;
  // Width 1 keeps fp32 activations: its matvecs are the per-vector
  // kernels, which read the fp32 row.
  const bool q8 = q8_acts_ && batch > 1;
  const CompiledLayer& layer = layers_[l];
  const QuantizedActivations* xqp = nullptr;
  const QuantizedActivations* hqp = nullptr;
  const QuantizedActivations* gqp = nullptr;
  if (q8) {
    panels.xq.resize(batch, x.cols());
    panels.hq.resize(batch, hidden);
    panels.gq.resize(batch, hidden);
    xqp = &panels.xq;
    hqp = &panels.hq;
    gqp = &panels.gq;
  }
  // Gather this layer's recurrent states into one contiguous panel.
  // Panel row b is stream b of `states` — the caller's scheduler-
  // gather order, pinned as part of the step_batch contract.
  for_each_stream(pool, batch, [&](std::size_t b) {
    const std::span<const float> h_prev = states[b]->h[l].span();
    std::copy(h_prev.begin(), h_prev.end(), panels.h.row(b).begin());
    if (q8) {
      panels.xq.quantize_row(b, x.row(b));
      panels.hq.quantize_row(b, panels.h.row(b));
    }
  });
  if (q8) {
    panels.xq.transpose(batch);
    panels.hq.transpose(batch);
  }

  // Panels A/C take W_z x / W_r x and leave holding z / r . h_prev.
  layer.w_z.execute_batch(x, panels.a, batch, pool, &panels.lre, xqp);
  layer.u_z.execute_batch(panels.h, panels.b, batch, pool, &panels.lre,
                          hqp);
  layer.w_r.execute_batch(x, panels.c, batch, pool, &panels.lre, xqp);
  layer.u_r.execute_batch(panels.h, panels.d, batch, pool, &panels.lre,
                          hqp);
  for_each_stream(pool, batch, [&](std::size_t b) {
    gru_update_reset_row(panels.a.row(b), panels.b.row(b), layer.b_z.span(),
                         panels.c.row(b), panels.d.row(b), layer.b_r.span(),
                         panels.h.row(b));
    if (q8) panels.gq.quantize_row(b, panels.c.row(b));
  });
  if (q8) panels.gq.transpose(batch);
  layer.w_h.execute_batch(x, panels.b, batch, pool, &panels.lre, xqp);
  layer.u_h.execute_batch(panels.c, panels.d, batch, pool, &panels.lre,
                          gqp);
  // h = (1 - z) h_prev + z h~, scattered straight back to the states.
  for_each_stream(pool, batch, [&](std::size_t b) {
    const std::span<float> h_out = out.row(b);
    gru_candidate_blend_row(panels.a.row(b), panels.b.row(b), panels.d.row(b),
                            layer.b_h.span(), panels.h.row(b), h_out);
    std::copy(h_out.begin(), h_out.end(), states[b]->h[l].span().begin());
  });
}

Matrix CompiledSpeechModel::infer(const Matrix& features,
                                  ThreadPool* pool) const {
  RT_REQUIRE(features.cols() == config_.input_dim,
             "infer: feature dimension mismatch");
  const std::size_t frames = features.rows();
  RT_REQUIRE(frames > 0, "infer: empty utterance");

  Panels panels;
  size_panels(panels, 1);
  StreamState state = make_state();
  StreamState* const state_ptr = &state;
  // Layer-major: each layer runs over every frame before the next one
  // starts, so its weights stay hot across frames. A layer's outputs are
  // the next layer's input sequence.
  Matrix sequence = features;
  for (std::size_t l = 0; l < layers_.size(); ++l) {
    Matrix frame(1, sequence.cols());
    Matrix next(frames, config_.hidden_dim);
    for (std::size_t t = 0; t < frames; ++t) {
      std::copy(sequence.row(t).begin(), sequence.row(t).end(),
                frame.row(0).begin());
      advance_layer(l, frame, {&state_ptr, 1}, panels, panels.out0, pool);
      std::copy(panels.out0.row(0).begin(), panels.out0.row(0).end(),
                next.row(t).begin());
    }
    sequence = std::move(next);
  }
  Matrix logits(frames, config_.num_classes);
  for (std::size_t t = 0; t < frames; ++t) {
    fc_.execute(sequence.row(t), logits.row(t), pool, &panels.lre);
    add_inplace(logits.row(t), fc_b_.span());
  }
  return logits;
}

void CompiledSpeechModel::run_recurrence(std::size_t frames,
                                         std::size_t batch,
                                         ThreadPool* pool) const {
  RT_REQUIRE(frames > 0, "run_recurrence: frames must be positive");
  RT_REQUIRE(batch > 0, "run_recurrence: batch must be positive");
  Panels panels;
  size_panels(panels, batch);
  // Every layer keeps its own recurrent state; the first consumes x,
  // each later one the layer below's fresh state.
  const Matrix x(batch, config_.input_dim, 0.1F);
  std::vector<StreamState> states(batch, make_state());
  std::vector<StreamState*> state_ptrs(batch);
  for (std::size_t b = 0; b < batch; ++b) state_ptrs[b] = &states[b];
  for (std::size_t t = 0; t < frames; ++t) {
    advance_layers(x, state_ptrs, panels, pool);
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
    std::size_t iters, ThreadPool* pool) const {
  RT_REQUIRE(iters > 0, "profile: iters must be positive");
  std::vector<PlanProfile> profiles;
  Vector x_input(config_.input_dim, 0.1F);
  Vector x_hidden(config_.hidden_dim, 0.1F);
  Vector y_hidden(config_.hidden_dim);
  Vector y_classes(config_.num_classes);

  // One gather scratch for every timed matvec, so the timings exclude
  // the allocation execute() makes without one.
  LreScratch scratch;
  const auto measure = [&](const std::string& name, const LayerPlan& plan,
                           std::span<const float> x, std::span<float> y) {
    PlanProfile entry;
    entry.name = name;
    entry.nnz = plan.nnz();
    plan.execute(x, y, pool, &scratch);  // grows the scratch untimed
    entry.time_us = time_best_of_us(
        [&] { plan.execute(x, y, pool, &scratch); }, iters, 2);
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

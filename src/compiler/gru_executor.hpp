// CompiledSpeechModel: the deployable inference artifact.
//
// This is what "RTMobile deployment" produces: every weight matrix of the
// GRU stack compiled to a LayerPlan (format + reorder + LRE + thread
// partition), executing the same recurrence as SpeechModel::forward but
// through the optimized kernels. Numerical output is bit-comparable to the
// reference forward pass up to float accumulation order.
// The compiled model is immutable and holds no scratch and no threads:
// callers bring their own, so any number of engines (every shard of a
// ShardedEngine) can serve one compiled copy of the weights at once.
#pragma once

#include <map>
#include <span>
#include <string>
#include <vector>

#include "compiler/execution_plan.hpp"
#include "hw/thread_pool.hpp"
#include "rnn/model.hpp"
#include "sparse/block_mask.hpp"

namespace rtmobile {

/// Recurrent state of one audio stream: the hidden vector of every GRU
/// layer. Obtained from CompiledSpeechModel::make_state and threaded
/// through step_batch so many concurrent streams can share one compiled
/// model.
struct StreamState {
  std::vector<Vector> h;  // [num_layers][hidden_dim]

  /// Zeroes all hidden vectors (start of a new utterance).
  void reset() {
    for (Vector& layer : h) layer.fill(0.0F);
  }
};

/// What one step_batch dispatch actually ran: the compute width (streams
/// advanced) and whether that width was batched (width > 1: every weight
/// matrix driven once over a multi-row panel) or a width-1 step. The
/// engine counts it once, in the cells RuntimeStats and the
/// rt_fused_batch_width histogram read.
struct StepResult {
  std::size_t width = 0;
  bool fused = false;
};

class CompiledSpeechModel {
 public:
  /// Row-per-stream panels and quantized-activation buffers: the scratch
  /// of one caller driving step_batch. Row b of every panel belongs to
  /// stream b of the dispatched batch (states order). `h` holds the
  /// gathered previous hidden states; `out0`/`out1` alternate as each
  /// layer's output panel (the next layer's input); `a`..`d` are the gate
  /// buffers. `xq`/`hq`/`gq` carry the int8 activation codes for the
  /// input, hidden, and (r.h) panels when the int8 activation path is on.
  /// The first step_batch sizes a default-constructed instance for
  /// kPresizedStreams streams, so reusing it is allocation-free.
  struct Panels {
    std::size_t capacity = 0;
    Matrix h, out0, out1, a, b, c, d;
    QuantizedActivations xq, hq, gq;
    LreScratch lre;
  };

  /// Compiles `model` under `options`. `masks` maps weight names
  /// ("gru0.w_z", ...) to their BSP structure; weights without an entry are
  /// compiled dense. The plans are partitioned for `options.threads`; a
  /// pool of that width handed to the compute calls runs them threaded.
  CompiledSpeechModel(const SpeechModel& model,
                      const std::map<std::string, BlockMask>& masks,
                      const CompilerOptions& options);

  /// Per-frame logits for an utterance (T x input_dim) -> (T x classes),
  /// run layer by layer (each layer over every frame, then the next) as
  /// width-1 steps in panels of its own, threaded over `pool` (optional,
  /// not owned; a pool takes one caller at a time).
  [[nodiscard]] Matrix infer(const Matrix& features,
                             ThreadPool* pool = nullptr) const;

  /// Fresh zero-initialized recurrent state for one stream.
  [[nodiscard]] StreamState make_state() const;

  /// Advances `states.size()` independent streams by one timestep each:
  /// row b of `features` is stream b's input frame, `states[b]` carries
  /// its recurrence (updated in place), and row b of `logits` receives its
  /// per-frame class scores. `features`/`logits` may have extra trailing
  /// rows (callers reuse grow-only buffers across fluctuating batch
  /// sizes).
  ///
  /// Every width runs the one panel spine: each layer gathers the batch's
  /// hidden states into a contiguous panel and drives each weight matrix
  /// ONCE over all streams (LayerPlan::execute_batch), then runs each
  /// stream row through the shared gate kernels (compiler/gru_gates.hpp).
  /// Width 1 is the same spine on one row; its matvecs thread inside
  /// LayerPlan::execute, exactly as infer() does. The panel's row order
  /// is the order of `states` (the caller's scheduler-gather order) and
  /// is part of the numerics contract: fp32/fp16 output is bit-identical
  /// per stream to infer(), independent of batch composition, because
  /// every per-stream accumulation keeps its per-vector order. Under
  /// ActivationPrecision::kInt8 (int8 weights), widths above 1 quantize
  /// the activation panels; width 1 keeps fp32 activations.
  ///
  /// `panels` and `pool` (optional, not owned) are the caller's: the
  /// model itself is never written, so callers with their own panels and
  /// pools may step one model concurrently.
  StepResult step_batch(const Matrix& features,
                        std::span<StreamState* const> states, Matrix& logits,
                        Panels& panels, ThreadPool* pool = nullptr) const;

  /// Runs only the recurrent stack for `frames` timesteps on constant
  /// input — the steady-state inference kernel that Table II times —
  /// over `batch` streams on the same spine as step_batch, in panels of
  /// its own, threaded over `pool`.
  void run_recurrence(std::size_t frames, std::size_t batch = 1,
                      ThreadPool* pool = nullptr) const;

  /// Total surviving weights across all compiled plans.
  [[nodiscard]] std::size_t total_nnz() const;

  /// Total compiled storage (values + indices) in bytes.
  [[nodiscard]] std::size_t total_memory_bytes() const;

  /// Worst load-imbalance factor across plans.
  [[nodiscard]] double worst_imbalance() const;

  /// Per-plan timing breakdown measured on synthetic inputs.
  struct PlanProfile {
    std::string name;       // e.g. "gru1.u_h"
    std::size_t nnz = 0;
    double time_us = 0.0;   // mean matvec time
    double share = 0.0;     // fraction of the summed matvec time
  };
  /// Times every compiled plan (`iters` matvecs each over `pool`, best
  /// of 2 batches), heaviest first. Identifies which matrices dominate
  /// inference — the input the auto-tuner prioritizes.
  [[nodiscard]] std::vector<PlanProfile> profile(
      std::size_t iters = 50, ThreadPool* pool = nullptr) const;

  [[nodiscard]] const ModelConfig& config() const { return config_; }
  [[nodiscard]] const CompilerOptions& options() const { return options_; }

 private:
  struct CompiledLayer {
    LayerPlan w_z, w_r, w_h;
    LayerPlan u_z, u_r, u_h;
    Vector b_z, b_r, b_h;
  };

  /// Streams step_batch sizes a caller's panels for before any growth.
  static constexpr std::size_t kPresizedStreams = 64;

  /// Sizes `panels` (and their kernel scratch) for `capacity` streams.
  void size_panels(Panels& panels, std::size_t capacity) const;

  /// Advances every GRU layer of `states` by one timestep, with row b of
  /// `features` as stream b's input. Returns the top layer's output
  /// panel (row b = stream b's new top hidden state), which lives in
  /// `panels`.
  const Matrix& advance_layers(const Matrix& features,
                               std::span<StreamState* const> states,
                               Panels& panels, ThreadPool* pool) const;

  /// Advances GRU layer `l` of `states` by one timestep, with row b of
  /// `x` as stream b's input: row b of `out` (not a panel advance_layer
  /// itself uses as scratch) and states[b]->h[l] receive the new hidden
  /// state.
  void advance_layer(std::size_t l, const Matrix& x,
                     std::span<StreamState* const> states, Panels& panels,
                     Matrix& out, ThreadPool* pool) const;

  ModelConfig config_;
  CompilerOptions options_;
  std::vector<CompiledLayer> layers_;
  LayerPlan fc_;
  Vector fc_b_;
  /// Compile-time decision: int8 activations requested AND every GRU /
  /// FC plan stores int8 weights, so a batched step can run
  /// code-by-code.
  bool q8_acts_ = false;
};

}  // namespace rtmobile

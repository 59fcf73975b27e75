// CompiledSpeechModel: the deployable inference artifact.
//
// This is what "RTMobile deployment" produces: every weight matrix of the
// GRU stack compiled to a LayerPlan (format + reorder + LRE + thread
// partition), executing the same recurrence as SpeechModel::forward but
// through the optimized kernels. Numerical output is bit-comparable to the
// reference forward pass up to float accumulation order.
#pragma once

#include <map>
#include <memory>
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
/// advanced) and whether it went through the fused batched-matmat spine
/// or the per-stream matvec fallback. The engine mirrors this into
/// RuntimeStats / telemetry (rt_fused_steps_total etc.).
struct StepResult {
  std::size_t width = 0;
  bool fused = false;
};

class CompiledSpeechModel {
 public:
  /// Compiles `model` under `options`. `masks` maps weight names
  /// ("gru0.w_z", ...) to their BSP structure; weights without an entry are
  /// compiled dense. `pool` (optional, not owned) enables multithreaded
  /// execution; it must outlive the compiled model.
  CompiledSpeechModel(const SpeechModel& model,
                      const std::map<std::string, BlockMask>& masks,
                      const CompilerOptions& options,
                      ThreadPool* pool = nullptr);

  /// Per-frame logits for an utterance (T x input_dim) -> (T x classes).
  [[nodiscard]] Matrix infer(const Matrix& features) const;

  /// Fresh zero-initialized recurrent state for one stream.
  [[nodiscard]] StreamState make_state() const;

  /// Advances `states.size()` independent streams by one timestep each:
  /// row b of `features` is stream b's input frame, `states[b]` carries
  /// its recurrence (updated in place), and row b of `logits` receives its
  /// per-frame class scores. `features`/`logits` may have extra trailing
  /// rows (callers reuse grow-only buffers across fluctuating batch
  /// sizes). Streams are partitioned across the thread pool (cross-stream
  /// parallelism replaces intra-matvec threading), and each stream
  /// computes exactly the arithmetic of infer(), so chunked streaming
  /// output is bit-identical to whole-utterance inference.
  ///
  /// Chunk workers reuse per-slot StepScratch buffers cached on the model,
  /// so one engine driving step_batch is allocation-free per timestep; as
  /// a consequence step_batch must not be called concurrently on the same
  /// CompiledSpeechModel (each serving shard owns its own instance).
  ///
  /// Dispatch: when CompilerOptions::fused admits the batch width (see
  /// FusedMode), the step runs the fused spine — every layer gathers the
  /// batch's hidden states into one contiguous panel and drives each
  /// weight matrix ONCE over all streams (batched matmat) instead of
  /// once per stream. The panel's row order is the order of `states`
  /// (the caller's scheduler-gather order) and is part of the numerics
  /// contract: fp32/fp16 fused output is bit-identical to the
  /// per-stream path per stream, independent of batch composition,
  /// because every per-stream accumulation keeps its per-vector order.
  /// Returns what ran so callers can account fused vs fallback steps.
  StepResult step_batch(const Matrix& features,
                        std::span<StreamState* const> states,
                        Matrix& logits) const;

  /// Runs only the recurrent stack for `frames` timesteps on zero input —
  /// the steady-state inference kernel that Table II times. `batch` > 1
  /// measures the batched multi-stream path (one state per stream).
  void run_recurrence(std::size_t frames, std::size_t batch = 1) const;

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
  /// Times every compiled plan (`iters` matvecs each, best of 2 batches)
  /// and returns the breakdown, heaviest first. Identifies which matrices
  /// dominate inference — the input the auto-tuner prioritizes.
  [[nodiscard]] std::vector<PlanProfile> profile(
      std::size_t iters = 50) const;

  [[nodiscard]] const ModelConfig& config() const { return config_; }
  [[nodiscard]] const CompilerOptions& options() const { return options_; }

 private:
  struct CompiledLayer {
    LayerPlan w_z, w_r, w_h;
    LayerPlan u_z, u_r, u_h;
    Vector b_z, b_r, b_h;
  };

  /// Hidden-sized scratch buffers for one stream's step_layer calls;
  /// `h_next` is the staging vector step_stream swaps layer states
  /// through, and `lre` carries the BSPC kernels' gather buffers — both
  /// hoisted here to keep the serving hot path allocation-free (the
  /// model ctor pre-sizes `lre` to the widest plan's need).
  struct StepScratch {
    explicit StepScratch(std::size_t hidden)
        : a(hidden), b(hidden), c(hidden), d(hidden), h_next(hidden) {}
    Vector a, b, c, d, h_next;
    LreScratch lre;
  };

  /// Panels and quantized-activation buffers for the fused batched
  /// step, pre-sized at compile time to max_fused_batch so the serving
  /// step path is allocation-free. Row b of every panel belongs to
  /// stream b of the dispatched batch (states order). `h` holds the
  /// gathered previous hidden states; `out0`/`out1` alternate as each
  /// layer's output panel (the next layer's input); `a`..`d` mirror
  /// StepScratch's gate buffers, one row per stream. `xq`/`hq`/`gq`
  /// carry the int8 activation codes for the input, hidden, and (r.h)
  /// panels when the int8 activation path is on.
  struct FusedScratch {
    FusedScratch(std::size_t capacity, std::size_t hidden)
        : h(capacity, hidden), out0(capacity, hidden), out1(capacity, hidden),
          a(capacity, hidden), b(capacity, hidden), c(capacity, hidden),
          d(capacity, hidden) {}
    Matrix h, out0, out1, a, b, c, d;
    QuantizedActivations xq, hq, gq;
    LreScratch lre;
  };

  /// One GRU timestep of one stream. `pool` threads the individual
  /// matvecs (nullptr = single-threaded, the mode the batched path uses
  /// because it parallelizes across streams instead).
  void step_layer(const CompiledLayer& layer, std::span<const float> x,
                  std::span<const float> h_prev, std::span<float> h_out,
                  StepScratch& scratch, ThreadPool* pool) const;

  /// True when this batch width should take the fused spine.
  [[nodiscard]] bool use_fused(std::size_t batch) const;

  /// The fused batched step: per layer, gather hidden panels, drive each
  /// weight matrix once over the whole batch, run each stream row through
  /// the same gate kernels as step_layer (compiler/gru_gates.hpp),
  /// scatter the new hidden states back.
  StepResult step_batch_fused(const Matrix& features,
                              std::span<StreamState* const> states,
                              Matrix& logits) const;

  /// Advances every layer of one stream and writes its logits row.
  void step_stream(std::span<const float> frame, StreamState& state,
                   std::span<float> logits, StepScratch& scratch,
                   ThreadPool* pool) const;

  ModelConfig config_;
  CompilerOptions options_;
  std::vector<CompiledLayer> layers_;
  LayerPlan fc_;
  Vector fc_b_;
  ThreadPool* pool_;
  /// One StepScratch per step_batch chunk slot (pool thread count entries,
  /// built eagerly so hot-path access never mutates the vector). Chunk w
  /// of a parallel_for_indexed job uses slot w; slots are never shared
  /// within a job, which is what makes the batched path allocation-free
  /// per timestep instead of building a scratch per chunk per step.
  std::vector<std::unique_ptr<StepScratch>> step_scratch_;
  /// Fused-step panels; null when options_.fused == kNever (the mode's
  /// promise that no fused memory exists). unique_ptr so const member
  /// functions can fill the panels (scratch, not logical state).
  std::unique_ptr<FusedScratch> fused_;
  /// Compile-time decision: int8 activations requested AND every GRU /
  /// FC plan stores int8 weights, so the whole fused step can run
  /// code-by-code.
  bool fused_q8_acts_ = false;
};

}  // namespace rtmobile

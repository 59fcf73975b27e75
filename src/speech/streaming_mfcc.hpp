// Incremental MFCC extraction for streaming audio.
//
// Accepts audio in arbitrarily-sized chunks and emits feature frames that
// are bit-identical to MfccExtractor::extract() over the concatenated
// waveform: both paths share the same per-frame kernel
// (MfccExtractor::extract_frame), and Δ/ΔΔ features are emitted with a
// 4-frame lookahead so the regression windows see exactly the rows the
// batch path sees. Cepstral mean normalization is whole-utterance (not
// causal) and therefore unsupported here; configs must disable it.
//
// The extractor (and so every table the frame kernel reads) is shared:
// a stream holds it through a shared_ptr, so streams of one engine use
// one set of tables, and a stream that migrates to another engine keeps
// its tables alive.
#pragma once

#include <cstddef>
#include <limits>
#include <memory>
#include <span>
#include <vector>

#include "speech/mfcc.hpp"
#include "tensor/matrix.hpp"

namespace rtmobile::speech {

class StreamingMfcc {
 public:
  static constexpr std::size_t kAllFrames =
      std::numeric_limits<std::size_t>::max();

  /// A stream over its own extractor. `config.cepstral_mean_norm` must
  /// be false.
  explicit StreamingMfcc(const MfccConfig& config);
  /// A stream over a shared extractor (non-null, CMN disabled).
  explicit StreamingMfcc(std::shared_ptr<const MfccExtractor> extractor);

  [[nodiscard]] const MfccExtractor& extractor() const { return *extractor_; }
  [[nodiscard]] const MfccConfig& config() const {
    return extractor_->config();
  }
  [[nodiscard]] std::size_t feature_dim() const {
    return extractor_->feature_dim();
  }

  /// Appends audio samples; computes cepstra for every frame that became
  /// complete. May be called with chunks of any size, including one
  /// sample at a time.
  void push(std::span<const float> samples);

  /// Marks end of stream: remaining frames become emittable (Δ windows
  /// clamp at the final frame, as in the batch path). push() afterwards
  /// is an error.
  void finish();

  [[nodiscard]] bool finished() const { return finished_; }

  /// Base cepstral frames computed so far.
  [[nodiscard]] std::size_t total_frames() const { return num_frames_; }

  /// Frames already returned by pop_ready().
  [[nodiscard]] std::size_t frames_emitted() const { return emitted_; }

  /// Base cepstral rows still held. Rows no future Δ/ΔΔ window can
  /// reach are dropped as frames are popped, so a stream popped as it
  /// goes holds a bounded number however long it runs.
  [[nodiscard]] std::size_t retained_frames() const {
    return num_frames_ - base_first_;
  }

  /// Frames whose features are final and not yet popped. Without deltas
  /// every computed frame is final immediately; with deltas a frame
  /// finalizes once 4 successor frames exist (or the stream finished).
  [[nodiscard]] std::size_t ready_frames() const;

  /// Pops up to `max_frames` finalized rows (possibly zero), identical to
  /// the corresponding rows of the batch extraction.
  [[nodiscard]] Matrix pop_ready(std::size_t max_frames = kAllFrames);

  /// Pops one finalized row into `out` (feature_dim-sized) without
  /// allocating; returns false when no row is ready. The allocation-free
  /// path the serving runtime uses.
  [[nodiscard]] bool pop_row(std::span<float> out);

 private:
  /// Writes finalized frame `t`'s features (base [+ Δ, ΔΔ]) into `out`.
  void write_row(std::size_t t, std::span<float> out) const;
  [[nodiscard]] std::span<const float> base_row(std::size_t t) const;
  /// Regression delta of base row `t` (window 2, edges clamped), matching
  /// add_delta_features arithmetic exactly.
  [[nodiscard]] float delta_at(std::size_t t, std::size_t d) const;
  [[nodiscard]] float delta2_at(std::size_t t, std::size_t d) const;

  /// Drops base rows below the oldest one a future row can read, once
  /// at least as many rows go as stay (so each row moves O(1) times).
  void compact_base();

  std::shared_ptr<const MfccExtractor> extractor_;
  // Raw samples not yet fully consumed. buffer_[0] is absolute sample
  // index buffer_start_; prev_sample_ holds index buffer_start_ - 1 for
  // pre-emphasis continuity across compactions.
  std::vector<float> buffer_;
  std::size_t buffer_start_ = 0;
  float prev_sample_ = 0.0F;
  // Reused per-frame work buffers (window, FFT, power, mel): the 10 ms
  // frame path allocates nothing.
  MfccExtractor::FrameScratch frame_scratch_;
  // Base cepstra of frames [base_first_, num_frames_), row-major. A
  // frame's Δ/ΔΔ read base rows up to 2 * window back, so rows before
  // frames_emitted() - 2 * window are dead; keeping every row would cost
  // num_cepstra * 4 B per 10 ms frame (312 KB per audio minute at 13
  // cepstra, 1.2 MB at 51).
  std::vector<float> base_;
  std::size_t base_first_ = 0;
  std::size_t num_frames_ = 0;
  std::size_t emitted_ = 0;
  bool finished_ = false;
};

}  // namespace rtmobile::speech

// The served model, the traffic, the output check and the host
// measurements every workload shares.
//
// Every workload serves the paper's full-size GRU (153 -> 1024 x 2 -> 39)
// with random weights, BSP-pruned like bench_fused (8 x 4 blocks, column
// keep 0.25, then row keep 0.8), compiled to BSPC on one thread (no
// ThreadPool). Inputs come only from the workload seed.
#pragma once

#include <cstddef>
#include <cstdint>
#include <map>
#include <memory>
#include <string>
#include <vector>

#include "compiler/gru_executor.hpp"
#include "rnn/model.hpp"
#include "sparse/block_mask.hpp"
#include "speech/mfcc.hpp"
#include "speech/streaming_decoder.hpp"
#include "speech/synth.hpp"

namespace perfbench {

/// The served MFCC front end: 51 cepstra + deltas = the model's 153 inputs
/// (no CMN: streaming cannot normalize over the whole utterance).
[[nodiscard]] rtmobile::speech::MfccConfig front_end();

/// The stream decode every client asks for (the wire protocol's default
/// greedy decoder).
[[nodiscard]] rtmobile::speech::StreamingDecoderConfig stream_decode();

struct PrunedModel {
  std::unique_ptr<rtmobile::SpeechModel> model;
  std::map<std::string, rtmobile::BlockMask> masks;
};

/// Builds and prunes the full-size model (fixed weight seed: the model is
/// the system under test, not an input).
[[nodiscard]] PrunedModel build_pruned_model();

/// BSPC compile options: fp32, or int8 per-row weights with int8
/// activations in the fused step.
[[nodiscard]] rtmobile::CompilerOptions compile_options(bool int8);

/// Unique synthesized utterances of kUtteranceSamples each. A pool of
/// distinct phone sequences is rendered up front from the seed; stream i
/// replays pool entry i mod P under a gain unique to i, so every stream's
/// audio (and so every cache key) differs while the cost of making it
/// stays out of the timed loop.
inline constexpr std::size_t kUtteranceSamples = 12800;  // 0.8 s
class UniqueAudio {
 public:
  UniqueAudio(std::uint64_t seed, std::size_t pool_size);
  [[nodiscard]] std::vector<float> make(std::size_t index) const;

 private:
  std::vector<std::vector<float>> pool_;
};

/// Repeat-heavy traffic: speech::UtteranceRepeatGenerator at Zipf s=1.1
/// over a pool of 16 utterances, seeded from the workload seed.
[[nodiscard]] rtmobile::speech::UtteranceRepeatGenerator repeat_traffic(
    std::uint64_t seed);

/// The reference answer for one utterance: greedy_decode of
/// CompiledSpeechModel::infer on the batch MFCC of the same audio (the
/// Recognizer contract the streamed fp32 final must equal bit for bit).
[[nodiscard]] std::vector<std::uint16_t> reference_hypothesis(
    const rtmobile::CompiledSpeechModel& fp32_model,
    const std::vector<float>& audio);

/// Share of the reference tokens the hypothesis reproduces:
/// 1 - (substitutions + insertions + deletions) / |reference|.
[[nodiscard]] double token_match(const std::vector<std::uint16_t>& reference,
                                 const std::vector<std::uint16_t>& hypothesis);

/// Peak resident set of this process, in MB (10^6 bytes).
[[nodiscard]] double peak_rss_mb();

/// Host/flags fingerprint (nproc, CPU model, compiler, build type, int8
/// SIMD path, commit) as a JSON object.
[[nodiscard]] std::string host_fingerprint_json(const std::string& commit);

/// memcpy bandwidth (read + write bytes per second, GB/s) over buffers
/// several times the size of the last-level cache: the ceiling the
/// per-plan computed-bytes rates are compared against.
[[nodiscard]] double copy_bandwidth_gbps();

/// One compiled weight plan's matvec profile: its time from
/// CompiledSpeechModel::profile(), operations (2 x nnz) and computed bytes
/// (stored weights + indices + input + output vectors; computed from
/// sizes, not measured).
struct KernelRow {
  std::string name;
  double us = 0.0;
  double gops = 0.0;
  double gbps_computed = 0.0;
};
[[nodiscard]] std::vector<KernelRow> kernel_roofline(
    const PrunedModel& pruned, const rtmobile::CompiledSpeechModel& model);

}  // namespace perfbench

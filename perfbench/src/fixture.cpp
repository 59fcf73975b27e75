#include "fixture.hpp"

#include <sys/resource.h>

#include <algorithm>
#include <chrono>
#include <cstring>
#include <fstream>
#include <thread>

#include "compiler/execution_plan.hpp"
#include "report.hpp"
#include "rnn/param_set.hpp"
#include "speech/decoder.hpp"
#include "speech/per.hpp"
#include "speech/phones.hpp"
#include "train/projection.hpp"
#include "util/rng.hpp"

#ifndef PERFBENCH_BUILD_TYPE
#define PERFBENCH_BUILD_TYPE "unknown"
#endif
#ifndef PERFBENCH_SIMD_QUANT
#define PERFBENCH_SIMD_QUANT 0
#endif

namespace perfbench {

using namespace rtmobile;

speech::MfccConfig front_end() {
  speech::MfccConfig config;
  config.sample_rate_hz = static_cast<double>(kSampleRate);
  config.frame_length = kFrameLength;
  config.frame_shift = kFrameShift;
  config.num_mel_filters = 64;
  config.num_cepstra = 51;  // x3 with deltas = the model's 153 inputs
  config.add_deltas = true;
  config.cepstral_mean_norm = false;
  return config;
}

speech::StreamingDecoderConfig stream_decode() { return {}; }

PrunedModel build_pruned_model() {
  PrunedModel pruned;
  Rng rng(1234);
  pruned.model = std::make_unique<SpeechModel>(ModelConfig::paper_full_size());
  pruned.model->init(rng);
  ParamSet params;
  pruned.model->register_params(params);
  for (const std::string& name : pruned.model->weight_names()) {
    Matrix& w = params.matrix(name);
    BlockMask mask = block_column_mask(w, 8, 4, 0.25);
    apply_row_pruning(w, 0.8, mask);
    mask.apply(w);
    pruned.masks.emplace(name, std::move(mask));
  }
  return pruned;
}

CompilerOptions compile_options(bool int8) {
  CompilerOptions options;
  options.format = SparseFormat::kBspc;
  options.threads = 1;
  if (int8) {
    options.precision = WeightPrecision::kInt8PerRow;
    options.activation = ActivationPrecision::kInt8;
  }
  return options;
}

UniqueAudio::UniqueAudio(std::uint64_t seed, std::size_t pool_size) {
  const speech::Synthesizer synth;
  Rng rng(seed ^ 0xA0D10ULL);
  pool_.reserve(pool_size);
  for (std::size_t i = 0; i < pool_size; ++i) {
    // 8 random phones of random relative durations, rendered to exactly
    // kUtteranceSamples: the seed changes what is said, never how long it
    // takes, so stream schedules (and their overlaps) do not depend on it.
    std::vector<std::size_t> phones(8);
    std::vector<std::size_t> durations(8);
    std::size_t total = 0;
    for (std::size_t p = 0; p < phones.size(); ++p) {
      phones[p] = rng.next_below(speech::kNumSurfacePhones);
      durations[p] = 800 + rng.next_below(1200);
      total += durations[p];
    }
    std::size_t assigned = 0;
    for (std::size_t p = 0; p + 1 < durations.size(); ++p) {
      durations[p] = durations[p] * kUtteranceSamples / total;
      assigned += durations[p];
    }
    durations.back() = kUtteranceSamples - assigned;
    std::vector<float> audio = synth.render_sequence(phones, durations, rng);
    audio.resize(kUtteranceSamples, 0.0F);
    pool_.push_back(std::move(audio));
  }
}

std::vector<float> UniqueAudio::make(std::size_t index) const {
  std::vector<float> audio = pool_[index % pool_.size()];
  const float gain =
      1.0F - 0.001F * static_cast<float>(index / pool_.size());
  for (float& s : audio) s *= gain;
  return audio;
}

speech::UtteranceRepeatGenerator repeat_traffic(std::uint64_t seed) {
  speech::RepeatTrafficConfig config;
  config.distinct_utterances = 16;
  config.skew = 1.1;
  config.seed = seed ^ 0x2E9EA7ULL;
  return speech::UtteranceRepeatGenerator(config);
}

std::vector<std::uint16_t> reference_hypothesis(
    const CompiledSpeechModel& fp32_model, const std::vector<float>& audio) {
  const speech::MfccExtractor extractor(front_end());
  const Matrix logits = fp32_model.infer(extractor.extract(audio));
  return speech::greedy_decode(logits, stream_decode().greedy);
}

double token_match(const std::vector<std::uint16_t>& reference,
                   const std::vector<std::uint16_t>& hypothesis) {
  if (reference.empty()) return hypothesis.empty() ? 1.0 : 0.0;
  const speech::EditStats edits = speech::align(reference, hypothesis);
  return 1.0 - static_cast<double>(edits.total_errors()) /
                   static_cast<double>(reference.size());
}

double peak_rss_mb() {
  rusage usage{};
  getrusage(RUSAGE_SELF, &usage);
  return static_cast<double>(usage.ru_maxrss) * 1024.0 * 1e-6;  // KiB
}

std::string host_fingerprint_json(const std::string& commit) {
  std::string cpu = "unknown";
  std::ifstream cpuinfo("/proc/cpuinfo");
  for (std::string line; std::getline(cpuinfo, line);) {
    if (line.rfind("model name", 0) == 0) {
      const auto colon = line.find(':');
      if (colon != std::string::npos) cpu = line.substr(colon + 2);
      break;
    }
  }
  return std::string("{\"nproc\": ") +
         std::to_string(std::thread::hardware_concurrency()) +
         ", \"cpu\": " + json_string(cpu) +
         ", \"compiler\": " + json_string(__VERSION__) +
         ", \"build_type\": " + json_string(PERFBENCH_BUILD_TYPE) +
         ", \"int8_avx2_fma\": " + (PERFBENCH_SIMD_QUANT ? "true" : "false") +
         ", \"commit\": " + json_string(commit) + "}";
}

double copy_bandwidth_gbps() {
  // 2 x 256 MiB: several times any LLC this runs on (the reference host's
  // L3 is 105 MiB), so every pass streams from DRAM.
  constexpr std::size_t kBytes = 256U << 20;
  std::vector<char> src(kBytes, 1);
  std::vector<char> dst(kBytes, 0);
  double best_s = 1e30;
  for (int pass = 0; pass < 4; ++pass) {
    src[static_cast<std::size_t>(pass)] = static_cast<char>(pass);
    const auto start = std::chrono::steady_clock::now();
    std::memcpy(dst.data(), src.data(), kBytes);
    const double s = std::chrono::duration<double>(
                         std::chrono::steady_clock::now() - start)
                         .count();
    best_s = std::min(best_s, s);
  }
  // Keep the copies observable so they cannot be elided.
  volatile char sink = dst[kBytes / 2];
  (void)sink;
  return 2.0 * static_cast<double>(kBytes) / best_s * 1e-9;
}

std::vector<KernelRow> kernel_roofline(const PrunedModel& pruned,
                                       const CompiledSpeechModel& model) {
  // Computed bytes per plan: recompile each weight exactly as the model
  // did (same options, same mask) and read its storage footprint.
  std::map<std::string, std::size_t> bytes;
  const SpeechModel& m = *pruned.model;
  const auto account = [&](const std::string& name, const Matrix& w) {
    const auto it = pruned.masks.find(name);
    CompilerOptions options = model.options();
    if (it == pruned.masks.end()) options.format = SparseFormat::kDense;
    const LayerPlan plan = LayerPlan::compile(
        w, it == pruned.masks.end() ? nullptr : &it->second, options);
    bytes[name] = plan.memory_bytes() +
                  (plan.rows() + plan.cols()) * sizeof(float);
  };
  for (std::size_t l = 0; l < m.config().num_layers; ++l) {
    const GruParams& p = m.layer(l);
    const std::string prefix = "gru" + std::to_string(l) + ".";
    account(prefix + "w_z", p.w_z);
    account(prefix + "w_r", p.w_r);
    account(prefix + "w_h", p.w_h);
    account(prefix + "u_z", p.u_z);
    account(prefix + "u_r", p.u_r);
    account(prefix + "u_h", p.u_h);
  }
  account("fc.w", m.fc_weight());

  std::vector<KernelRow> rows;
  for (const CompiledSpeechModel::PlanProfile& plan : model.profile(50)) {
    KernelRow row;
    row.name = plan.name;
    row.us = plan.time_us;
    if (plan.time_us > 0.0) {
      row.gops = 2.0 * static_cast<double>(plan.nnz) / plan.time_us * 1e-3;
      row.gbps_computed =
          static_cast<double>(bytes[plan.name]) / plan.time_us * 1e-3;
    }
    rows.push_back(row);
  }
  std::sort(rows.begin(), rows.end(),
            [](const KernelRow& a, const KernelRow& b) {
              return a.name < b.name;
            });
  return rows;
}

}  // namespace perfbench

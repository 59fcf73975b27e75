// Host-speed probe: a fixed kernel owned by the benchmark, timed at regular
// points of a run so that each run can report how fast the host was while
// it measured.
//
// The reference host is a shared VM whose speed drifts with its
// neighbours' load (up to 2x over minutes). A compute-bound metric moves
// with that drift, run to run, by more than any useful regression bound.
// The probe does work of the same kind as the served model (fp32 and int8
// multiply-accumulates streaming over a few MB of weights) but none of the
// program's code, so a change to the program cannot move it directly: its
// time follows the host's speed.
#pragma once

#include <cstdint>
#include <vector>

namespace perfbench {

class HostSpeedProbe {
 public:
  HostSpeedProbe();

  /// Runs the kernel (about 1 ms on the reference host) at most once per
  /// `interval_us` of wall time, recording its time.
  void maybe_sample(double now_us, double interval_us);

  /// Median sample, in microseconds (0 before the first sample).
  [[nodiscard]] double median_us() const;

 private:
  void sample();

  std::vector<float> w_;
  std::vector<float> x_;
  std::vector<std::int8_t> q_;
  std::vector<std::int8_t> qx_;
  std::vector<double> samples_us_;
  double next_us_ = 0.0;
  double sink_ = 0.0;
};

}  // namespace perfbench

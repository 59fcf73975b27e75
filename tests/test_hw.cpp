// Unit tests for the hardware layer: thread pool, timers, device/energy
// models, and the calibration of the models against the paper's Table II.
#include <gtest/gtest.h>

#include <atomic>
#include <cmath>

#include "hw/device_model.hpp"
#include "hw/energy_model.hpp"
#include "hw/paper_reference.hpp"
#include "hw/thread_pool.hpp"
#include "hw/timer.hpp"

namespace rtmobile {
namespace {

/// Keeps the optimizer from discarding a benchmark-style computation.
void benchmark_do_not_optimize(double& value) {
  asm volatile("" : "+m"(value));
}

// ----------------------------------------------------------- thread pool
TEST(ThreadPool, ParallelForCoversRangeExactlyOnce) {
  ThreadPool pool(4);
  std::vector<std::atomic<int>> hits(1000);
  pool.parallel_for(1000, [&](std::size_t begin, std::size_t end) {
    for (std::size_t i = begin; i < end; ++i) hits[i].fetch_add(1);
  });
  for (const auto& h : hits) {
    EXPECT_EQ(h.load(), 1);
  }
}

TEST(ThreadPool, HandlesFewerItemsThanThreads) {
  ThreadPool pool(8);
  std::atomic<int> total{0};
  pool.parallel_for(3, [&](std::size_t begin, std::size_t end) {
    total.fetch_add(static_cast<int>(end - begin));
  });
  EXPECT_EQ(total.load(), 3);
  pool.parallel_for(0, [&](std::size_t, std::size_t) { FAIL(); });
}

TEST(ThreadPool, IndexedRunsEveryIndexAndEveryChunkOnce) {
  ThreadPool pool(3);
  std::vector<std::atomic<int>> index_hits(10);
  std::vector<std::atomic<int>> chunk_hits(pool.thread_count());
  pool.parallel_for_indexed(
      10, [&](std::size_t chunk, std::size_t begin, std::size_t end) {
        ASSERT_LT(chunk, chunk_hits.size());
        chunk_hits[chunk].fetch_add(1);
        for (std::size_t i = begin; i < end; ++i) index_hits[i].fetch_add(1);
      });
  for (const auto& h : index_hits) EXPECT_EQ(h.load(), 1);
  for (const auto& h : chunk_hits) EXPECT_EQ(h.load(), 1);
}

TEST(ThreadPool, PropagatesExceptions) {
  ThreadPool pool(2);
  // The throwing chunk runs on a worker in one job and on the caller in
  // the other; either way the exception reaches the caller.
  for (const std::size_t bad_chunk : {std::size_t{1}, std::size_t{0}}) {
    const auto job = [bad_chunk](std::size_t chunk, std::size_t,
                                 std::size_t) {
      if (chunk == bad_chunk) throw std::runtime_error("failure");
    };
    EXPECT_THROW(pool.parallel_for_indexed(2, job), std::runtime_error);
  }
  // Pool must still be usable after an exception.
  std::atomic<int> counter{0};
  pool.parallel_for(10, [&](std::size_t begin, std::size_t end) {
    counter.fetch_add(static_cast<int>(end - begin));
  });
  EXPECT_EQ(counter.load(), 10);
}

TEST(ThreadPool, RejectsZeroThreads) {
  EXPECT_THROW(ThreadPool(0), std::invalid_argument);
  EXPECT_GE(ThreadPool::default_thread_count(), 1U);
  EXPECT_LE(ThreadPool::default_thread_count(), 16U);
}

// ----------------------------------------------------------------- timer
TEST(Timer, MeasuresElapsedTime) {
  WallTimer timer;
  double sink = 0.0;
  for (int i = 0; i < 100000; ++i) sink += std::sqrt(static_cast<double>(i));
  benchmark_do_not_optimize(sink);
  EXPECT_GT(timer.elapsed_us(), 0.0);
}

TEST(Timer, BestOfIsNotWorseThanAnyRun) {
  int calls = 0;
  const double best = time_best_of_us([&calls] { ++calls; }, 10, 3);
  EXPECT_EQ(calls, 30);
  EXPECT_GE(best, 0.0);
  EXPECT_THROW(time_mean_us([] {}, 0), std::invalid_argument);
}

// ---------------------------------------------------------- device model
TEST(DeviceModel, ThroughputDecaysMonotonicallyWithCompression) {
  const DeviceModel gpu = DeviceModel::adreno640_gpu();
  double previous = gpu.effective_gops(1.0);
  for (const double cr : {10.0, 43.0, 103.0, 301.0}) {
    const double current = gpu.effective_gops(cr);
    EXPECT_LT(current, previous);
    previous = current;
  }
  // Clamped beyond the calibration anchor.
  EXPECT_NEAR(gpu.effective_gops(301.0), gpu.effective_gops(500.0), 1e-9);
  EXPECT_THROW(static_cast<void>(gpu.effective_gops(0.5)),
               std::invalid_argument);
}

TEST(DeviceModel, CalibratedEndpointsMatchTable2) {
  const DeviceModel gpu = DeviceModel::adreno640_gpu();
  const DeviceModel cpu = DeviceModel::kryo485_cpu();
  const auto rows = paper::table2();
  const auto& dense = rows.front();
  const auto& sparsest = rows.back();
  // Endpoints were used for calibration: require < 3% error there.
  EXPECT_NEAR(gpu.time_us({dense.gop, dense.compression_rate}),
              dense.gpu_time_us, dense.gpu_time_us * 0.03);
  EXPECT_NEAR(gpu.time_us({sparsest.gop, sparsest.compression_rate}),
              sparsest.gpu_time_us, sparsest.gpu_time_us * 0.03);
  EXPECT_NEAR(cpu.time_us({dense.gop, dense.compression_rate}),
              dense.cpu_time_us, dense.cpu_time_us * 0.03);
  EXPECT_NEAR(cpu.time_us({sparsest.gop, sparsest.compression_rate}),
              sparsest.cpu_time_us, sparsest.cpu_time_us * 0.03);
}

TEST(DeviceModel, InteriorPointsPredictedWithinTolerance) {
  // The interior rows of Table II are *predictions* of the endpoint-
  // calibrated model. The GPU column follows the CR^q law closely (<=10%);
  // the CPU column is noisier in the paper itself (time barely moves from
  // 80x to 103x), so it gets a 20% bar.
  const DeviceModel gpu = DeviceModel::adreno640_gpu();
  const DeviceModel cpu = DeviceModel::kryo485_cpu();
  for (const auto& row : paper::table2()) {
    const Workload workload{row.gop, row.compression_rate};
    EXPECT_NEAR(gpu.time_us(workload), row.gpu_time_us,
                row.gpu_time_us * 0.10)
        << "GPU at " << row.compression_rate << "x";
    EXPECT_NEAR(cpu.time_us(workload), row.cpu_time_us,
                row.cpu_time_us * 0.20)
        << "CPU at " << row.compression_rate << "x";
  }
}

TEST(DeviceModel, CrossoverWithEseMatchesPaperClaim) {
  // Paper: "when the compression rate is higher than 245x, RTMobile can
  // outperform ... while maintaining the same inference time" — the GPU
  // crosses ESE's 82.7us between 153x and 245x.
  const DeviceModel gpu = DeviceModel::adreno640_gpu();
  const auto rows = paper::table2();
  double t_153 = 0.0;
  double t_245 = 0.0;
  for (const auto& row : rows) {
    if (row.compression_rate == 153.0) {
      t_153 = gpu.time_us({row.gop, row.compression_rate});
    }
    if (row.compression_rate == 245.0) {
      t_245 = gpu.time_us({row.gop, row.compression_rate});
    }
  }
  EXPECT_GT(t_153, paper::kEseTimeUs);
  EXPECT_LT(t_245, paper::kEseTimeUs * 1.05);
}

TEST(DeviceModel, ValidatesConstruction) {
  EXPECT_THROW(DeviceModel("x", -1.0, 0.9, 10.0, 0.0, 1.0),
               std::invalid_argument);  // dense_gops
  EXPECT_THROW(DeviceModel("x", 1.0, 1.5, 10.0, 0.0, 1.0),
               std::invalid_argument);  // exponent > 1
  EXPECT_THROW(DeviceModel("x", 2.0, 0.9, 1.0, 0.0, 1.0),
               std::invalid_argument);  // max_cr <= 1
  EXPECT_THROW(DeviceModel("x", 2.0, 0.9, 10.0, 0.0, -1.0),
               std::invalid_argument);  // power
}

// ---------------------------------------------------------- energy model
TEST(EnergyModel, EseReferenceFramesPerJoule) {
  const EseFpgaReference ese;
  // 1 / (41 W * 82.7 us) = 294.9 frames/J.
  EXPECT_NEAR(ese.frames_per_joule(), 294.9, 0.5);
}

TEST(EnergyModel, NormalizedEfficiencyMatchesTable2Endpoints) {
  const EnergyModel energy;
  const DeviceModel gpu = DeviceModel::adreno640_gpu();
  const DeviceModel cpu = DeviceModel::kryo485_cpu();
  const auto rows = paper::table2();
  // Dense endpoint: paper reports GPU 0.88x, CPU 0.25x of ESE.
  const auto& dense = rows.front();
  EXPECT_NEAR(
      energy.normalized_efficiency(gpu, {dense.gop, dense.compression_rate}),
      dense.gpu_energy_eff, dense.gpu_energy_eff * 0.05);
  EXPECT_NEAR(
      energy.normalized_efficiency(cpu, {dense.gop, dense.compression_rate}),
      dense.cpu_energy_eff, dense.cpu_energy_eff * 0.05);
  // Most-compressed endpoint: ~39.8x / ~12.3x.
  const auto& sparsest = rows.back();
  EXPECT_NEAR(energy.normalized_efficiency(
                  gpu, {sparsest.gop, sparsest.compression_rate}),
              sparsest.gpu_energy_eff, sparsest.gpu_energy_eff * 0.05);
  EXPECT_NEAR(energy.normalized_efficiency(
                  cpu, {sparsest.gop, sparsest.compression_rate}),
              sparsest.cpu_energy_eff, sparsest.cpu_energy_eff * 0.05);
}

TEST(EnergyModel, HeadlineClaim40xAt245) {
  // "about 40x energy-efficiency over ESE with the same inference time."
  const EnergyModel energy;
  const DeviceModel gpu = DeviceModel::adreno640_gpu();
  for (const auto& row : paper::table2()) {
    if (row.compression_rate != 245.0) continue;
    const double eff = energy.normalized_efficiency(
        gpu, {row.gop, row.compression_rate});
    EXPECT_GT(eff, 30.0);
    EXPECT_LT(eff, 50.0);
  }
}

TEST(EnergyModel, DirectTimePowerOverload) {
  const EnergyModel energy;
  // ESE vs itself is exactly 1.0.
  EXPECT_NEAR(energy.normalized_efficiency(paper::kEseTimeUs,
                                           paper::kEsePowerW),
              1.0, 1e-9);
  EXPECT_THROW(
      static_cast<void>(energy.normalized_efficiency(0.0, 1.0)),
      std::invalid_argument);
}

// -------------------------------------------------------- paper reference
TEST(PaperReference, TablesHaveExpectedShape) {
  EXPECT_EQ(paper::table1_bsp().size(), 10U);
  EXPECT_EQ(paper::table1_baselines().size(), 6U);
  EXPECT_EQ(paper::table2().size(), 10U);
  // GOP column is consistent with 0.58 / compression.
  for (const auto& row : paper::table2()) {
    EXPECT_NEAR(row.gop, paper::kDenseGop / row.compression_rate,
                row.gop * 0.20);
  }
  // PER degradation is monotone in compression for the BSP rows.
  double previous = -1.0;
  for (const auto& row : paper::table1_bsp()) {
    EXPECT_GE(row.per_pruned - row.per_baseline, previous - 1e-9);
    previous = row.per_pruned - row.per_baseline;
  }
}

}  // namespace
}  // namespace rtmobile

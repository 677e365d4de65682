// Tests for the Xeon Phi simulator substrate: stats accounting and scoping,
// machine specs, cost-model properties (rates, rooflines, synchronization,
// thread scaling), device memory arena + timeline, offload overlap (the
// paper's 17% transfer share and its elimination by the loading thread), and
// traces.
#include <gtest/gtest.h>

#include <cmath>

#include "phi/cost_model.hpp"
#include "phi/device.hpp"
#include "phi/kernel_stats.hpp"
#include "phi/machine_spec.hpp"
#include "phi/offload.hpp"
#include "phi/trace.hpp"
#include "util/error.hpp"

namespace deepphi::phi {
namespace {

// --- KernelStats ---

TEST(KernelStats, AdditionAccumulates) {
  KernelStats a = gemm_contribution(10, 20, 30);
  KernelStats b = loop_contribution(100, 2.0, 1.0, 1.0);
  KernelStats sum = a + b;
  EXPECT_DOUBLE_EQ(sum.gemm_flops, 2.0 * 10 * 20 * 30);
  EXPECT_DOUBLE_EQ(sum.loop_flops, 200.0);
  EXPECT_EQ(sum.kernel_launches, 2);
}

TEST(KernelStats, ScaledMultipliesEverything) {
  KernelStats s = loop_contribution(100, 1.0, 1.0, 1.0) + h2d_contribution(50);
  KernelStats s3 = s.scaled(3.0);
  EXPECT_DOUBLE_EQ(s3.loop_flops, 300.0);
  EXPECT_DOUBLE_EQ(s3.h2d_bytes, 150.0);
  EXPECT_EQ(s3.kernel_launches, 3);
  EXPECT_EQ(s3.transfers, 3);
}

TEST(KernelStats, ApproxEqual) {
  KernelStats a = gemm_contribution(8, 8, 8);
  KernelStats b = a;
  EXPECT_TRUE(a.approx_equal(b));
  b.gemm_flops *= 1.5;
  EXPECT_FALSE(a.approx_equal(b));
  KernelStats c = a;
  c.kernel_launches += 1;
  EXPECT_FALSE(a.approx_equal(c));
}

TEST(KernelStats, GemmContributionCarriesNoBytes) {
  const KernelStats s = gemm_contribution(16, 16, 16);
  EXPECT_EQ(s.bytes_read, 0.0);
  EXPECT_EQ(s.bytes_written, 0.0);
  EXPECT_GT(s.gemm_flops, 0.0);
}

TEST(KernelStats, NaiveLoopCarriesNoBytes) {
  const KernelStats s = naive_loop_contribution(100, 3.0, 2.0, 1.0);
  EXPECT_EQ(s.total_bytes(), 0.0);
  EXPECT_DOUBLE_EQ(s.naive_flops, 300.0);
}

TEST(KernelStats, TransferContributions) {
  const KernelStats up = h2d_contribution(1000);
  EXPECT_DOUBLE_EQ(up.h2d_bytes, 1000.0);
  EXPECT_EQ(up.transfers, 1);
  const KernelStats down = d2h_contribution(500);
  EXPECT_DOUBLE_EQ(down.d2h_bytes, 500.0);
}

TEST(StatsScope, CollectsWithinScope) {
  KernelStats sink;
  {
    StatsScope scope(sink);
    record(loop_contribution(10, 1.0, 1.0, 1.0));
  }
  record(loop_contribution(99, 1.0, 1.0, 1.0));  // outside: dropped
  EXPECT_DOUBLE_EQ(sink.loop_flops, 10.0);
}

TEST(StatsScope, Nests) {
  KernelStats outer, inner;
  StatsScope a(outer);
  record(loop_contribution(5, 1.0, 0.0, 0.0));
  {
    StatsScope b(inner);
    record(loop_contribution(7, 1.0, 0.0, 0.0));
  }
  record(loop_contribution(11, 1.0, 0.0, 0.0));
  EXPECT_DOUBLE_EQ(inner.loop_flops, 7.0);
  EXPECT_DOUBLE_EQ(outer.loop_flops, 16.0);
}

TEST(StatsScope, CurrentStatsReflectsScope) {
  EXPECT_EQ(current_stats(), nullptr);
  KernelStats sink;
  StatsScope scope(sink);
  EXPECT_EQ(current_stats(), &sink);
}

TEST(DryRun, ScopesNestAndRestore) {
  EXPECT_FALSE(dry_run());
  {
    DryRun dry;
    EXPECT_TRUE(dry_run());
    {
      DryRun wet(false);
      EXPECT_FALSE(dry_run());
    }
    EXPECT_TRUE(dry_run());
  }
  EXPECT_FALSE(dry_run());
}

// --- MachineSpec ---

TEST(MachineSpec, Phi5110pShape) {
  const MachineSpec m = xeon_phi_5110p();
  EXPECT_EQ(m.cores, 60);
  EXPECT_EQ(m.max_threads(), 240);
  EXPECT_NEAR(m.vector_peak_gflops(), 60 * 1.053 * 16 * 2, 1e-6);
  EXPECT_DOUBLE_EQ(m.device_mem_gb, 8.0);
  EXPECT_EQ(m.chunk_load_gb_s, 0.0);  // raw PCIe by default
  EXPECT_GT(xeon_phi_5110p_paper_loading().chunk_load_gb_s, 0.0);
}

TEST(MachineSpec, PhiRestrictedCores) {
  const MachineSpec m = xeon_phi_5110p(30);
  EXPECT_EQ(m.cores, 30);
  EXPECT_EQ(m.max_threads(), 120);
  EXPECT_THROW(xeon_phi_5110p(0), util::Error);
  EXPECT_THROW(xeon_phi_5110p(61), util::Error);
}

TEST(MachineSpec, VectorPeakScalesWithThreads) {
  const MachineSpec m = xeon_phi_5110p();
  // 4 threads fill one core's VPU; 240 fill the chip.
  EXPECT_LT(m.vector_peak_gflops(4), m.vector_peak_gflops(240));
  EXPECT_DOUBLE_EQ(m.vector_peak_gflops(240), m.vector_peak_gflops());
  EXPECT_DOUBLE_EQ(m.vector_peak_gflops(999), m.vector_peak_gflops());
}

TEST(MachineSpec, ParallelEfficiencyDecreases) {
  const MachineSpec m = xeon_phi_5110p();
  EXPECT_DOUBLE_EQ(m.parallel_efficiency(1), 1.0);
  EXPECT_GT(m.parallel_efficiency(60), m.parallel_efficiency(240));
}

TEST(MachineSpec, HostSpecsHaveNoLink) {
  EXPECT_EQ(xeon_e5620().pcie_gb_s, 0.0);
  EXPECT_EQ(xeon_e5620_single_core().max_threads(), 1);
}

TEST(MachineSpec, MatlabHasSoftwareOverhead) {
  const MachineSpec m = matlab_host();
  EXPECT_GT(m.software_overhead, 1.0);
  EXPECT_GT(m.dispatch_us, 0.0);
}

TEST(MachineSpec, ToStringMentionsName) {
  EXPECT_NE(xeon_phi_5110p().to_string().find("phi"), std::string::npos);
}

// --- CostModel ---

TEST(CostModel, MoreThreadsNeverSlowerForGemm) {
  const CostModel m(xeon_phi_5110p());
  const KernelStats work = gemm_contribution(1000, 1000, 1000);
  double prev = m.evaluate(work, 1).gemm_s;
  for (int t : {4, 16, 60, 120, 240}) {
    const double cur = m.evaluate(work, t).gemm_s;
    EXPECT_LE(cur, prev * 1.0001) << "threads=" << t;
    prev = cur;
  }
}

TEST(CostModel, GemmRateBelowPeak) {
  const CostModel m(xeon_phi_5110p());
  EXPECT_LT(m.gemm_rate_gflops(240), m.machine().vector_peak_gflops());
  EXPECT_GT(m.gemm_rate_gflops(240), 0.0);
}

TEST(CostModel, NaiveClassMuchSlowerThanGemmClass) {
  const CostModel m(xeon_phi_5110p());
  EXPECT_GT(m.gemm_rate_gflops(240), 10.0 * m.naive_rate_gflops(240) / 240);
  // Same flops cost far more on the naive path at equal threads.
  KernelStats gemm_work = gemm_contribution(500, 500, 500);
  KernelStats naive_work = naive_gemm_contribution(500, 500, 500);
  EXPECT_GT(m.evaluate(naive_work, 240).naive_s,
            m.evaluate(gemm_work, 240).gemm_s);
}

TEST(CostModel, MemoryRooflineBindsLowIntensityLoops) {
  const CostModel m(xeon_phi_5110p());
  // 1 flop per 8 bytes: far below the machine balance, so time should be the
  // bandwidth time, not the flop time.
  KernelStats work = loop_contribution(1 << 20, 1.0, 1.0, 1.0);
  const CostBreakdown b = m.evaluate(work, 240);
  const double bw_time = work.total_bytes() / (m.achieved_mem_gb_s() * 1e9);
  EXPECT_NEAR(b.loop_s, bw_time, bw_time * 1e-9);
}

TEST(CostModel, SyncCostGrowsWithThreads) {
  const CostModel m(xeon_phi_5110p());
  KernelStats work;
  work.kernel_launches = 1000;
  EXPECT_GT(m.sync_time_s(work, 240), m.sync_time_s(work, 60));
}

TEST(CostModel, SyncCostScalesWithLaunches) {
  const CostModel m(xeon_phi_5110p());
  KernelStats one, many;
  one.kernel_launches = 1;
  many.kernel_launches = 100;
  EXPECT_NEAR(m.sync_time_s(many, 240), 100 * m.sync_time_s(one, 240), 1e-12);
}

TEST(CostModel, TransferUsesChunkPathWhenSet) {
  const CostModel m(xeon_phi_5110p_paper_loading());
  const KernelStats s = h2d_contribution(0.0126 * 1e9);  // 1 second of data
  EXPECT_NEAR(m.transfer_time_s(s), 1.0, 0.01);
  // The default preset moves the same data at raw PCIe speed.
  const CostModel fast(xeon_phi_5110p());
  EXPECT_LT(fast.transfer_time_s(s), 0.01);
}

TEST(CostModel, HostHasZeroTransferTime) {
  const CostModel m(xeon_e5620());
  EXPECT_DOUBLE_EQ(m.transfer_time_s(h2d_contribution(1e9)), 0.0);
}

TEST(CostModel, PaperTransferCalibration) {
  // The paper: 10,000×4096 samples cost 13 s to load.
  const CostModel m(xeon_phi_5110p_paper_loading());
  const double bytes = 10000.0 * 4096.0 * 4.0;
  EXPECT_NEAR(m.transfer_time_s(h2d_contribution(bytes)), 13.0, 0.7);
}

TEST(CostModel, SoftwareOverheadInflatesMatlabLoops) {
  const CostModel native(xeon_e5620());
  const CostModel matlab(matlab_host());
  KernelStats work = loop_contribution(1 << 20, 8.0, 1.0, 1.0);
  EXPECT_GT(matlab.evaluate(work, 8).loop_s, native.evaluate(work, 8).loop_s);
}

TEST(CostModel, BreakdownToStringMentionsFields) {
  CostBreakdown b;
  b.gemm_s = 1;
  EXPECT_NE(b.to_string().find("gemm"), std::string::npos);
}

TEST(CostModel, RejectsZeroThreads) {
  const CostModel m(xeon_phi_5110p());
  EXPECT_THROW(m.evaluate(KernelStats{}, 0), util::Error);
}

TEST(CostBreakdown, OverlappedIsMaxSerializedIsSum) {
  CostBreakdown b;
  b.gemm_s = 3;
  b.transfer_s = 2;
  EXPECT_DOUBLE_EQ(b.total_serialized_s(), 5.0);
  EXPECT_DOUBLE_EQ(b.total_overlapped_s(), 3.0);
}

// --- Device ---

TEST(Device, ThreadsDefaultToMax) {
  Device d(xeon_phi_5110p());
  EXPECT_EQ(d.threads(), 240);
  d.set_threads(60);
  EXPECT_EQ(d.threads(), 60);
  EXPECT_THROW(d.set_threads(0), util::Error);
  EXPECT_THROW(d.set_threads(241), util::Error);
}

TEST(Device, MemoryArenaAccounting) {
  Device d(xeon_phi_5110p());
  const auto id = d.alloc("weights", 1e9);
  EXPECT_DOUBLE_EQ(d.used_bytes(), 1e9);
  d.free(id);
  EXPECT_DOUBLE_EQ(d.used_bytes(), 0.0);
}

TEST(Device, OutOfMemoryThrows) {
  Device d(xeon_phi_5110p());  // 8 GB card
  d.alloc("big", 7e9);
  EXPECT_THROW(d.alloc("more", 2e9), util::Error);
}

TEST(Device, DoubleFreeThrows) {
  Device d(xeon_phi_5110p());
  const auto id = d.alloc("x", 100);
  d.free(id);
  EXPECT_THROW(d.free(id), util::Error);
}

TEST(Device, PaperScaleNetworkFitsBut8GbBinds) {
  // Fig. 7's largest network: 4096×16384 weights ≈ 268 MB per weight matrix;
  // model + temporaries fit. But a 2 B-example chunk would not.
  Device d(xeon_phi_5110p());
  EXPECT_NO_THROW(d.alloc("w1", 4096.0 * 16384 * 4));
  EXPECT_THROW(d.alloc("absurd-chunk", 9e9), util::Error);
}

TEST(Device, ComputeTimelineAdvances) {
  Device d(xeon_phi_5110p());
  const KernelStats work = gemm_contribution(512, 512, 512);
  const double t1 = d.submit_compute("k1", work);
  const double t2 = d.submit_compute("k2", work);
  EXPECT_GT(t1, 0.0);
  EXPECT_NEAR(t2, 2 * t1, t1 * 1e-9);
  EXPECT_DOUBLE_EQ(d.compute_busy_until(), t2);
}

TEST(Device, TransferTimelineIndependentOfCompute) {
  Device d(xeon_phi_5110p());
  d.submit_compute("k", gemm_contribution(512, 512, 512));
  const double t = d.submit_transfer("x", 1e6);
  // The transfer starts at 0 on its own resource.
  EXPECT_LT(t, d.compute_busy_until() + 1.0);
  EXPECT_GT(d.dma_busy_until(), 0.0);
}

TEST(Device, ReadyAtDelaysStart) {
  Device d(xeon_phi_5110p());
  const KernelStats work = gemm_contribution(256, 256, 256);
  const double end = d.submit_compute("k", work, /*ready_at_s=*/5.0);
  EXPECT_GT(end, 5.0);
}

TEST(Device, ResetTimelinePreservesMemory) {
  Device d(xeon_phi_5110p());
  d.alloc("w", 1000);
  d.submit_compute("k", gemm_contribution(64, 64, 64));
  d.reset_timeline();
  EXPECT_DOUBLE_EQ(d.elapsed_s(), 0.0);
  EXPECT_DOUBLE_EQ(d.used_bytes(), 1000.0);
  EXPECT_TRUE(d.trace().events().empty());
}

// --- Offload ---

KernelStats chunk_compute_work() {
  // A compute load chosen to be several times the transfer time of a chunk
  // (the calibrated chunk-loading path is slow — 0.0126 GB/s — so this needs
  // to be tens of seconds of simulated GEMM).
  return gemm_contribution(1000, 4096, 1024).scaled(1000.0);
}

TEST(Offload, AsyncOverlapsTransfers) {
  Device d(xeon_phi_5110p());
  Offload off(d, OffloadConfig{true, 4});
  const double chunk_bytes = 10000.0 * 1024 * 4;
  const auto report = off.process_chunks(8, chunk_bytes, chunk_compute_work());
  // After the first fill, transfers hide under compute: total ≈ fill + compute.
  const double per_transfer = report.chunks[0].transfer_end_s;
  EXPECT_LT(report.total_s, report.compute_busy_s + 2.5 * per_transfer);
  // Chunk 1's transfer starts before chunk 0's compute ends (true overlap).
  EXPECT_LT(report.chunks[1].transfer_start_s, report.chunks[0].compute_end_s);
}

TEST(Offload, SyncSerializesTransfers) {
  Device d(xeon_phi_5110p());
  Offload off(d, OffloadConfig{false, 4});
  const double chunk_bytes = 10000.0 * 1024 * 4;
  const auto report = off.process_chunks(8, chunk_bytes, chunk_compute_work());
  EXPECT_NEAR(report.total_s, report.compute_busy_s + report.transfer_busy_s,
              report.total_s * 1e-6);
  // No overlap: chunk 1's transfer starts only after chunk 0 finishes.
  EXPECT_GE(report.chunks[1].transfer_start_s, report.chunks[0].compute_end_s);
}

TEST(Offload, AsyncBeatsSync) {
  const double chunk_bytes = 10000.0 * 1024 * 4;
  Device d1(xeon_phi_5110p());
  const double async_total =
      Offload(d1, {true, 4}).process_chunks(10, chunk_bytes, chunk_compute_work())
          .total_s;
  Device d2(xeon_phi_5110p());
  const double sync_total =
      Offload(d2, {false, 4}).process_chunks(10, chunk_bytes, chunk_compute_work())
          .total_s;
  EXPECT_LT(async_total, sync_total);
}

TEST(Offload, Paper17PercentShareReproduces) {
  // §IV.A: 13 s transfer vs 68 s training per chunk → ≈17% of serialized
  // total; the loading thread removes nearly all of it.
  Device d(xeon_phi_5110p_paper_loading());
  const double chunk_bytes = 10000.0 * 4096 * 4;  // the paper's 13 s chunk
  // Build a compute load of ≈68 s at 240 threads.
  const CostModel& m = d.cost_model();
  KernelStats unit = gemm_contribution(1000, 4096, 1024);
  const double unit_s = m.evaluate(unit, 240).compute_s();
  const KernelStats per_chunk = unit.scaled(68.0 / unit_s);

  Device d_sync(xeon_phi_5110p_paper_loading());
  const auto sync_report =
      Offload(d_sync, {false, 4}).process_chunks(20, chunk_bytes, per_chunk);
  EXPECT_NEAR(sync_report.exposed_transfer_fraction(), 0.16, 0.03);

  Device d_async(xeon_phi_5110p_paper_loading());
  const auto async_report =
      Offload(d_async, {true, 4}).process_chunks(20, chunk_bytes, per_chunk);
  EXPECT_LT(async_report.exposed_transfer_fraction(), 0.02);
}

TEST(Offload, RingDepthOneStillCorrectButSlower) {
  const double chunk_bytes = 1e8;  // transfer-heavy
  const KernelStats small_work = gemm_contribution(100, 100, 100);
  Device d1(xeon_phi_5110p_paper_loading());
  const double deep =
      Offload(d1, {true, 4}).process_chunks(10, chunk_bytes, small_work).total_s;
  Device d2(xeon_phi_5110p_paper_loading());
  const double shallow =
      Offload(d2, {true, 1}).process_chunks(10, chunk_bytes, small_work).total_s;
  EXPECT_LE(deep, shallow + 1e-9);
}

TEST(Offload, ZeroChunks) {
  Device d(xeon_phi_5110p());
  Offload off(d, OffloadConfig{true, 2});
  const auto report = off.process_chunks(0, 100, KernelStats{});
  EXPECT_EQ(report.chunks.size(), 0u);
  EXPECT_DOUBLE_EQ(report.total_s, 0.0);
}

// --- GEMM size buckets ---

TEST(GemmBuckets, BoundaryAssignment) {
  EXPECT_EQ(gemm_bucket(1), 0);
  EXPECT_EQ(gemm_bucket(63), 0);
  EXPECT_EQ(gemm_bucket(64), 1);
  EXPECT_EQ(gemm_bucket(255), 1);
  EXPECT_EQ(gemm_bucket(256), 2);
  EXPECT_EQ(gemm_bucket(1023), 2);
  EXPECT_EQ(gemm_bucket(1024), 3);
  EXPECT_EQ(gemm_bucket(1 << 20), 3);
}

TEST(GemmBuckets, ContributionLandsInMinDimBucket) {
  const KernelStats s = gemm_contribution(10000, 4096, 200);
  EXPECT_DOUBLE_EQ(s.gemm_flops_bucket[1], s.gemm_flops);  // min dim 200
  EXPECT_DOUBLE_EQ(s.gemm_flops_bucket[0] + s.gemm_flops_bucket[2] +
                       s.gemm_flops_bucket[3],
                   0.0);
}

TEST(GemmBuckets, BucketsSumToTotalAfterAccumulation) {
  KernelStats s = gemm_contribution(10, 2000, 500);
  s += gemm_contribution(2000, 2000, 2000);
  s += gemm_contribution(100, 100, 100);
  double bucket_sum = 0;
  for (int b = 0; b < kGemmBuckets; ++b) bucket_sum += s.gemm_flops_bucket[b];
  EXPECT_NEAR(bucket_sum, s.gemm_flops, 1e-6);
}

TEST(GemmBuckets, SmallGemmCostsMorePerFlopOnPhi) {
  const CostModel m(xeon_phi_5110p());
  // Per-flop cost at min-dim 100 (bucket 1) vs min-dim 1024 (bucket 3).
  const KernelStats small = gemm_contribution(100, 4096, 1024);
  const KernelStats large = gemm_contribution(2048, 4096, 1024);
  const double t_small = m.evaluate(small, 240).gemm_s / small.gemm_flops;
  const double t_large = m.evaluate(large, 240).gemm_s / large.gemm_flops;
  EXPECT_GT(t_small, 1.5 * t_large);
}

TEST(GemmBuckets, HandBuiltStatsWithoutBucketsStillCosted) {
  const CostModel m(xeon_phi_5110p());
  KernelStats s;
  s.gemm_flops = 1e12;  // no bucket detail
  const double t = m.evaluate(s, 240).gemm_s;
  EXPECT_GT(t, 0.0);
  EXPECT_NEAR(t, 1e12 / (m.gemm_rate_gflops(240) * 1e9), 1e-9);
}

TEST(OffloadReport, ExposedFractionBounded) {
  Device d(xeon_phi_5110p_paper_loading());
  Offload off(d, OffloadConfig{false, 2});
  const auto report =
      off.process_chunks(5, 1e8, gemm_contribution(500, 500, 500));
  EXPECT_GE(report.exposed_transfer_fraction(), 0.0);
  EXPECT_LE(report.exposed_transfer_fraction(), 1.0);
}

// --- Trace ---

TEST(Trace, BusyAndSpan) {
  Trace t;
  t.add({"a", TraceEvent::Resource::kCompute, 0, 2});
  t.add({"b", TraceEvent::Resource::kCompute, 2, 3});
  t.add({"x", TraceEvent::Resource::kDma, 1, 2.5});
  EXPECT_DOUBLE_EQ(t.span_s(), 3.0);
  EXPECT_DOUBLE_EQ(t.busy_s(TraceEvent::Resource::kCompute), 3.0);
  EXPECT_DOUBLE_EQ(t.busy_s(TraceEvent::Resource::kDma), 1.5);
  EXPECT_DOUBLE_EQ(t.overlap_s(), 1.5);
}

TEST(Trace, RejectsNegativeDuration) {
  Trace t;
  EXPECT_THROW(t.add({"bad", TraceEvent::Resource::kCompute, 2, 1}), util::Error);
}

TEST(Trace, ToStringListsEvents) {
  Trace t;
  t.add({"kernel-x", TraceEvent::Resource::kCompute, 0, 1});
  EXPECT_NE(t.to_string().find("kernel-x"), std::string::npos);
}

}  // namespace
}  // namespace deepphi::phi

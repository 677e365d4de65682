// Analytic cost model: KernelStats × (MachineSpec, threads) → simulated
// seconds. This is the substitution for running on real Xeon Phi silicon
// (discontinued hardware): the terms are exactly those the paper's analysis
// turns on — per-class achievable flop rates, a memory-bandwidth roofline on
// the elementwise kernels, fork/join + barrier synchronization scaling with
// the thread count, and the host↔device transfer path.
#pragma once

#include <string>

#include "phi/kernel_stats.hpp"
#include "phi/machine_spec.hpp"

namespace deepphi::phi {

/// Per-class simulated time for one stats bundle, in seconds.
struct CostBreakdown {
  double gemm_s = 0;      // optimized-GEMM class
  double loop_s = 0;      // vectorizable elementwise/reduction class
  double naive_s = 0;     // scalar/naive class
  double sync_s = 0;      // fork/join + barriers + dispatch
  double transfer_s = 0;  // host↔device traffic

  double compute_s() const { return gemm_s + loop_s + naive_s + sync_s; }
  /// Transfers fully serialized with compute (no loading thread).
  double total_serialized_s() const { return compute_s() + transfer_s; }
  /// Idealized full overlap (loading thread + deep enough ring buffer);
  /// stepping phi::ChunkRing on a card's timeline gives the exact value.
  double total_overlapped_s() const {
    return compute_s() > transfer_s ? compute_s() : transfer_s;
  }

  std::string to_string() const;
};

class CostModel {
 public:
  explicit CostModel(MachineSpec spec);

  const MachineSpec& machine() const { return spec_; }

  /// Simulated time of `stats` executed with `threads` threads.
  CostBreakdown evaluate(const KernelStats& stats, int threads) const;

  // --- class rates (exposed for tests and reports) ---

  /// Achieved GEMM GFLOP/s at `threads` threads.
  double gemm_rate_gflops(int threads) const;
  /// Achieved elementwise-loop GFLOP/s at `threads` threads (before the
  /// memory roofline, which is applied on bytes in evaluate()).
  double loop_rate_gflops(int threads) const;
  /// Achieved scalar/naive GFLOP/s at `threads` threads.
  double naive_rate_gflops(int threads) const;
  /// Achieved DRAM bandwidth in GB/s.
  double achieved_mem_gb_s() const;

  /// Synchronization time of `stats` at `threads` threads, seconds.
  double sync_time_s(const KernelStats& stats, int threads) const;

  /// Host↔device transfer time, seconds. Uses the calibrated chunk-loading
  /// path when the machine has one, else raw PCIe; returns 0 for host
  /// machines (no link).
  double transfer_time_s(const KernelStats& stats) const;

 private:
  MachineSpec spec_;
};

}  // namespace deepphi::phi

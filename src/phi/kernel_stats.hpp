// KernelStats is the contract between the compute library and the Xeon Phi
// cost model: every kernel records *what work it did* (categorized flops,
// bytes, launches, barriers, transfers); the cost model later converts a
// stats bundle into simulated seconds for a given machine/thread
// configuration.
//
// Recording is scope-based: a StatsScope installs a thread-local collector;
// kernels call record(...) once per invocation with stat contributions
// computed purely from their shapes. Because a contribution needs only
// shapes, a kernel can record it without computing anything: under a DryRun
// scope every kernel records and returns, and la::Matrix / la::Vector carry
// a shape but no storage. Running the real training code dry ("model mode",
// core::dry_train) therefore yields exactly the stats a real run records,
// at paper scales that could never execute here.
#pragma once

#include <cstdint>
#include <string>

namespace deepphi::phi {

/// Number of GEMM size buckets (by the smallest of m, n, k). Small GEMMs
/// cannot saturate a many-core chip — the effect behind the paper's Fig. 9
/// batch-size sweep — so flops are bucketed and machines apply a per-bucket
/// occupancy factor.
inline constexpr int kGemmBuckets = 4;

/// Bucket of a GEMM whose smallest dimension is `min_dim`:
/// 0: <64, 1: <256, 2: <1024, 3: >=1024.
int gemm_bucket(std::int64_t min_dim);

/// Work accounting for a region of execution. All quantities are additive.
struct KernelStats {
  /// Flops executed inside blocked/packed/SIMD GEMM kernels ("MKL" class).
  double gemm_flops = 0;
  /// The same flops, bucketed by the GEMM's smallest dimension (sums to
  /// gemm_flops).
  double gemm_flops_bucket[kGemmBuckets] = {0, 0, 0, 0};
  /// Flops in vectorizable elementwise / reduction loops (sigmoid, axpy,
  /// sampling, column sums, ...).
  double loop_flops = 0;
  /// Flops on naive scalar paths: triple-loop matrix products and unfused
  /// scalar loops of the baseline implementations.
  double naive_flops = 0;

  /// Memory traffic of the loop-class kernels (the bandwidth-bound ones).
  double bytes_read = 0;
  double bytes_written = 0;

  /// Number of parallel kernels launched (each costs one fork/join on the
  /// simulated machine).
  std::int64_t kernel_launches = 0;
  /// Extra synchronization barriers beyond the implicit end-of-kernel join.
  std::int64_t barriers = 0;
  /// Elementwise epilogues fused into a GEMM's write-back. Their flops are in
  /// loop_flops but they launch no kernel of their own and touch no C memory
  /// beyond the GEMM's — the fusion win the counter makes visible.
  std::int64_t fused_epilogues = 0;

  /// Host→device / device→host transfer traffic (PCIe model).
  double h2d_bytes = 0;
  double d2h_bytes = 0;
  std::int64_t transfers = 0;

  KernelStats& operator+=(const KernelStats& o);
  KernelStats operator+(const KernelStats& o) const;
  /// Scales all additive quantities (used to extrapolate one step → many).
  KernelStats scaled(double factor) const;

  double total_flops() const { return gemm_flops + loop_flops + naive_flops; }
  double total_bytes() const { return bytes_read + bytes_written; }

  /// True when all fields match within a relative tolerance (flops/bytes) and
  /// exactly (counters).
  bool approx_equal(const KernelStats& o, double rtol = 1e-9) const;

  /// Exact equality. Every field is an integer-valued sum below 2^53, so two
  /// runs of the same work compare equal whatever order they recorded in.
  bool operator==(const KernelStats& o) const = default;

  std::string to_string() const;
};

/// Installs `sink` as the current thread's collector for the scope lifetime;
/// restores the previous collector on destruction (scopes nest).
class StatsScope {
 public:
  explicit StatsScope(KernelStats& sink);
  ~StatsScope();
  StatsScope(const StatsScope&) = delete;
  StatsScope& operator=(const StatsScope&) = delete;

 private:
  KernelStats* prev_;
};

/// Adds `contribution` to the current thread's collector; no-op when no
/// StatsScope is active (so production use of the kernels costs one branch).
void record(const KernelStats& contribution);

/// Returns the active collector or nullptr.
KernelStats* current_stats();

/// Runs the current thread dry for the scope lifetime: kernels record their
/// contribution exactly as when they execute, then return without touching
/// data, and la::Matrix / la::Vector allocate no storage. DryRun(false)
/// turns it off; scopes nest and restore the previous mode on destruction.
/// Threads that run kernels on behalf of a dry caller (replica workers,
/// task-graph nodes) install the caller's mode themselves.
class DryRun {
 public:
  explicit DryRun(bool dry = true);
  ~DryRun();
  DryRun(const DryRun&) = delete;
  DryRun& operator=(const DryRun&) = delete;

 private:
  bool prev_;
};

/// True while a DryRun scope is active on this thread.
bool dry_run();

// --- Shape-only stat builders used by the kernels. ---

/// C(m×n) += op(A)·op(B) with inner dimension k: 2mnk flops in GEMM class.
KernelStats gemm_contribution(std::int64_t m, std::int64_t n, std::int64_t k);

/// Naive triple-loop product of the same shape: same flops, naive class.
KernelStats naive_gemm_contribution(std::int64_t m, std::int64_t n, std::int64_t k);

/// Elementwise/reduction loop over n elements with `flops_per_elem` flops,
/// reading r and writing w floats per element.
KernelStats loop_contribution(std::int64_t n, double flops_per_elem,
                              double floats_read_per_elem,
                              double floats_written_per_elem);

/// Same shape of work on the naive/scalar path.
KernelStats naive_loop_contribution(std::int64_t n, double flops_per_elem,
                                    double floats_read_per_elem,
                                    double floats_written_per_elem);

/// Elementwise epilogue fused into a GEMM write-back over n elements:
/// loop-class flops, no kernel launch of its own, and no C traffic (the tile
/// is cache-hot) — only `floats_read_per_elem` for streamed side operands
/// (e.g. the activation matrix of a dsigmoid epilogue). Bumps
/// fused_epilogues by one.
KernelStats epilogue_contribution(std::int64_t n, double flops_per_elem,
                                  double floats_read_per_elem);

/// One host→device transfer of `bytes`.
KernelStats h2d_contribution(double bytes);
/// One device→host transfer of `bytes`.
KernelStats d2h_contribution(double bytes);

}  // namespace deepphi::phi

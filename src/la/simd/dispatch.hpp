// Runtime CPU dispatch for the explicit-SIMD kernels (docs/simd.md).
//
// The paper's §IV ladder ends at "512-bit SIMD vectorization"; on the Phi
// that meant IMCI, here it means targeting whatever the host actually has.
// The library is compiled for baseline x86-64, plus two extra translation
// units built with per-file ISA flags (-mavx2 -mfma / -mavx512f). At first
// use the dispatcher CPUID-probes the machine, picks the widest available
// tier, and binds one KernelTable of function pointers that every hot
// kernel (GEMM micro-kernel incl. fused epilogues, sigmoid family, Bernoulli
// sampling compare, axpy/dot) routes through.
//
// Numerical contract — identical results on every tier:
//  * every tier runs the SAME generic kernel body (kernels_body.inl)
//    instantiated over a vector-ops policy (vec_ops.hpp); the scalar policy
//    maps fma/floor onto std::fma/std::floor, which are correctly rounded
//    and therefore bit-identical to the vfmadd/vroundps the vector tiers
//    use, lane by lane;
//  * transcendentals use one shared polynomial (exp_ps) evaluated in the
//    same operation order everywhere — never libm's exp on one tier and a
//    polynomial on another;
//  * fringes are handled with masked loads/stores, not a scalar cleanup
//    loop, so partial tiles see the exact same arithmetic as full ones.
// The cross-tier parity suite (tests/simd_test.cpp) pins all of this
// bitwise, which is what keeps counter-driven Bernoulli sampling (u < mean)
// deterministic across tiers: a 1-ulp mean difference could flip a sample.
//
// KernelStats recording stays in the la:: wrappers and is shape-only, so
// accounting — wet or dry (phi::DryRun) — is identical on every tier,
// regardless of what the dispatcher picked.
//
// Override for testing/debugging: DEEPPHI_ISA=scalar|avx2|avx512 forces a
// tier at startup (unavailable tiers fall back to the best runnable one
// with a warning); force_tier() does the same programmatically for tests
// and benches.
#pragma once

#include <cstdint>
#include <string>

namespace deepphi::la::simd {

/// Dispatch tiers, widest last. kAvx2 requires AVX2 + FMA; kAvx512 requires
/// AVX-512F, plus BW+VNNI when its table was compiled with the real
/// vpdpbusd int8 kernel (KernelTable::needs_avx512_vnni — the float kernels
/// only need F-level masks and arithmetic).
enum class Tier : std::uint8_t { kScalar = 0, kAvx2 = 1, kAvx512 = 2 };
inline constexpr int kNumTiers = 3;

/// "scalar" / "avx2" / "avx512".
const char* tier_name(Tier t);

/// Parses a DEEPPHI_ISA-style name; returns false on unknown names.
bool parse_tier(const std::string& name, Tier& out);

/// The function-pointer bundle one tier exports. All pointers are always
/// non-null for an available tier.
struct KernelTable {
  Tier tier = Tier::kScalar;

  /// The GEMM register tile of this tier: gemm_mr rows × gemm_nr columns of
  /// C held in vector registers for a whole k-panel (docs/simd.md, "GEMM
  /// register tile"). The blocked GEMM packs A into gemm_mr-row panels and B
  /// into gemm_nr-column panels for this table. gemm_nr is a whole number of
  /// vectors and of 64-byte cache lines.
  std::int64_t gemm_mr = 0;
  std::int64_t gemm_nr = 0;

  /// gemm_mr×gemm_nr GEMM micro-kernel, one instantiation per EpilogueOp
  /// (indexed by static_cast<int>(op)). `ap`/`bp` are the packed,
  /// zero-padded panels (64-byte aligned; see check_panel_alignment); `c`
  /// points at C(r0, c0) with leading dimension `ldc`; `bias` points at
  /// bias[c0] (or null); `act` points at act(r0, c0) with leading dimension
  /// `act_ld` (or null). Writes the mr_eff×nr_eff clip of the tile, applying
  /// beta on the first k-panel and the fused epilogue on the last.
  using GemmMicroFn = void (*)(const float* ap, const float* bp,
                               std::int64_t kc, float alpha, float beta,
                               bool first_k, bool last_k, const float* bias,
                               const float* act, std::int64_t act_ld, float* c,
                               std::int64_t ldc, std::int64_t mr_eff,
                               std::int64_t nr_eff);
  GemmMicroFn gemm_micro[5] = {nullptr, nullptr, nullptr, nullptr, nullptr};

  /// p[i] = sigmoid(p[i]).
  void (*sigmoid)(float* p, std::int64_t n) = nullptr;
  /// row[j] = sigmoid(row[j] + bias[j]).
  void (*bias_sigmoid)(float* row, const float* bias, std::int64_t n) = nullptr;
  /// mean = sigmoid(row + bias); row = mean; sample[j] = u[j] < mean ? 1 : 0.
  /// `u` holds pre-drawn uniforms (the RNG stream stays scalar and
  /// tier-independent; only the sigmoid + compare are vectorized).
  void (*bias_sigmoid_sample)(float* row, const float* bias, float* sample,
                              const float* u, std::int64_t n) = nullptr;
  /// out[j] = u[j] < mean[j] ? 1 : 0.
  void (*bernoulli_compare)(const float* mean, const float* u, float* out,
                            std::int64_t n) = nullptr;
  /// d[i] *= y[i] * (1 - y[i]).
  void (*dsigmoid_mul)(float* d, const float* y, std::int64_t n) = nullptr;
  /// y[i] = fma(alpha, x[i], y[i]).
  void (*axpy)(float alpha, const float* x, float* y, std::int64_t n) = nullptr;
  /// Double-precision dot with the fixed 8-lane reduction: element i goes to
  /// lane i % 8 (float→double conversion and the float×float product are
  /// exact, so lane sums are bit-identical on every tier), then one fixed
  /// pairwise tree. Same result for W=1/8/16 hardware.
  double (*dot8)(const float* x, const float* y, std::int64_t n) = nullptr;

  /// Groupwise int8 dot (the quantized-inference kernel, docs/simd.md).
  /// `xq` holds u8 activation codes in [0,127], `wq` s8 weight codes in
  /// [-127,127]; both are `groups * group` bytes, zero-padded. Per group g it
  /// accumulates acc_g = sum_j xq[j]*wq[j] exactly in int32 (group <= 65536
  /// keeps that safe), corrects the activation zero point with the
  /// precomputed code sums (`wsum[g] = sum_j wq[j]`) in int64, and combines
  /// r = fma(scales[g], float(acc_g - zp*wsum[g]), r) in ascending group
  /// order with scalar std::fma. Integer accumulation is exact on every tier
  /// and the float combine is a fixed scalar sequence, so the result is
  /// bitwise identical across tiers by construction.
  float (*quant_dot)(const std::uint8_t* xq, const std::int8_t* wq,
                     const float* scales, const std::int32_t* wsum,
                     std::int64_t groups, std::int64_t group,
                     std::int32_t zp) = nullptr;

  /// True when this table was compiled with AVX-512BW+VNNI instructions
  /// (real vpdpbusd in quant_dot). tier_available() then additionally
  /// requires those CPUID bits, so an F-only machine never binds it.
  bool needs_avx512_vnni = false;
};

/// True when `t` can run on this CPU (compiled in AND CPUID-supported).
bool tier_available(Tier t);

/// Widest available tier on this machine.
Tier best_available_tier();

/// The bound kernel table. First call resolves: CPUID detection, then the
/// DEEPPHI_ISA override if set. Subsequent calls return the cached binding.
const KernelTable& active();

/// Tier of the bound table.
Tier active_tier();

/// Rebinds the dispatch to `t` (tests/benches). Returns false and leaves the
/// binding unchanged when the tier cannot run on this CPU.
bool force_tier(Tier t);

/// Restores the startup binding (detection + DEEPPHI_ISA).
void reset_tier();

/// Throws util::Error unless both packed panels are 64-byte aligned — the
/// contract the aligned vector loads in the micro-kernels rely on. Cheap
/// (two pointer tests); the blocked GEMM calls it once per worker per call
/// in every build, and additionally per micro-tile in debug builds.
void check_panel_alignment(const void* a_panel, const void* b_panel);

// Implementation detail: per-ISA translation units export their table (or
// nullptr when the TU was compiled without the ISA's feature macros, i.e. on
// a non-x86 host compiler). Only dispatch.cpp should call these.
const KernelTable* scalar_table();
const KernelTable* avx2_table();
const KernelTable* avx512_table();

}  // namespace deepphi::la::simd

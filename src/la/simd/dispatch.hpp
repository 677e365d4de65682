// Runtime CPU dispatch for the explicit-SIMD kernels (docs/simd.md).
//
// The paper's §IV ladder ends at "512-bit SIMD vectorization"; on the Phi
// that meant IMCI, here it means targeting whatever the host actually has.
// The library is compiled for baseline x86-64, plus two extra translation
// units built with per-file ISA flags (-mavx2 -mfma / -mavx512f). At first
// use the dispatcher CPUID-probes the machine, picks the widest available
// tier, and binds one KernelTable of function pointers that every hot
// kernel (GEMM micro-kernel incl. fused epilogues, the along-k GEMM packer,
// sigmoid family, Bernoulli sampling compare, column sums, axpy/dot, the
// squared-difference sum, the u8 decode, the int8 micro-kernel and
// activation quantizer) routes through.
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

/// Geometry of the int8 weight panel plane (la/quant.hpp), shared by the
/// packer and the int8 micro-kernel: a panel interleaves kQuantPanelUnits
/// units per 4-byte k-step (the B operand of one 512-bit vpdpbusd), and a
/// micro-tile covers kQuantTileUnits units, two adjacent panels.
inline constexpr std::int64_t kQuantPanelUnits = 16;
inline constexpr std::int64_t kQuantTileUnits = 32;
/// Largest activation code the quantize_row kernel produces.
inline constexpr int kQuantMaxActivationCode = 127;

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
  /// Σ (a[i] − b[i])² in double with the same fixed 8-lane reduction:
  /// d = a[i] − b[i] and d·d are rounded in double, d·d goes to lane i % 8,
  /// then dot8's pairwise tree. Same bits on every tier.
  double (*sq_diff8)(const float* a, const float* b, std::int64_t n) = nullptr;

  /// out[c] = Σ_r m(r, c) over a rows × cols block with leading dimension
  /// `ld`: each column summed in double from +0 in row order, then rounded
  /// to float — the same bits on every tier and for any column split.
  void (*col_sum)(const float* m, std::int64_t ld, std::int64_t rows,
                  std::int64_t cols, float* out) = nullptr;
  /// Packs `width` source rows of `kc` floats (leading dimension `ld`) into
  /// w-wide k-major GEMM panels: source (j, kk) lands at
  /// buf[(j / w)·w·kc + kk·w + j % w], zero-padded to a whole panel
  /// (la/gemm.cpp, "Packing"). Register transposes on the vector tiers.
  void (*pack_along_k)(const float* src, std::int64_t ld, std::int64_t kc,
                       std::int64_t width, std::int64_t w,
                       float* buf) = nullptr;
  /// dst[i] = float(src[i]) / 255 — the u8 shard and IDX decode rule.
  void (*decode_u8)(const std::uint8_t* src, float* dst,
                    std::int64_t n) = nullptr;

  /// Rows of activations the int8 micro-kernel holds in registers.
  std::int64_t quant_mr = 0;

  /// The int8 forward pass over one quant_mr × kQuantTileUnits tile
  /// (docs/simd.md, "Int8 kernel tier"). `x` points at the tile's first
  /// activation row of u8 codes in [0, 127] (leading dimension `ldx`, rows
  /// zero-padded to groups·group bytes), `a_scale`/`zp` at its rows' scales
  /// and zero points; `panels`, `scales` and `wsums` at the tile's first
  /// weight panel of the plane QuantizedWeights packs. Each output is
  ///   a_scale · Σ_g fma(scale_g, float(acc_g − zp·wsum_g), ·)
  /// with acc_g the exact int32 group dot and the groups combined in
  /// ascending order from +0, so every tier returns the same bits. Writes
  /// the mr_eff × nu_eff clip of the tile to `out` (leading dimension ldo).
  using QuantMicroFn = void (*)(const std::uint8_t* x, std::int64_t ldx,
                                const float* a_scale, const std::int32_t* zp,
                                const std::int8_t* panels, const float* scales,
                                const std::int32_t* wsums, std::int64_t groups,
                                std::int64_t group, float* out,
                                std::int64_t ldo, std::int64_t mr_eff,
                                std::int64_t nu_eff);
  QuantMicroFn quant_micro = nullptr;

  /// Quantizes one activation row of `cols` floats (la/quant.hpp): range
  /// [lo, hi] anchored at 0, scale = (hi − lo)/127 (1 for an all-zero row),
  /// zp = clamp(lround(−lo/scale), 0, 127), and codes clamp(lround(x/scale)
  /// + zp, 0, 127) with lround's round-half-away rounding, then zero bytes
  /// up to `padded`. The vector divide is correctly rounded like the scalar
  /// one, so every tier produces the same codes.
  void (*quantize_row)(const float* x, std::int64_t cols, std::int64_t padded,
                       std::uint8_t* codes, float* scale,
                       std::int32_t* zp) = nullptr;

  /// True when this table was compiled with AVX-512BW+VNNI instructions
  /// (real vpdpbusd in quant_micro). tier_available() then additionally
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

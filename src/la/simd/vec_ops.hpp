// Vector-ops policies the generic kernel bodies (kernels_body.inl) are
// instantiated over, plus the shared transcendental polynomials.
//
// One policy per tier: ScalarOps is always available; Avx2Ops / Avx512Ops
// only exist in translation units compiled with the matching -m flags (the
// per-file ISA options set in src/CMakeLists.txt), guarded by the
// compiler-defined feature macros.
//
// The parity contract lives here: every op is a single correctly-rounded
// IEEE operation on all tiers — fma maps to std::fma (correctly rounded by
// the C standard) or vfmadd, floor to std::floor or the round-to-neg-inf
// intrinsic, division to real division (never rcp+refine). Given the same
// operation sequence, lanes therefore compute bit-identical floats on every
// tier. Do not add an op whose scalar and vector forms can round
// differently.
//
// Each policy also carries an int8 sub-policy for the quantized inference
// kernels (la/quant.hpp): VI is a vector of WI int32 accumulator lanes and
// dpbusd() performs the VNNI-class u8×s8 multiply-accumulate — for each lane
// i, acc[i] += Σ_{j<4} a[4i+j]·b[4i+j] over 4·WI code bytes. Integer
// arithmetic is exact, so any lane count and any reduction order produce the
// same int32 sum; cross-tier parity for the int8 kernels is therefore free
// as long as the float dequantization runs the same scalar sequence
// everywhere (see quant_dot_k in kernels_body.inl).
//
// On AVX2 dpbusd is emulated with the classic madd pair
// (maddubs u8×s8 → s16, madd ×1 → s32). maddubs SATURATES the s16 pair sum;
// the quantizer therefore clamps activation codes to 7 bits ([0, 127], see
// la/quant.hpp), which bounds a pair at 2·127·127 = 32258 < 32767 so the
// emulation is exact. The AVX-512 tier uses the real vpdpbusd when the TU is
// compiled with BW+VNNI (the dispatcher then gates the tier on those CPUID
// bits); an F-only build falls back to the 256-bit emulation.
#pragma once

#include <bit>
#include <cmath>
#include <cstdint>

#if defined(__x86_64__) || defined(__i386__)
#include <immintrin.h>
#endif

namespace deepphi::la::simd {

// ---------------------------------------------------------------------------
// Scalar policy (W = 1). The reference semantics of every kernel.
// ---------------------------------------------------------------------------
struct ScalarOps {
  using V = float;
  using M = bool;
  static constexpr int W = 1;

  static V zero() { return 0.0f; }
  static V set1(float x) { return x; }
  static V load(const float* p) { return *p; }  // aligned
  static V loadu(const float* p) { return *p; }
  static void storeu(float* p, V v) { *p = v; }
  // Partial (masked) accesses cover the first `n` lanes, 0 <= n < W.
  static V loadu_partial(const float* p, int n) { return n > 0 ? *p : 0.0f; }
  static void storeu_partial(float* p, int n, V v) {
    if (n > 0) *p = v;
  }

  static V add(V a, V b) { return a + b; }
  static V sub(V a, V b) { return a - b; }
  static V mul(V a, V b) { return a * b; }
  static V div(V a, V b) { return a / b; }
  // Correctly rounded — bit-identical to the vfmadd the vector tiers use.
  static V fma(V a, V b, V c) { return std::fma(a, b, c); }
  static V neg(V a) { return -a; }
  static V min_(V a, V b) { return a < b ? a : b; }
  static V max_(V a, V b) { return a > b ? a : b; }
  static V floor_(V a) { return std::floor(a); }

  static M lt(V a, V b) { return a < b; }
  static V select(M m, V a, V b) { return m ? a : b; }

  /// 2^n for an integer-valued float n in [-126, 127], via exponent bits.
  static V pow2i(V n) {
    const std::int32_t bits = (static_cast<std::int32_t>(n) + 127) << 23;
    return std::bit_cast<float>(bits);
  }

  // --- int8 sub-policy (reference semantics) ---
  using VI = std::int32_t;
  static constexpr int WI = 1;
  static VI izero() { return 0; }
  static VI dpbusd(VI acc, const std::uint8_t* a, const std::int8_t* b) {
    for (int j = 0; j < 4; ++j)
      acc += static_cast<std::int32_t>(a[j]) * static_cast<std::int32_t>(b[j]);
    return acc;
  }
  static std::int32_t ireduce(VI acc) { return acc; }
};

// ---------------------------------------------------------------------------
// AVX2 + FMA policy (W = 8). Only in TUs compiled with -mavx2 -mfma.
// ---------------------------------------------------------------------------
#if defined(__AVX2__) && defined(__FMA__)
struct Avx2Ops {
  using V = __m256;
  using M = __m256;  // all-ones lanes where true
  static constexpr int W = 8;

  static V zero() { return _mm256_setzero_ps(); }
  static V set1(float x) { return _mm256_set1_ps(x); }
  static V load(const float* p) { return _mm256_load_ps(p); }
  static V loadu(const float* p) { return _mm256_loadu_ps(p); }
  static void storeu(float* p, V v) { _mm256_storeu_ps(p, v); }

  // Lane i is active when i < n: compare the lane index against n.
  static __m256i tail_mask(int n) {
    const __m256i lane = _mm256_setr_epi32(0, 1, 2, 3, 4, 5, 6, 7);
    return _mm256_cmpgt_epi32(_mm256_set1_epi32(n), lane);
  }
  static V loadu_partial(const float* p, int n) {
    return _mm256_maskload_ps(p, tail_mask(n));
  }
  static void storeu_partial(float* p, int n, V v) {
    _mm256_maskstore_ps(p, tail_mask(n), v);
  }

  static V add(V a, V b) { return _mm256_add_ps(a, b); }
  static V sub(V a, V b) { return _mm256_sub_ps(a, b); }
  static V mul(V a, V b) { return _mm256_mul_ps(a, b); }
  static V div(V a, V b) { return _mm256_div_ps(a, b); }
  static V fma(V a, V b, V c) { return _mm256_fmadd_ps(a, b, c); }
  static V neg(V a) { return _mm256_sub_ps(_mm256_setzero_ps(), a); }
  static V min_(V a, V b) { return _mm256_min_ps(b, a); }
  static V max_(V a, V b) { return _mm256_max_ps(b, a); }
  static V floor_(V a) { return _mm256_floor_ps(a); }

  static M lt(V a, V b) { return _mm256_cmp_ps(a, b, _CMP_LT_OQ); }
  static V select(M m, V a, V b) { return _mm256_blendv_ps(b, a, m); }

  static V pow2i(V n) {
    const __m256i i = _mm256_cvttps_epi32(n);
    const __m256i bits =
        _mm256_slli_epi32(_mm256_add_epi32(i, _mm256_set1_epi32(127)), 23);
    return _mm256_castsi256_ps(bits);
  }

  // --- int8 sub-policy: vpdpbusd emulated with the madd pair. Exact for
  // 7-bit activation codes (see the header comment). ---
  using VI = __m256i;
  static constexpr int WI = 8;
  static VI izero() { return _mm256_setzero_si256(); }
  static VI dpbusd(VI acc, const std::uint8_t* a, const std::int8_t* b) {
    const __m256i va =
        _mm256_loadu_si256(reinterpret_cast<const __m256i*>(a));
    const __m256i vb =
        _mm256_loadu_si256(reinterpret_cast<const __m256i*>(b));
    const __m256i pairs = _mm256_maddubs_epi16(va, vb);  // u8×s8 → s16 pairs
    const __m256i quads =
        _mm256_madd_epi16(pairs, _mm256_set1_epi16(1));  // s16 pairs → s32
    return _mm256_add_epi32(acc, quads);
  }
  static std::int32_t ireduce(VI acc) {
    __m128i s = _mm_add_epi32(_mm256_castsi256_si128(acc),
                              _mm256_extracti128_si256(acc, 1));
    s = _mm_add_epi32(s, _mm_shuffle_epi32(s, _MM_SHUFFLE(1, 0, 3, 2)));
    s = _mm_add_epi32(s, _mm_shuffle_epi32(s, _MM_SHUFFLE(2, 3, 0, 1)));
    return _mm_cvtsi128_si32(s);
  }
};
#endif  // __AVX2__ && __FMA__

// ---------------------------------------------------------------------------
// AVX-512F policy (W = 16). Only in TUs compiled with -mavx512f.
// ---------------------------------------------------------------------------
#if defined(__AVX512F__)
struct Avx512Ops {
  using V = __m512;
  using M = __mmask16;
  static constexpr int W = 16;

  static V zero() { return _mm512_setzero_ps(); }
  static V set1(float x) { return _mm512_set1_ps(x); }
  static V load(const float* p) { return _mm512_load_ps(p); }
  static V loadu(const float* p) { return _mm512_loadu_ps(p); }
  static void storeu(float* p, V v) { _mm512_storeu_ps(p, v); }

  static __mmask16 tail_mask(int n) {
    return static_cast<__mmask16>((1u << n) - 1u);
  }
  static V loadu_partial(const float* p, int n) {
    return _mm512_maskz_loadu_ps(tail_mask(n), p);
  }
  static void storeu_partial(float* p, int n, V v) {
    _mm512_mask_storeu_ps(p, tail_mask(n), v);
  }

  static V add(V a, V b) { return _mm512_add_ps(a, b); }
  static V sub(V a, V b) { return _mm512_sub_ps(a, b); }
  static V mul(V a, V b) { return _mm512_mul_ps(a, b); }
  static V div(V a, V b) { return _mm512_div_ps(a, b); }
  static V fma(V a, V b, V c) { return _mm512_fmadd_ps(a, b, c); }
  static V neg(V a) { return _mm512_sub_ps(_mm512_setzero_ps(), a); }
  // The all-ones maskz_* forms below are the same instructions as the plain
  // intrinsics, which GCC 12 implements with an _mm512_undefined_* operand
  // that trips -Wmaybe-uninitialized (so -DDEEPPHI_WERROR=ON would fail).
  static constexpr __mmask16 kAll = 0xFFFF;
  static V min_(V a, V b) { return _mm512_maskz_min_ps(kAll, b, a); }
  static V max_(V a, V b) { return _mm512_maskz_max_ps(kAll, b, a); }
  static V floor_(V a) {
    return _mm512_maskz_roundscale_ps(
        kAll, a, _MM_FROUND_TO_NEG_INF | _MM_FROUND_NO_EXC);
  }

  static M lt(V a, V b) { return _mm512_cmp_ps_mask(a, b, _CMP_LT_OQ); }
  static V select(M m, V a, V b) { return _mm512_mask_blend_ps(m, b, a); }

  static V pow2i(V n) {
    const __m512i i = _mm512_maskz_cvttps_epi32(kAll, n);
    const __m512i bits = _mm512_maskz_slli_epi32(
        kAll, _mm512_add_epi32(i, _mm512_set1_epi32(127)), 23);
    return _mm512_castsi512_ps(bits);
  }

#if defined(__AVX512VNNI__) && defined(__AVX512BW__)
  // --- int8 sub-policy: the real 512-bit vpdpbusd. The dispatcher gates
  // this tier on the BW+VNNI CPUID bits when the TU is built this way
  // (KernelTable::needs_avx512_vnni). ---
  using VI = __m512i;
  static constexpr int WI = 16;
  static VI izero() { return _mm512_setzero_si512(); }
  static VI dpbusd(VI acc, const std::uint8_t* a, const std::int8_t* b) {
    return _mm512_dpbusd_epi32(acc, _mm512_loadu_si512(a),
                               _mm512_loadu_si512(b));
  }
  // Integer sums are exact, so folding halves gives the same result as
  // _mm512_reduce_add_epi32, which GCC 12 flags (see kAll).
  static std::int32_t ireduce(VI acc) {
    const __m256i h =
        _mm256_add_epi32(_mm512_maskz_extracti64x4_epi64(0xF, acc, 0),
                         _mm512_maskz_extracti64x4_epi64(0xF, acc, 1));
    __m128i s = _mm_add_epi32(_mm256_castsi256_si128(h),
                              _mm256_extracti128_si256(h, 1));
    s = _mm_add_epi32(s, _mm_shuffle_epi32(s, _MM_SHUFFLE(1, 0, 3, 2)));
    s = _mm_add_epi32(s, _mm_shuffle_epi32(s, _MM_SHUFFLE(2, 3, 0, 1)));
    return _mm_cvtsi128_si32(s);
  }
#else
  // F-only build: no byte-granularity 512-bit integer ops exist below BW, so
  // this tier runs the 256-bit madd-pair emulation (AVX2 is an architectural
  // prerequisite of AVX-512F, so Avx2Ops exists in this TU).
  using VI = Avx2Ops::VI;
  static constexpr int WI = Avx2Ops::WI;
  static VI izero() { return Avx2Ops::izero(); }
  static VI dpbusd(VI acc, const std::uint8_t* a, const std::int8_t* b) {
    return Avx2Ops::dpbusd(acc, a, b);
  }
  static std::int32_t ireduce(VI acc) { return Avx2Ops::ireduce(acc); }
#endif
};
#endif  // __AVX512F__

// ---------------------------------------------------------------------------
// Shared transcendentals. One algorithm for every tier — the scalar tier
// runs the polynomial too (NOT libm's exp), so lanes agree bitwise.
// ---------------------------------------------------------------------------

/// expf via the classic Cephes range reduction + degree-5 polynomial
/// (~1-2 ulp over the clamped range), evaluated with fma throughout.
template <class O>
inline typename O::V exp_ps(typename O::V x) {
  using V = typename O::V;
  // Clamp keeps 2^n representable; sigmoid saturates well inside this range.
  x = O::min_(x, O::set1(88.3762626647949f));
  x = O::max_(x, O::set1(-87.3365478515625f));
  // n = floor(x * log2(e) + 0.5)
  V fx = O::fma(x, O::set1(1.44269504088896341f), O::set1(0.5f));
  fx = O::floor_(fx);
  // r = x - n * ln(2), Cody–Waite split for precision.
  x = O::fma(fx, O::set1(-0.693359375f), x);
  x = O::fma(fx, O::set1(2.12194440e-4f), x);
  const V z = O::mul(x, x);
  V y = O::set1(1.9875691500e-4f);
  y = O::fma(y, x, O::set1(1.3981999507e-3f));
  y = O::fma(y, x, O::set1(8.3334519073e-3f));
  y = O::fma(y, x, O::set1(4.1665795894e-2f));
  y = O::fma(y, x, O::set1(1.6666665459e-1f));
  y = O::fma(y, x, O::set1(5.0000001201e-1f));
  y = O::fma(y, z, x);
  y = O::add(y, O::set1(1.0f));
  return O::mul(y, O::pow2i(fx));
}

/// sigmoid(x) = 1 / (1 + exp(-x)), real division (never rcp).
template <class O>
inline typename O::V sigmoid_ps(typename O::V x) {
  const typename O::V one = O::set1(1.0f);
  return O::div(one, O::add(one, exp_ps<O>(O::neg(x))));
}

/// The scalar sigmoid every non-dispatched call site shares (loop-form
/// baselines, the degenerate GEMM beta/epilogue pass, online SGD). Same
/// algorithm as the vector tiers, so a value computed here is bit-identical
/// to the corresponding lane of any dispatched kernel.
inline float sigmoid_scalar(float x) { return sigmoid_ps<ScalarOps>(x); }

}  // namespace deepphi::la::simd

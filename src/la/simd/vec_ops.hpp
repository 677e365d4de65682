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
// Three data-movement ops carry no rounding of their own: widen_add adds a
// float vector's lanes, converted exactly to double, into two double
// accumulators (the low and high halves; the scalar policy uses only the
// low one), and narrow rounds them back to float to nearest like
// static_cast<float> does; load_u8 zero-extends bytes to exact floats; and
// transpose (vector policies only: the scalar tier packs element by
// element) turns W rows of W lanes into W columns in registers.
//
// Each policy also names the policy its int8 kernels (la/quant.hpp) run on,
// `Int8`: one whose float vector V and int32 vector VI have the same W
// lanes, so a lane's exact integer group sum converts straight into the
// float combine. Its dpbusd() performs the VNNI-class u8×s8
// multiply-accumulate — for each lane i, acc[i] += Σ_{j<4} a[4i+j]·b[4i+j]
// over 4·W code bytes. Integer arithmetic is exact, so any lane count
// produces the same int32 sums; cross-tier parity for the int8 kernels then
// only needs the float combine to run the same per-lane sequence everywhere
// (see quant_micro in kernels_body.inl).
//
// On AVX2 dpbusd is emulated with the classic madd pair
// (maddubs u8×s8 → s16, madd ×1 → s32). maddubs SATURATES the s16 pair sum;
// the quantizer therefore clamps activation codes to 7 bits ([0, 127], see
// la/quant.hpp), which bounds a pair at 2·127·127 = 32258 < 32767 so the
// emulation is exact. The AVX-512 tier uses the real vpdpbusd when the TU is
// compiled with BW+VNNI (the dispatcher then gates the tier on those CPUID
// bits); an F-only build runs its int8 kernels on the AVX2 policy.
#pragma once

#include <bit>
#include <cmath>
#include <cstdint>
#include <cstring>

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
  static V abs_(V a) { return std::fabs(a); }
  static V min_(V a, V b) { return a < b ? a : b; }
  static V max_(V a, V b) { return a > b ? a : b; }
  static V floor_(V a) { return std::floor(a); }
  static V trunc_(V a) { return std::trunc(a); }

  static M lt(V a, V b) { return a < b; }
  static V select(M m, V a, V b) { return m ? a : b; }

  /// 2^n for an integer-valued float n in [-126, 127], via exponent bits.
  static V pow2i(V n) {
    const std::int32_t bits = (static_cast<std::int32_t>(n) + 127) << 23;
    return std::bit_cast<float>(bits);
  }

  /// Stores the first `n` lanes of v, integer-valued floats in [0, 255], as
  /// bytes.
  static void store_u8(std::uint8_t* p, int n, V v) {
    if (n > 0) *p = static_cast<std::uint8_t>(v);
  }
  /// The first `n` bytes at p as floats; lanes past n read 0.
  static V load_u8(const std::uint8_t* p, int n) {
    return n > 0 ? static_cast<float>(*p) : 0.0f;
  }

  using VD = double;
  static VD dzero() { return 0.0; }
  static void widen_add(V v, VD& lo, VD& /*hi*/) {
    lo += static_cast<double>(v);
  }
  static V narrow(VD lo, VD /*hi*/) { return static_cast<float>(lo); }

  // --- int8 policy (reference semantics): one int32 lane, whose k-step
  // operand is 4 code bytes read as one int32. ---
  using Int8 = ScalarOps;
  using VI = std::int32_t;
  static VI iload(const void* p) {  // aligned
    VI v;
    std::memcpy(&v, p, sizeof v);
    return v;
  }
  static VI iset1(std::int32_t x) { return x; }
  static VI imul(VI a, VI b) { return a * b; }
  static V cvt(VI a) { return static_cast<float>(a); }
  /// acc + Σ_j u8 byte j of a × s8 byte j of b.
  static VI dpbusd(VI acc, VI a, VI b) {
    for (int j = 0; j < 4; ++j) {
      const auto u =
          static_cast<std::uint8_t>(static_cast<std::uint32_t>(a) >> (8 * j));
      const auto s =
          static_cast<std::int8_t>(static_cast<std::uint32_t>(b) >> (8 * j));
      acc += static_cast<std::int32_t>(u) * static_cast<std::int32_t>(s);
    }
    return acc;
  }
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
  static V abs_(V a) { return _mm256_andnot_ps(_mm256_set1_ps(-0.0f), a); }
  static V min_(V a, V b) { return _mm256_min_ps(b, a); }
  static V max_(V a, V b) { return _mm256_max_ps(b, a); }
  static V floor_(V a) { return _mm256_floor_ps(a); }
  static V trunc_(V a) {
    return _mm256_round_ps(a, _MM_FROUND_TO_ZERO | _MM_FROUND_NO_EXC);
  }

  static M lt(V a, V b) { return _mm256_cmp_ps(a, b, _CMP_LT_OQ); }
  static V select(M m, V a, V b) { return _mm256_blendv_ps(b, a, m); }

  static V pow2i(V n) {
    const __m256i i = _mm256_cvttps_epi32(n);
    const __m256i bits =
        _mm256_slli_epi32(_mm256_add_epi32(i, _mm256_set1_epi32(127)), 23);
    return _mm256_castsi256_ps(bits);
  }

  static void store_u8(std::uint8_t* p, int n, V v) {
    const __m256i i32 = _mm256_cvttps_epi32(v);
    const __m128i i16 = _mm_packs_epi32(_mm256_castsi256_si128(i32),
                                        _mm256_extracti128_si256(i32, 1));
    const __m128i u8 = _mm_packus_epi16(i16, i16);  // lanes 0..7 in order
    if (n == W) {
      _mm_storel_epi64(reinterpret_cast<__m128i*>(p), u8);
    } else {
      alignas(16) std::uint8_t bytes[16];
      _mm_store_si128(reinterpret_cast<__m128i*>(bytes), u8);
      std::memcpy(p, bytes, static_cast<std::size_t>(n));
    }
  }
  static V load_u8(const std::uint8_t* p, int n) {
    __m128i bytes;
    if (n == W) {
      bytes = _mm_loadl_epi64(reinterpret_cast<const __m128i*>(p));
    } else {
      alignas(16) std::uint8_t part[16] = {};
      std::memcpy(part, p, static_cast<std::size_t>(n));
      bytes = _mm_load_si128(reinterpret_cast<const __m128i*>(part));
    }
    return _mm256_cvtepi32_ps(_mm256_cvtepu8_epi32(bytes));
  }

  using VD = __m256d;
  static VD dzero() { return _mm256_setzero_pd(); }
  static void widen_add(V v, VD& lo, VD& hi) {
    lo = _mm256_add_pd(lo, _mm256_cvtps_pd(_mm256_castps256_ps128(v)));
    hi = _mm256_add_pd(hi, _mm256_cvtps_pd(_mm256_extractf128_ps(v, 1)));
  }
  static V narrow(VD lo, VD hi) {
    return _mm256_set_m128(_mm256_cvtpd_ps(hi), _mm256_cvtpd_ps(lo));
  }

  /// 8×8 in-register transpose: unpack pairs, shuffle quads, swap halves.
  /// Always inlined: called out of line, the rows go through memory.
  [[gnu::always_inline]] static void transpose(V* r) {
    const V t0 = _mm256_unpacklo_ps(r[0], r[1]);
    const V t1 = _mm256_unpackhi_ps(r[0], r[1]);
    const V t2 = _mm256_unpacklo_ps(r[2], r[3]);
    const V t3 = _mm256_unpackhi_ps(r[2], r[3]);
    const V t4 = _mm256_unpacklo_ps(r[4], r[5]);
    const V t5 = _mm256_unpackhi_ps(r[4], r[5]);
    const V t6 = _mm256_unpacklo_ps(r[6], r[7]);
    const V t7 = _mm256_unpackhi_ps(r[6], r[7]);
    const V u0 = _mm256_shuffle_ps(t0, t2, _MM_SHUFFLE(1, 0, 1, 0));
    const V u1 = _mm256_shuffle_ps(t0, t2, _MM_SHUFFLE(3, 2, 3, 2));
    const V u2 = _mm256_shuffle_ps(t1, t3, _MM_SHUFFLE(1, 0, 1, 0));
    const V u3 = _mm256_shuffle_ps(t1, t3, _MM_SHUFFLE(3, 2, 3, 2));
    const V u4 = _mm256_shuffle_ps(t4, t6, _MM_SHUFFLE(1, 0, 1, 0));
    const V u5 = _mm256_shuffle_ps(t4, t6, _MM_SHUFFLE(3, 2, 3, 2));
    const V u6 = _mm256_shuffle_ps(t5, t7, _MM_SHUFFLE(1, 0, 1, 0));
    const V u7 = _mm256_shuffle_ps(t5, t7, _MM_SHUFFLE(3, 2, 3, 2));
    r[0] = _mm256_permute2f128_ps(u0, u4, 0x20);
    r[1] = _mm256_permute2f128_ps(u1, u5, 0x20);
    r[2] = _mm256_permute2f128_ps(u2, u6, 0x20);
    r[3] = _mm256_permute2f128_ps(u3, u7, 0x20);
    r[4] = _mm256_permute2f128_ps(u0, u4, 0x31);
    r[5] = _mm256_permute2f128_ps(u1, u5, 0x31);
    r[6] = _mm256_permute2f128_ps(u2, u6, 0x31);
    r[7] = _mm256_permute2f128_ps(u3, u7, 0x31);
  }

  // --- int8 policy: vpdpbusd emulated with the madd pair. Exact for 7-bit
  // activation codes (see the header comment). VI is a plain int32 vector
  // rather than __m256i: the intrinsics view __m256i as 64-bit lanes, and
  // those views, carried around the k-loop, cost GCC a register copy of
  // every accumulator per step. ---
  using Int8 = Avx2Ops;
  using VI = std::int32_t __attribute__((vector_size(32)));
  static VI iload(const void* p) {
    return reinterpret_cast<VI>(
        _mm256_load_si256(static_cast<const __m256i*>(p)));
  }
  static VI iset1(std::int32_t x) {
    return reinterpret_cast<VI>(_mm256_set1_epi32(x));
  }
  static VI imul(VI a, VI b) { return a * b; }
  static V cvt(VI a) {
    return _mm256_cvtepi32_ps(reinterpret_cast<__m256i>(a));
  }
  static VI dpbusd(VI acc, VI a, VI b) {
    // u8×s8 → s16 pairs, then s16 pairs → s32.
    const __m256i pairs = _mm256_maddubs_epi16(reinterpret_cast<__m256i>(a),
                                               reinterpret_cast<__m256i>(b));
    return acc + reinterpret_cast<VI>(
                     _mm256_madd_epi16(pairs, _mm256_set1_epi16(1)));
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
  static V abs_(V a) { return _mm512_abs_ps(a); }
  static V min_(V a, V b) { return _mm512_maskz_min_ps(kAll, b, a); }
  static V max_(V a, V b) { return _mm512_maskz_max_ps(kAll, b, a); }
  static V floor_(V a) {
    return _mm512_maskz_roundscale_ps(
        kAll, a, _MM_FROUND_TO_NEG_INF | _MM_FROUND_NO_EXC);
  }
  static V trunc_(V a) {
    return _mm512_maskz_roundscale_ps(kAll, a,
                                      _MM_FROUND_TO_ZERO | _MM_FROUND_NO_EXC);
  }

  static M lt(V a, V b) { return _mm512_cmp_ps_mask(a, b, _CMP_LT_OQ); }
  static V select(M m, V a, V b) { return _mm512_mask_blend_ps(m, b, a); }

  static V pow2i(V n) {
    const __m512i i = _mm512_maskz_cvttps_epi32(kAll, n);
    const __m512i bits = _mm512_maskz_slli_epi32(
        kAll, _mm512_add_epi32(i, _mm512_set1_epi32(127)), 23);
    return _mm512_castsi512_ps(bits);
  }

  static void store_u8(std::uint8_t* p, int n, V v) {
    _mm512_mask_cvtepi32_storeu_epi8(p, tail_mask(n),
                                     _mm512_maskz_cvttps_epi32(kAll, v));
  }
  static V load_u8(const std::uint8_t* p, int n) {
    __m128i bytes;
    if (n == W) {
      bytes = _mm_loadu_si128(reinterpret_cast<const __m128i*>(p));
    } else {
      // A byte-masked load needs AVX-512BW, which an F-only build lacks.
      alignas(16) std::uint8_t part[16] = {};
      std::memcpy(part, p, static_cast<std::size_t>(n));
      bytes = _mm_load_si128(reinterpret_cast<const __m128i*>(part));
    }
    return _mm512_maskz_cvtepi32_ps(kAll,
                                    _mm512_maskz_cvtepu8_epi32(kAll, bytes));
  }

  using VD = __m512d;
  static VD dzero() { return _mm512_setzero_pd(); }
  static void widen_add(V v, VD& lo, VD& hi) {
    const __m512d pairs = _mm512_castps_pd(v);
    const __m256 low =
        _mm256_castpd_ps(_mm512_maskz_extractf64x4_pd(0xF, pairs, 0));
    const __m256 high =
        _mm256_castpd_ps(_mm512_maskz_extractf64x4_pd(0xF, pairs, 1));
    lo = _mm512_add_pd(lo, _mm512_maskz_cvtps_pd(0xFF, low));
    hi = _mm512_add_pd(hi, _mm512_maskz_cvtps_pd(0xFF, high));
  }
  static V narrow(VD lo, VD hi) {
    const __m512d low = _mm512_castpd256_pd512(
        _mm256_castps_pd(_mm512_maskz_cvtpd_ps(0xFF, lo)));
    return _mm512_castpd_ps(_mm512_maskz_insertf64x4(
        0xFF, low, _mm256_castps_pd(_mm512_maskz_cvtpd_ps(0xFF, hi)), 1));
  }

  /// 16×16 in-register transpose: unpack pairs, shuffle quads within each
  /// 128-bit lane, then two rounds of 128-bit lane shuffles. Always inlined:
  /// called out of line, the rows go through memory.
  [[gnu::always_inline]] static void transpose(V* r) {
    V t[16];
#pragma GCC unroll 16
    for (int i = 0; i < 16; i += 2) {
      t[i] = _mm512_maskz_unpacklo_ps(kAll, r[i], r[i + 1]);
      t[i + 1] = _mm512_maskz_unpackhi_ps(kAll, r[i], r[i + 1]);
    }
#pragma GCC unroll 16
    for (int i = 0; i < 16; i += 4) {
      r[i] = _mm512_maskz_shuffle_ps(kAll, t[i], t[i + 2],
                                     _MM_SHUFFLE(1, 0, 1, 0));
      r[i + 1] = _mm512_maskz_shuffle_ps(kAll, t[i], t[i + 2],
                                         _MM_SHUFFLE(3, 2, 3, 2));
      r[i + 2] = _mm512_maskz_shuffle_ps(kAll, t[i + 1], t[i + 3],
                                         _MM_SHUFFLE(1, 0, 1, 0));
      r[i + 3] = _mm512_maskz_shuffle_ps(kAll, t[i + 1], t[i + 3],
                                         _MM_SHUFFLE(3, 2, 3, 2));
    }
#pragma GCC unroll 16
    for (int h = 0; h < 16; h += 8) {
#pragma GCC unroll 16
      for (int i = 0; i < 4; ++i) {
        t[h + i] =
            _mm512_maskz_shuffle_f32x4(kAll, r[h + i], r[h + i + 4], 0x88);
        t[h + i + 4] =
            _mm512_maskz_shuffle_f32x4(kAll, r[h + i], r[h + i + 4], 0xdd);
      }
    }
#pragma GCC unroll 16
    for (int i = 0; i < 8; ++i) {
      r[i] = _mm512_maskz_shuffle_f32x4(kAll, t[i], t[i + 8], 0x88);
      r[i + 8] = _mm512_maskz_shuffle_f32x4(kAll, t[i], t[i + 8], 0xdd);
    }
  }

#if defined(__AVX512VNNI__) && defined(__AVX512BW__)
  // --- int8 policy: the real 512-bit vpdpbusd. The dispatcher gates this
  // tier on the BW+VNNI CPUID bits when the TU is built this way
  // (KernelTable::needs_avx512_vnni). ---
  // VI is a plain int32 vector for the reason given at Avx2Ops::VI.
  using Int8 = Avx512Ops;
  using VI = std::int32_t __attribute__((vector_size(64)));
  static VI iload(const void* p) {
    return reinterpret_cast<VI>(_mm512_load_si512(p));
  }
  static VI iset1(std::int32_t x) {
    return reinterpret_cast<VI>(_mm512_set1_epi32(x));
  }
  static VI imul(VI a, VI b) { return a * b; }
  static V cvt(VI a) {
    return _mm512_maskz_cvtepi32_ps(kAll, reinterpret_cast<__m512i>(a));
  }
  static VI dpbusd(VI acc, VI a, VI b) {
    return reinterpret_cast<VI>(
        _mm512_dpbusd_epi32(reinterpret_cast<__m512i>(acc),
                            reinterpret_cast<__m512i>(a),
                            reinterpret_cast<__m512i>(b)));
  }
#else
  // F-only build: no byte-granularity 512-bit integer ops exist below BW, so
  // the int8 kernels run the 256-bit madd-pair emulation (AVX2 is an
  // architectural prerequisite of AVX-512F, so Avx2Ops exists in this TU).
  using Int8 = Avx2Ops;
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

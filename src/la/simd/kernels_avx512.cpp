// AVX-512F dispatch tier. This translation unit alone is compiled with
// -mavx512f (which pulls in AVX2/FMA as prerequisites) plus
// -ffp-contract=off; when the compiler also accepts -mavx512bw
// -mavx512vnni the int8 quant_dot kernel uses the real vpdpbusd and the
// table is flagged needs_avx512_vnni so the dispatcher gates the tier on
// those CPUID bits. Everything vector goes through the Avx512Ops policy.
// Without the flags (non-x86 host) the getter returns nullptr and the
// dispatcher skips the tier.

#include "la/simd/kernels_body.inl"

namespace deepphi::la::simd {

#if defined(__AVX512F__)

namespace {

// GEMM register tile: 12×32 = 24 zmm accumulators, two B vectors and the A
// broadcast, 27 of the 32 zmm registers.
constexpr int kGemmMR = 12;
constexpr int kGemmNR = 32;
static_assert(gemm_tile_registers<Avx512Ops>(kGemmMR, kGemmNR) <= 32,
              "the avx512 GEMM tile must fit the zmm register file");

// float→double of 8 lanes, and the low 8 floats of a 512-bit vector. The
// all-ones maskz forms are the plain instructions without the operand GCC 12
// flags (see Avx512Ops::kAll).
__m512d widen(__m256 v) { return _mm512_maskz_cvtps_pd(0xFF, v); }
__m256 low_half(__m512 v) {
  return _mm256_castpd_ps(
      _mm512_maskz_extractf64x4_pd(0xF, _mm512_castps_pd(v), 0));
}

// dot8 with the 8 double lanes in a single 512-bit accumulator. Exact
// products make the fma bit-identical to dot8_ref's mul+add; the masked
// tail adds +0.0, a no-op (see dot8_ref).
double dot8_avx512(const float* x, const float* y, std::int64_t n) {
  __m512d acc = _mm512_setzero_pd();
  std::int64_t i = 0;
  for (; i + 8 <= n; i += 8) {
    acc = _mm512_fmadd_pd(widen(_mm256_loadu_ps(x + i)),
                          widen(_mm256_loadu_ps(y + i)), acc);
  }
  if (i < n) {
    // Tail via a 512-bit masked load (only F-level masking exists in this
    // TU); the low 8 floats carry the <=7 live lanes plus zeros.
    const __mmask16 m = Avx512Ops::tail_mask(static_cast<int>(n - i));
    const __m256 xv = low_half(_mm512_maskz_loadu_ps(m, x + i));
    const __m256 yv = low_half(_mm512_maskz_loadu_ps(m, y + i));
    acc = _mm512_fmadd_pd(widen(xv), widen(yv), acc);
  }
  double lanes8[8];
  _mm512_storeu_pd(lanes8, acc);
  return combine8(lanes8);
}

}  // namespace

const KernelTable* avx512_table() {
  static const KernelTable table = [] {
    KernelTable t = make_table<Avx512Ops, kGemmMR, kGemmNR>(Tier::kAvx512,
                                                     &dot8_avx512);
#if defined(__AVX512VNNI__) && defined(__AVX512BW__)
    // quant_dot uses the real vpdpbusd; the dispatcher must gate this tier
    // on the BW+VNNI CPUID bits, not just AVX-512F.
    t.needs_avx512_vnni = true;
#endif
    return t;
  }();
  return &table;
}

#else  // compiler has no AVX-512F for this TU

const KernelTable* avx512_table() { return nullptr; }

#endif

}  // namespace deepphi::la::simd

// AVX2+FMA dispatch tier. This translation unit alone is compiled with
// -mavx2 -mfma (and -ffp-contract=off so no stray scalar expression gets
// contracted differently from the other tiers); everything vector goes
// through the Avx2Ops policy. When built by a compiler without those flags
// (non-x86 host), the guard compiles the table out and the getter returns
// nullptr, which the dispatcher treats as "tier not built".

#include "la/simd/kernels_body.inl"

namespace deepphi::la::simd {

#if defined(__AVX2__) && defined(__FMA__)

namespace {

// GEMM register tile: 6×16 = 12 ymm accumulators, two B vectors and the A
// broadcast, 15 of the 16 ymm registers.
constexpr int kGemmMR = 6;
constexpr int kGemmNR = 16;
static_assert(gemm_tile_registers<Avx2Ops>(kGemmMR, kGemmNR) <= 16,
              "the avx2 GEMM tile must fit the ymm register file");

// Int8 tile: 2 rows × 4 ymm of int32 accumulators, the activation and two
// zero-point broadcasts; the madd-pair emulation reads the four panel
// vectors straight from memory, and its constant and pair sums take their
// registers: 15 of the 16 ymm registers.
constexpr int kQuantMR = 2;
static_assert(quant_tile_registers<Avx2Ops>(kQuantMR) <= 16,
              "the avx2 int8 tile must fit the ymm register file");

// dot8 on 256-bit doubles: two accumulators hold lanes 0..3 / 4..7 of the
// fixed 8-lane scheme. Products are exact (float×float in double), so the
// fma here is bit-identical to dot8_ref's mul+add; the masked tail adds
// +0.0, a no-op (see dot8_ref).
double dot8_avx2(const float* x, const float* y, std::int64_t n) {
  __m256d lo = _mm256_setzero_pd();
  __m256d hi = _mm256_setzero_pd();
  std::int64_t i = 0;
  for (; i + 8 <= n; i += 8) {
    const __m256 xv = _mm256_loadu_ps(x + i);
    const __m256 yv = _mm256_loadu_ps(y + i);
    lo = _mm256_fmadd_pd(_mm256_cvtps_pd(_mm256_castps256_ps128(xv)),
                         _mm256_cvtps_pd(_mm256_castps256_ps128(yv)), lo);
    hi = _mm256_fmadd_pd(_mm256_cvtps_pd(_mm256_extractf128_ps(xv, 1)),
                         _mm256_cvtps_pd(_mm256_extractf128_ps(yv, 1)), hi);
  }
  if (i < n) {
    const int lanes = static_cast<int>(n - i);
    const __m256 xv = Avx2Ops::loadu_partial(x + i, lanes);
    const __m256 yv = Avx2Ops::loadu_partial(y + i, lanes);
    lo = _mm256_fmadd_pd(_mm256_cvtps_pd(_mm256_castps256_ps128(xv)),
                         _mm256_cvtps_pd(_mm256_castps256_ps128(yv)), lo);
    hi = _mm256_fmadd_pd(_mm256_cvtps_pd(_mm256_extractf128_ps(xv, 1)),
                         _mm256_cvtps_pd(_mm256_extractf128_ps(yv, 1)), hi);
  }
  double lanes8[8];
  _mm256_storeu_pd(lanes8, lo);
  _mm256_storeu_pd(lanes8 + 4, hi);
  return combine8(lanes8);
}

// sq_diff8 on the same two accumulators (lanes 0..3 / 4..7): subtract,
// multiply and add round per lane as in sq_diff8_ref; the masked tail's
// lanes read 0 − 0 and add +0.0.
double sq_diff8_avx2(const float* a, const float* b, std::int64_t n) {
  __m256d lo = _mm256_setzero_pd();
  __m256d hi = _mm256_setzero_pd();
  const auto step = [&](__m256 av, __m256 bv) {
    const __m256d dlo =
        _mm256_sub_pd(_mm256_cvtps_pd(_mm256_castps256_ps128(av)),
                      _mm256_cvtps_pd(_mm256_castps256_ps128(bv)));
    const __m256d dhi =
        _mm256_sub_pd(_mm256_cvtps_pd(_mm256_extractf128_ps(av, 1)),
                      _mm256_cvtps_pd(_mm256_extractf128_ps(bv, 1)));
    lo = _mm256_add_pd(lo, _mm256_mul_pd(dlo, dlo));
    hi = _mm256_add_pd(hi, _mm256_mul_pd(dhi, dhi));
  };
  std::int64_t i = 0;
  for (; i + 8 <= n; i += 8) step(_mm256_loadu_ps(a + i), _mm256_loadu_ps(b + i));
  if (i < n) {
    const int lanes = static_cast<int>(n - i);
    step(Avx2Ops::loadu_partial(a + i, lanes),
         Avx2Ops::loadu_partial(b + i, lanes));
  }
  double lanes8[8];
  _mm256_storeu_pd(lanes8, lo);
  _mm256_storeu_pd(lanes8 + 4, hi);
  return combine8(lanes8);
}

}  // namespace

const KernelTable* avx2_table() {
  static const KernelTable table =
      make_table<Avx2Ops, kGemmMR, kGemmNR, kQuantMR>(
          Tier::kAvx2, &dot8_avx2, &sq_diff8_avx2);
  return &table;
}

#else  // compiler has no AVX2+FMA for this TU

const KernelTable* avx2_table() { return nullptr; }

#endif

}  // namespace deepphi::la::simd

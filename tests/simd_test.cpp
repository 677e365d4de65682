// Cross-tier parity suite for the runtime SIMD dispatch (docs/simd.md).
//
// The dispatch layer promises that every tier (scalar / avx2 / avx512)
// computes bit-identical results: same generic kernel body, correctly
// rounded scalar fma/floor, one shared exp polynomial, masked fringes. These
// tests pin that promise — bitwise, not within-tolerance — because the
// counter-driven Bernoulli sampling compares u < mean and a 1-ulp mean
// difference on one tier would flip samples and fork training trajectories
// between machines.
//
// Only tiers this CPU can actually run are exercised; on a machine without
// AVX2 the suite degenerates to scalar-vs-scalar and still passes.
#include <gtest/gtest.h>

#ifdef _OPENMP
#include <omp.h>
#endif

#include <cstring>
#include <vector>

#include "baseline/naive_gemm.hpp"
#include "la/blas1.hpp"
#include "la/elementwise.hpp"
#include "la/gemm.hpp"
#include "la/matrix.hpp"
#include "la/simd/dispatch.hpp"
#include "phi/kernel_stats.hpp"
#include "util/error.hpp"
#include "util/rng.hpp"

namespace deepphi::la {
namespace {

std::vector<simd::Tier> available_tiers() {
  std::vector<simd::Tier> tiers;
  for (int t = 0; t < simd::kNumTiers; ++t) {
    const auto tier = static_cast<simd::Tier>(t);
    if (simd::tier_available(tier)) tiers.push_back(tier);
  }
  return tiers;
}

// Forces a tier for one scope; restores the startup binding on exit.
struct ForcedTier {
  explicit ForcedTier(simd::Tier t) { EXPECT_TRUE(simd::force_tier(t)); }
  ~ForcedTier() { simd::reset_tier(); }
  ForcedTier(const ForcedTier&) = delete;
  ForcedTier& operator=(const ForcedTier&) = delete;
};

bool bitwise_equal(const Matrix& a, const Matrix& b) {
  return a.rows() == b.rows() && a.cols() == b.cols() &&
         std::memcmp(a.data(), b.data(),
                     sizeof(float) * static_cast<std::size_t>(a.size())) == 0;
}

Matrix random_matrix(Index rows, Index cols, std::uint64_t seed,
                     float lo = -1.0f, float hi = 1.0f) {
  util::Rng rng(seed);
  Matrix m = Matrix::uninitialized(rows, cols);
  for (Index i = 0; i < m.size(); ++i)
    m.data()[i] = static_cast<float>(rng.uniform(lo, hi));
  return m;
}

Vector random_vector(Index n, std::uint64_t seed) {
  util::Rng rng(seed);
  Vector v = Vector::uninitialized(n);
  for (Index i = 0; i < n; ++i)
    v[i] = static_cast<float>(rng.uniform(-1.0, 1.0));
  return v;
}

// --- Dispatch mechanics ---

TEST(SimdDispatch, ScalarTierIsAlwaysAvailable) {
  EXPECT_TRUE(simd::tier_available(simd::Tier::kScalar));
  EXPECT_TRUE(simd::tier_available(simd::active_tier()));
  EXPECT_TRUE(simd::tier_available(simd::best_available_tier()));
}

TEST(SimdDispatch, ForceTierRoundTrips) {
  const simd::Tier startup = simd::active_tier();
  for (simd::Tier tier : available_tiers()) {
    ASSERT_TRUE(simd::force_tier(tier));
    EXPECT_EQ(simd::active_tier(), tier);
    EXPECT_EQ(simd::active().tier, tier);
  }
  simd::reset_tier();
  EXPECT_EQ(simd::active_tier(), startup);
}

TEST(SimdDispatch, ParseTierNames) {
  simd::Tier t;
  ASSERT_TRUE(simd::parse_tier("scalar", t));
  EXPECT_EQ(t, simd::Tier::kScalar);
  ASSERT_TRUE(simd::parse_tier("avx2", t));
  EXPECT_EQ(t, simd::Tier::kAvx2);
  ASSERT_TRUE(simd::parse_tier("avx512", t));
  EXPECT_EQ(t, simd::Tier::kAvx512);
  EXPECT_FALSE(simd::parse_tier("sse42", t));
  EXPECT_FALSE(simd::parse_tier("", t));
}

TEST(SimdDispatch, AvailableTablesAreFullyPopulated) {
  for (simd::Tier tier : available_tiers()) {
    ForcedTier forced(tier);
    const simd::KernelTable& tab = simd::active();
    for (int op = 0; op < 5; ++op)
      EXPECT_NE(tab.gemm_micro[op], nullptr) << "op " << op;
    EXPECT_NE(tab.sigmoid, nullptr);
    EXPECT_NE(tab.bias_sigmoid, nullptr);
    EXPECT_NE(tab.bias_sigmoid_sample, nullptr);
    EXPECT_NE(tab.bernoulli_compare, nullptr);
    EXPECT_NE(tab.dsigmoid_mul, nullptr);
    EXPECT_NE(tab.axpy, nullptr);
    EXPECT_NE(tab.dot8, nullptr);
  }
}

// --- GEMM: every epilogue × fringe shapes × degenerate scalings ---

GemmEpilogue make_epilogue(EpilogueOp op, const Vector& bias,
                           const Matrix& act) {
  switch (op) {
    case EpilogueOp::kNone:
      return GemmEpilogue::none();
    case EpilogueOp::kBiasAdd:
      return GemmEpilogue::bias_add(bias);
    case EpilogueOp::kBiasSigmoid:
      return GemmEpilogue::bias_sigmoid(bias);
    case EpilogueOp::kDsigmoidMul:
      return GemmEpilogue::dsigmoid_mul(act);
    case EpilogueOp::kBiasDsigmoidMul:
      return GemmEpilogue::bias_dsigmoid_mul(bias, act);
  }
  return GemmEpilogue::none();
}

TEST(SimdGemmParity, AllEpiloguesBitwiseAcrossTiers) {
  const std::vector<simd::Tier> tiers = available_tiers();
  struct Shape {
    Index m, n, k;
  };
  // Small full and fringe shapes, minimal, an odd leading dimension, and the
  // k = 0 degenerate product. Fringes of each tier's own register tile are
  // RegisterTileFringesBitwiseAcrossTiers.
  const Shape shapes[] = {{4, 16, 8},   {5, 17, 3},  {1, 1, 1}, {7, 33, 19},
                          {13, 31, 7},  {64, 64, 64}, {3, 129, 65}, {9, 40, 0}};
  const float alphas[] = {0.0f, 1.0f, 0.7f};
  const float betas[] = {0.0f, 0.5f};
  const EpilogueOp ops[] = {EpilogueOp::kNone, EpilogueOp::kBiasAdd,
                            EpilogueOp::kBiasSigmoid, EpilogueOp::kDsigmoidMul,
                            EpilogueOp::kBiasDsigmoidMul};

  for (const Shape& s : shapes) {
    Matrix a = random_matrix(s.m, s.k, 1);
    Matrix b = random_matrix(s.k, s.n, 2);
    Matrix c0 = random_matrix(s.m, s.n, 3);
    Vector bias = random_vector(s.n, 4);
    Matrix act = random_matrix(s.m, s.n, 5, 0.05f, 0.95f);
    for (float alpha : alphas) {
      for (float beta : betas) {
        for (EpilogueOp op : ops) {
          const GemmEpilogue ep = make_epilogue(op, bias, act);
          Matrix ref = c0;
          {
            ForcedTier forced(simd::Tier::kScalar);
            gemm_nn(alpha, a, b, beta, ref, ep);
          }
          for (simd::Tier tier : tiers) {
            if (tier == simd::Tier::kScalar) continue;
            Matrix c = c0;
            {
              ForcedTier forced(tier);
              gemm_nn(alpha, a, b, beta, c, ep);
            }
            EXPECT_TRUE(bitwise_equal(ref, c))
                << "tier " << simd::tier_name(tier) << " shape " << s.m << "x"
                << s.n << "x" << s.k << " alpha " << alpha << " beta " << beta
                << " op " << static_cast<int>(op);
          }
        }
      }
    }
  }
}

// Fringes of every runnable tier's own register tile, checked on every
// tier. k > kc = 256 runs the multi-panel write-back (C = fma(alpha, acc, C)
// after the first panel) with beta and each epilogue, over the nn, nt and tn
// packing paths.
TEST(SimdGemmParity, RegisterTileFringesBitwiseAcrossTiers) {
#ifdef _OPENMP
  // Tier parity does not depend on the thread count (the determinism tests
  // pin that); one thread keeps these ~1000 small GEMMs quick when ctest
  // runs other multi-threaded suites alongside.
  const int saved_threads = omp_get_max_threads();
  omp_set_num_threads(1);
#endif
  const std::vector<simd::Tier> tiers = available_tiers();
  const Index ks[] = {255, 257, 513};
  const Trans trans[][2] = {
      {Trans::kNo, Trans::kNo}, {Trans::kNo, Trans::kYes},
      {Trans::kYes, Trans::kNo}};
  const EpilogueOp ops[] = {EpilogueOp::kNone, EpilogueOp::kBiasAdd,
                            EpilogueOp::kBiasSigmoid, EpilogueOp::kDsigmoidMul,
                            EpilogueOp::kBiasDsigmoidMul};
  std::uint64_t seed = 100;
  int op_index = 0;
  for (simd::Tier tile_tier : tiers) {
    Index mr = 0, nr = 0;
    {
      ForcedTier forced(tile_tier);
      mr = simd::active().gemm_mr;
      nr = simd::active().gemm_nr;
    }
    for (Index m : {mr - 1, mr, mr + 1, 2 * mr + 1}) {
      for (Index n : {nr - 1, nr, nr + 1}) {
        for (Index k : ks) {
          for (const auto& t : trans) {
            const Matrix a = t[0] == Trans::kNo ? random_matrix(m, k, ++seed)
                                                : random_matrix(k, m, ++seed);
            const Matrix b = t[1] == Trans::kNo ? random_matrix(k, n, ++seed)
                                                : random_matrix(n, k, ++seed);
            const Matrix c0 = random_matrix(m, n, ++seed);
            const Vector bias = random_vector(n, ++seed);
            const Matrix act = random_matrix(m, n, ++seed, 0.05f, 0.95f);
            const EpilogueOp op = ops[op_index++ % 5];
            const GemmEpilogue ep = make_epilogue(op, bias, act);
            Matrix ref = c0;
            {
              ForcedTier forced(simd::Tier::kScalar);
              gemm(t[0], t[1], 0.7f, a, b, 0.5f, ref, ep);
            }
            for (simd::Tier tier : tiers) {
              if (tier == simd::Tier::kScalar) continue;
              Matrix c = c0;
              {
                ForcedTier forced(tier);
                gemm(t[0], t[1], 0.7f, a, b, 0.5f, c, ep);
              }
              EXPECT_TRUE(bitwise_equal(ref, c))
                  << simd::tier_name(tier) << " vs scalar, "
                  << simd::tier_name(tile_tier) << " tile fringe " << m
                  << "x" << n << "x" << k << " trans "
                  << (t[0] == Trans::kNo ? "n" : "t")
                  << (t[1] == Trans::kNo ? "n" : "t") << " op "
                  << static_cast<int>(op);
            }
          }
        }
      }
    }
  }
#ifdef _OPENMP
  omp_set_num_threads(saved_threads);
#endif
}

TEST(SimdGemmParity, TransposedProductsBitwiseAcrossTiers) {
  // The nt (forward) and tn (gradient) packing paths feed the same
  // micro-kernel; check both stay tier-invariant on fringe shapes.
  const Index m = 11, n = 43, k = 29;
  Matrix x = random_matrix(m, k, 10);
  Matrix w = random_matrix(n, k, 11);  // gemm_nt: C = x · wᵀ
  Matrix d = random_matrix(k, m, 12);  // gemm_tn: C = dᵀ · y
  Matrix y = random_matrix(k, n, 13);
  Vector bias = random_vector(n, 14);

  Matrix nt_ref(m, n), tn_ref(m, n);
  {
    ForcedTier forced(simd::Tier::kScalar);
    gemm_nt(1.0f, x, w, 0.0f, nt_ref, GemmEpilogue::bias_sigmoid(bias));
    gemm_tn(0.7f, d, y, 0.0f, tn_ref);
  }
  for (simd::Tier tier : available_tiers()) {
    if (tier == simd::Tier::kScalar) continue;
    Matrix nt(m, n), tn(m, n);
    {
      ForcedTier forced(tier);
      gemm_nt(1.0f, x, w, 0.0f, nt, GemmEpilogue::bias_sigmoid(bias));
      gemm_tn(0.7f, d, y, 0.0f, tn);
    }
    EXPECT_TRUE(bitwise_equal(nt_ref, nt)) << simd::tier_name(tier);
    EXPECT_TRUE(bitwise_equal(tn_ref, tn)) << simd::tier_name(tier);
  }
}

TEST(SimdGemmParity, OddLeadingDimensions) {
  // Odd column counts make every C row start misaligned (the Matrix leading
  // dimension equals cols), so the micro-kernel's unaligned/masked C path is
  // the only thing standing between this and a crash or a wrong fringe.
  struct Shape {
    Index m, n, k;
  };
  const Shape shapes[] = {{5, 37, 13}, {8, 53, 21}, {4, 61, 7}};
  for (const Shape& s : shapes) {
    Matrix a = random_matrix(s.m, s.k, 20);
    Matrix b = random_matrix(s.k, s.n, 21);
    Vector bias = random_vector(s.n, 22);

    // Cross-check the dispatched result against the naive oracle so an
    // identical-but-wrong answer on all tiers cannot slip through.
    Matrix oracle(s.m, s.n);
    baseline::naive_gemm(Trans::kNo, Trans::kNo, 1.0f, a, b, 0.0f, oracle);
    Matrix ref(s.m, s.n);
    Matrix ref_fused(s.m, s.n);
    {
      ForcedTier forced(simd::Tier::kScalar);
      gemm_nn(1.0f, a, b, 0.0f, ref);
      gemm_nn(1.0f, a, b, 0.0f, ref_fused, GemmEpilogue::bias_sigmoid(bias));
    }
    EXPECT_TRUE(ref.approx_equal(oracle, 1e-4f, 1e-5f));

    for (simd::Tier tier : available_tiers()) {
      if (tier == simd::Tier::kScalar) continue;
      Matrix c(s.m, s.n);
      Matrix c_fused(s.m, s.n);
      {
        ForcedTier forced(tier);
        gemm_nn(1.0f, a, b, 0.0f, c);
        gemm_nn(1.0f, a, b, 0.0f, c_fused, GemmEpilogue::bias_sigmoid(bias));
      }
      EXPECT_TRUE(bitwise_equal(ref, c))
          << simd::tier_name(tier) << " " << s.n << " cols";
      EXPECT_TRUE(bitwise_equal(ref_fused, c_fused))
          << simd::tier_name(tier) << " " << s.n << " cols (fused)";
    }
  }
}

// --- Elementwise / sampling ---

TEST(SimdElementwiseParity, BitwiseAcrossTiers) {
  struct Shape {
    Index rows, cols;
  };
  // Odd columns (masked fringes on every row), one element, and a size
  // large enough to cross the flat-chunking threshold.
  const Shape shapes[] = {{5, 37}, {1, 1}, {17, 259}, {9, 4096}};
  for (const Shape& s : shapes) {
    Matrix m0 = random_matrix(s.rows, s.cols, 30, -4.0f, 4.0f);
    Vector bias = random_vector(s.cols, 31);
    Matrix act = random_matrix(s.rows, s.cols, 32, 0.05f, 0.95f);

    Matrix sig_ref = m0, bsig_ref = m0, dsig_ref = m0;
    {
      ForcedTier forced(simd::Tier::kScalar);
      sigmoid_inplace(sig_ref);
      bias_sigmoid(bsig_ref, bias);
      dsigmoid_mul_inplace(dsig_ref, act);
    }
    for (simd::Tier tier : available_tiers()) {
      if (tier == simd::Tier::kScalar) continue;
      Matrix sig = m0, bsig = m0, dsig = m0;
      {
        ForcedTier forced(tier);
        sigmoid_inplace(sig);
        bias_sigmoid(bsig, bias);
        dsigmoid_mul_inplace(dsig, act);
      }
      EXPECT_TRUE(bitwise_equal(sig_ref, sig)) << simd::tier_name(tier);
      EXPECT_TRUE(bitwise_equal(bsig_ref, bsig)) << simd::tier_name(tier);
      EXPECT_TRUE(bitwise_equal(dsig_ref, dsig)) << simd::tier_name(tier);
    }
  }
}

TEST(SimdSamplingParity, SamplesIdenticalAcrossTiers) {
  // The property everything above exists to protect: with the same RNG
  // counter stream, every tier must draw the SAME Bernoulli samples. Means
  // include exact 0.0 and 1.0 (never / always fires on every tier).
  const Index rows = 13, cols = 101;
  Matrix mean = random_matrix(rows, cols, 40, 0.0f, 1.0f);
  mean(0, 0) = 0.0f;
  mean(0, 1) = 1.0f;
  Matrix m0 = random_matrix(rows, cols, 41, -3.0f, 3.0f);
  Vector bias = random_vector(cols, 42);

  Matrix sample_ref(rows, cols), fused_mean_ref = m0,
         fused_sample_ref(rows, cols);
  {
    ForcedTier forced(simd::Tier::kScalar);
    sample_bernoulli(mean, sample_ref, util::Rng(7, 9));
    bias_sigmoid_sample(fused_mean_ref, bias, fused_sample_ref,
                        util::Rng(7, 9));
  }
  for (simd::Tier tier : available_tiers()) {
    if (tier == simd::Tier::kScalar) continue;
    Matrix sample(rows, cols), fused_mean = m0, fused_sample(rows, cols);
    {
      ForcedTier forced(tier);
      sample_bernoulli(mean, sample, util::Rng(7, 9));
      bias_sigmoid_sample(fused_mean, bias, fused_sample, util::Rng(7, 9));
    }
    EXPECT_TRUE(bitwise_equal(sample_ref, sample)) << simd::tier_name(tier);
    EXPECT_TRUE(bitwise_equal(fused_mean_ref, fused_mean))
        << simd::tier_name(tier);
    EXPECT_TRUE(bitwise_equal(fused_sample_ref, fused_sample))
        << simd::tier_name(tier);
  }
  // Exact-probability rows: sanity-check on the dispatched tier.
  EXPECT_EQ(sample_ref(0, 0), 0.0f);
  EXPECT_EQ(sample_ref(0, 1), 1.0f);
}

// --- BLAS-1 ---

TEST(SimdBlas1Parity, AxpyBitwiseAndDotExactAcrossTiers) {
  // Crosses both the axpy chunk size and the dot parallel threshold so the
  // chunked multi-thread paths run, not just the short-vector fallbacks.
  const Index n = (1 << 16) + 37;
  Vector x = random_vector(n, 50);
  Vector y0 = random_vector(n, 51);

  Vector axpy_ref = y0;
  double dot_ref = 0;
  {
    ForcedTier forced(simd::Tier::kScalar);
    axpy(0.37f, x, axpy_ref);
    dot_ref = dot(x, y0);
  }
  for (simd::Tier tier : available_tiers()) {
    if (tier == simd::Tier::kScalar) continue;
    Vector y = y0;
    double d = 0;
    {
      ForcedTier forced(tier);
      axpy(0.37f, x, y);
      d = dot(x, y0);
    }
    for (Index i = 0; i < n; ++i)
      ASSERT_EQ(axpy_ref[i], y[i]) << simd::tier_name(tier) << " i=" << i;
    EXPECT_EQ(dot_ref, d) << simd::tier_name(tier);
  }
}

// --- Accounting: stats are shape-only, so tiers must agree exactly ---

phi::KernelStats measure_workload(simd::Tier tier) {
  ForcedTier forced(tier);
  phi::KernelStats stats;
  {
    phi::StatsScope scope(stats);
    Matrix x = random_matrix(32, 48, 60);
    Matrix w = random_matrix(24, 48, 61);
    Vector bias = random_vector(24, 62);
    Matrix y(32, 24);
    gemm_nt(1.0f, x, w, 0.0f, y, GemmEpilogue::bias_sigmoid(bias));
    sigmoid_inplace(x);
    Matrix sample(32, 24);
    sample_bernoulli(y, sample, util::Rng(3));
    Vector v = random_vector(1000, 63);
    Vector u = random_vector(1000, 64);
    axpy(0.5f, v, u);
    dot(v, u);
  }
  return stats;
}

TEST(SimdStats, KernelStatsIdenticalAcrossTiers) {
  const phi::KernelStats ref = measure_workload(simd::Tier::kScalar);
  for (simd::Tier tier : available_tiers()) {
    if (tier == simd::Tier::kScalar) continue;
    const phi::KernelStats got = measure_workload(tier);
    EXPECT_TRUE(got.approx_equal(ref, 0.0))
        << simd::tier_name(tier) << "\nscalar: " << ref.to_string()
        << "\ngot:    " << got.to_string();
  }
}

TEST(SimdStats, ModelEqualsMeasurePerTier) {
  // The analytic model is shape-only; the measured side must match it on
  // EVERY tier, or the simulator would report different Phi seconds
  // depending on which host ran the "measurement".
  const Index m = 32, n = 24, k = 48;
  const phi::KernelStats expected =
      phi::gemm_contribution(m, n, k) +
      phi::epilogue_contribution(m * n, 9.0, 0.0);
  for (simd::Tier tier : available_tiers()) {
    ForcedTier forced(tier);
    Matrix x = random_matrix(m, k, 70);
    Matrix w = random_matrix(n, k, 71);
    Vector bias = random_vector(n, 72);
    Matrix y(m, n);
    phi::KernelStats measured;
    {
      phi::StatsScope scope(measured);
      gemm_nt(1.0f, x, w, 0.0f, y, GemmEpilogue::bias_sigmoid(bias));
    }
    EXPECT_TRUE(measured.approx_equal(expected))
        << simd::tier_name(tier) << "\nexpected: " << expected.to_string()
        << "\nmeasured: " << measured.to_string();
  }
}

// --- Alignment contract ---

TEST(SimdAlignment, CheckPanelAlignmentThrowsOnMisalignment) {
  alignas(64) float buf[32] = {};
  EXPECT_NO_THROW(simd::check_panel_alignment(buf, buf));
  EXPECT_THROW(simd::check_panel_alignment(buf + 1, buf), util::Error);
  EXPECT_THROW(simd::check_panel_alignment(buf, buf + 1), util::Error);
  EXPECT_THROW(
      simd::check_panel_alignment(reinterpret_cast<const char*>(buf) + 32,
                                  buf),
      util::Error);
}

}  // namespace
}  // namespace deepphi::la

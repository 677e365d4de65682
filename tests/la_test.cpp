// Tests for the linear-algebra kernels: container semantics, BLAS-1/2,
// transpose, elementwise (against scalar references), reductions, and the
// blocked GEMM validated against the naive oracle across a parameterized
// shape/transpose/blocking sweep.
#include <gtest/gtest.h>

#include <cmath>
#include <tuple>
#include <type_traits>
#include <utility>

#ifdef _OPENMP
#include <omp.h>
#endif

#include "baseline/naive_gemm.hpp"
#include "la/blas1.hpp"
#include "la/blas2.hpp"
#include "la/elementwise.hpp"
#include "la/gemm.hpp"
#include "la/matrix.hpp"
#include "la/pack_arena.hpp"
#include "la/reduce.hpp"
#include "la/simd/dispatch.hpp"
#include "la/transpose.hpp"
#include "phi/kernel_stats.hpp"
#include "util/error.hpp"
#include "util/rng.hpp"

namespace deepphi::la {
namespace {

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

// --- Matrix / Vector containers ---

TEST(Matrix, ZeroInitialized) {
  Matrix m(3, 4);
  for (Index i = 0; i < m.size(); ++i) EXPECT_EQ(m.data()[i], 0.0f);
}

TEST(Matrix, DryRunHoldsShapeOnlyAndKernelsOnlyRecord) {
  phi::KernelStats stats;
  phi::StatsScope scope(stats);
  phi::DryRun dry;
  const la::Matrix a(1 << 20, 1 << 12);  // 16 GiB if it were stored
  la::Matrix c = a;
  EXPECT_EQ(a.data(), nullptr);
  EXPECT_EQ(c.size(), a.size());
  la::axpy(1.0f, a, c);
  EXPECT_EQ(stats.loop_flops, 2.0 * static_cast<double>(a.size()));
  EXPECT_EQ(stats.kernel_launches, 1);
}

TEST(Matrix, FromRowsAndAccess) {
  Matrix m = Matrix::from_rows({{1, 2, 3}, {4, 5, 6}});
  EXPECT_EQ(m.rows(), 2);
  EXPECT_EQ(m.cols(), 3);
  EXPECT_EQ(m(1, 2), 6.0f);
  EXPECT_EQ(m.at(0, 0), 1.0f);
}

TEST(Matrix, FromRowsRejectsRagged) {
  EXPECT_THROW(Matrix::from_rows({{1, 2}, {3}}), util::Error);
}

TEST(Matrix, AtThrowsOutOfRange) {
  Matrix m(2, 2);
  EXPECT_THROW(m.at(2, 0), util::Error);
  EXPECT_THROW(m.at(0, -1), util::Error);
}

TEST(Matrix, CopyAndMove) {
  Matrix a = Matrix::from_rows({{1, 2}, {3, 4}});
  Matrix b = a;  // copy
  EXPECT_TRUE(a.approx_equal(b));
  b(0, 0) = 99;
  EXPECT_EQ(a(0, 0), 1.0f);
  Matrix c = std::move(a);
  EXPECT_EQ(c(1, 1), 4.0f);
  EXPECT_EQ(a.size(), 0);  // NOLINT: moved-from is empty by contract
}

TEST(Matrix, CopyAssignResizes) {
  Matrix a(2, 2);
  Matrix b = Matrix::from_rows({{1, 2, 3}});
  a = b;
  EXPECT_EQ(a.rows(), 1);
  EXPECT_EQ(a.cols(), 3);
  EXPECT_EQ(a(0, 2), 3.0f);
}

TEST(Matrix, Reshape) {
  Matrix m = Matrix::from_rows({{1, 2, 3, 4}});
  m.reshape(2, 2);
  EXPECT_EQ(m(1, 0), 3.0f);
  EXPECT_THROW(m.reshape(3, 2), util::Error);
}

TEST(Matrix, FillAndZero) {
  Matrix m(2, 2);
  m.fill(5.0f);
  EXPECT_EQ(m(1, 1), 5.0f);
  m.zero();
  EXPECT_EQ(m(0, 0), 0.0f);
}

TEST(Matrix, CopyFromChecksShape) {
  Matrix a(2, 2), b(2, 3);
  EXPECT_THROW(a.copy_from(b), util::Error);
}

TEST(Matrix, DataIsAligned) {
  Matrix m(5, 7);
  EXPECT_TRUE(util::is_aligned(m.data()));
}

TEST(Matrix, ApproxEqualTolerance) {
  Matrix a = Matrix::constant(2, 2, 1.0f);
  Matrix b = Matrix::constant(2, 2, 1.0f + 1e-7f);
  EXPECT_TRUE(a.approx_equal(b));
  Matrix c = Matrix::constant(2, 2, 1.1f);
  EXPECT_FALSE(a.approx_equal(c));
}

// --- RowView: a batch read in place from its chunk ---

TEST(RowView, DataLiesInsideTheSource) {
  const Matrix chunk = random_matrix(10, 7, 30);
  const RowView view(chunk, 3, 4);
  const Matrix& batch = view.matrix();
  EXPECT_EQ(batch.rows(), 4);
  EXPECT_EQ(batch.cols(), 7);
  EXPECT_EQ(batch.data(), chunk.row(3));  // no copy: the chunk's own rows
  EXPECT_GE(batch.data(), chunk.data());
  EXPECT_LE(batch.data() + batch.size(), chunk.data() + chunk.size());
  for (Index r = 0; r < 4; ++r)
    for (Index c = 0; c < 7; ++c) EXPECT_EQ(batch(r, c), chunk(3 + r, c));
  EXPECT_THROW(RowView(chunk, 8, 3), util::Error);
  EXPECT_THROW(RowView(chunk, -1, 2), util::Error);
}

TEST(RowView, ACopyOwnsItsRows) {
  Matrix chunk = random_matrix(6, 5, 31);
  const RowView view(chunk, 2, 3);
  Matrix copy = view.matrix();
  EXPECT_NE(copy.data(), chunk.row(2));
  EXPECT_TRUE(util::is_aligned(copy.data()));
  chunk.fill(-7.0f);
  EXPECT_EQ(view.matrix()(0, 0), -7.0f);  // the view follows its source
  EXPECT_NE(copy(0, 0), -7.0f);           // the copy does not
  copy.fill(1.0f);                        // and writes to its own storage
  EXPECT_EQ(chunk(2, 0), -7.0f);
}

TEST(RowView, AssigningAViewIntoItsSourceCopiesFirst) {
  Matrix chunk = random_matrix(6, 5, 32);
  const Matrix want = [&] {
    Matrix rows = Matrix::uninitialized(2, 5);
    for (Index r = 0; r < 2; ++r)
      for (Index c = 0; c < 5; ++c) rows(r, c) = chunk(3 + r, c);
    return rows;
  }();
  {
    const RowView view(chunk, 3, 2);
    chunk = view.matrix();  // releases the storage the view reads from
  }
  EXPECT_TRUE(chunk.approx_equal(want, 0.0f, 0.0f));
}

TEST(RowView, DryRunViewHasAShapeButNoData) {
  phi::DryRun dry;
  const Matrix chunk(1000, 576);
  const RowView view(chunk, 200, 200);
  EXPECT_EQ(view.matrix().rows(), 200);
  EXPECT_EQ(view.matrix().cols(), 576);
  EXPECT_EQ(view.matrix().data(), nullptr);
}

TEST(RowView, NothingWritesThroughIt) {
  // A kernel that writes takes a Matrix&, which the view's const Matrix&
  // cannot bind to, and the borrowed pointer never leaves the view.
  static_assert(std::is_same_v<decltype(std::declval<const RowView&>().matrix()),
                               const Matrix&>);
  static_assert(!std::is_copy_constructible_v<RowView>);
  static_assert(!std::is_copy_assignable_v<RowView>);
  static_assert(!std::is_move_constructible_v<RowView>);
}

TEST(Vector, Basics) {
  Vector v = Vector::from({1, 2, 3});
  EXPECT_EQ(v.size(), 3);
  EXPECT_EQ(v[1], 2.0f);
  EXPECT_THROW(v.at(3), util::Error);
  Vector w = v;
  w[0] = 9;
  EXPECT_EQ(v[0], 1.0f);
}

TEST(Vector, ConstantAndFill) {
  Vector v = Vector::constant(4, 2.5f);
  EXPECT_EQ(v[3], 2.5f);
  v.zero();
  EXPECT_EQ(v[0], 0.0f);
}

// --- BLAS-1 ---

TEST(Blas1, AxpyVector) {
  Vector x = Vector::from({1, 2, 3});
  Vector y = Vector::from({10, 20, 30});
  axpy(2.0f, x, y);
  EXPECT_FLOAT_EQ(y[0], 12.0f);
  EXPECT_FLOAT_EQ(y[2], 36.0f);
}

TEST(Blas1, AxpyMatrix) {
  Matrix a = Matrix::constant(2, 3, 1.0f);
  Matrix b = Matrix::constant(2, 3, 5.0f);
  axpy(-1.0f, a, b);
  EXPECT_TRUE(b.approx_equal(Matrix::constant(2, 3, 4.0f)));
}

TEST(Blas1, AxpySizeMismatchThrows) {
  Vector x(3), y(4);
  EXPECT_THROW(axpy(1.0f, x, y), util::Error);
}

TEST(Blas1, Scal) {
  Vector x = Vector::from({2, 4});
  scal(0.5f, x);
  EXPECT_FLOAT_EQ(x[1], 2.0f);
  Matrix m = Matrix::constant(2, 2, 3.0f);
  scal(2.0f, m);
  EXPECT_FLOAT_EQ(m(1, 1), 6.0f);
}

TEST(Blas1, DotAndNorms) {
  Vector x = Vector::from({1, 2, 3});
  Vector y = Vector::from({4, 5, 6});
  EXPECT_DOUBLE_EQ(dot(x, y), 32.0);
  EXPECT_DOUBLE_EQ(nrm2sq(x), 14.0);
  Vector z = Vector::from({-1, 2, -3});
  EXPECT_DOUBLE_EQ(asum(z), 6.0);
}

TEST(Blas1, MatrixDot) {
  Matrix a = Matrix::from_rows({{1, 2}, {3, 4}});
  EXPECT_DOUBLE_EQ(dot(a, a), 30.0);
  EXPECT_DOUBLE_EQ(nrm2sq(a), 30.0);
}

TEST(Blas1, LargeInputsParallelPathMatches) {
  // Exercise the OpenMP branch (n above threshold) against a serial sum.
  const Index n = 1 << 16;
  Vector x = random_vector(n, 1);
  Vector y = random_vector(n, 2);
  double expected = 0;
  for (Index i = 0; i < n; ++i)
    expected += static_cast<double>(x[i]) * y[i];
  EXPECT_NEAR(dot(x, y), expected, 1e-6 * n);
}

// --- BLAS-2 ---

TEST(Blas2, Gemv) {
  Matrix a = Matrix::from_rows({{1, 2}, {3, 4}, {5, 6}});
  Vector x = Vector::from({1, 1});
  Vector y = Vector::from({1, 1, 1});
  gemv(1.0f, a, x, 2.0f, y);
  EXPECT_FLOAT_EQ(y[0], 5.0f);
  EXPECT_FLOAT_EQ(y[2], 13.0f);
}

TEST(Blas2, GemvT) {
  Matrix a = Matrix::from_rows({{1, 2}, {3, 4}});
  Vector x = Vector::from({1, 2});
  Vector y(2);
  gemv_t(1.0f, a, x, 0.0f, y);
  EXPECT_FLOAT_EQ(y[0], 7.0f);   // 1*1 + 3*2
  EXPECT_FLOAT_EQ(y[1], 10.0f);  // 2*1 + 4*2
}

TEST(Blas2, Ger) {
  Matrix a(2, 3);
  Vector x = Vector::from({1, 2});
  Vector y = Vector::from({3, 4, 5});
  ger(1.0f, x, y, a);
  EXPECT_FLOAT_EQ(a(0, 0), 3.0f);
  EXPECT_FLOAT_EQ(a(1, 2), 10.0f);
}

TEST(Blas2, ShapeChecks) {
  Matrix a(2, 3);
  Vector x(2), y(2);
  EXPECT_THROW(gemv(1.0f, a, x, 0.0f, y), util::Error);
}

TEST(Blas2, GemvAgreesWithGemm) {
  // A 1-column gemm is a gemv; cross-check the two implementations.
  Matrix a = random_matrix(23, 17, 70);
  Vector x = random_vector(17, 71);
  Vector y(23);
  gemv(1.0f, a, x, 0.0f, y);

  Matrix xm = Matrix::uninitialized(17, 1);
  for (Index i = 0; i < 17; ++i) xm(i, 0) = x[i];
  Matrix ym(23, 1);
  gemm_nn(1.0f, a, xm, 0.0f, ym);
  for (Index i = 0; i < 23; ++i) EXPECT_NEAR(y[i], ym(i, 0), 1e-4f);
}

TEST(Blas2, GerAgreesWithGemm) {
  // A rank-1 update is an outer-product gemm.
  Vector x = random_vector(9, 72);
  Vector y = random_vector(13, 73);
  Matrix a_ger(9, 13);
  ger(2.0f, x, y, a_ger);

  Matrix xm = Matrix::uninitialized(9, 1), ym = Matrix::uninitialized(1, 13);
  for (Index i = 0; i < 9; ++i) xm(i, 0) = x[i];
  for (Index j = 0; j < 13; ++j) ym(0, j) = y[j];
  Matrix a_gemm(9, 13);
  gemm_nn(2.0f, xm, ym, 0.0f, a_gemm);
  EXPECT_TRUE(a_ger.approx_equal(a_gemm, 1e-5f, 1e-6f));
}

TEST(Vector, ApproxEqualRejectsShapeMismatch) {
  Vector a(3), b(4);
  EXPECT_FALSE(a.approx_equal(b));
}

TEST(Matrix, ToStringSmallShowsContents) {
  Matrix m = Matrix::from_rows({{1, 2}});
  const std::string s = m.to_string();
  EXPECT_NE(s.find("1x2"), std::string::npos);
  EXPECT_NE(s.find("[1, 2]"), std::string::npos);
  // Large matrices only report their shape.
  Matrix big(100, 100);
  EXPECT_EQ(big.to_string().find('['), std::string::npos);
}

// --- transpose ---

TEST(Transpose, Small) {
  Matrix a = Matrix::from_rows({{1, 2, 3}, {4, 5, 6}});
  Matrix t = transposed(a);
  EXPECT_EQ(t.rows(), 3);
  EXPECT_EQ(t(0, 1), 4.0f);
  EXPECT_EQ(t(2, 0), 3.0f);
}

TEST(Transpose, LargeCrossesBlocks) {
  Matrix a = random_matrix(100, 67, 3);
  Matrix t = transposed(a);
  for (Index r = 0; r < a.rows(); ++r)
    for (Index c = 0; c < a.cols(); ++c) EXPECT_EQ(t(c, r), a(r, c));
}

TEST(Transpose, RoundTrip) {
  Matrix a = random_matrix(33, 65, 4);
  EXPECT_TRUE(transposed(transposed(a)).approx_equal(a));
}

TEST(Transpose, ShapeCheck) {
  Matrix a(2, 3), out(2, 3);
  EXPECT_THROW(transpose(a, out), util::Error);
}

// --- elementwise ---

TEST(Elementwise, SigmoidMatchesScalar) {
  Matrix m = random_matrix(5, 7, 5, -4.0f, 4.0f);
  Matrix expect = m;
  for (Index i = 0; i < m.size(); ++i)
    expect.data()[i] = 1.0f / (1.0f + std::exp(-m.data()[i]));
  sigmoid_inplace(m);
  EXPECT_TRUE(m.approx_equal(expect));
}

TEST(Elementwise, AddRowBroadcast) {
  Matrix m = Matrix::constant(3, 2, 1.0f);
  Vector bias = Vector::from({10, 20});
  add_row_broadcast(m, bias);
  EXPECT_FLOAT_EQ(m(2, 0), 11.0f);
  EXPECT_FLOAT_EQ(m(0, 1), 21.0f);
}

TEST(Elementwise, Sub) {
  Matrix a = Matrix::from_rows({{3, 4}});
  Matrix b = Matrix::from_rows({{1, 2}});
  Matrix out(1, 2);
  sub(a, b, out);
  EXPECT_FLOAT_EQ(out(0, 1), 2.0f);
}

TEST(Elementwise, DsigmoidMul) {
  Matrix delta = Matrix::constant(1, 2, 2.0f);
  Matrix act = Matrix::from_rows({{0.5f, 0.25f}});
  dsigmoid_mul_inplace(delta, act);
  EXPECT_FLOAT_EQ(delta(0, 0), 2.0f * 0.25f);
  EXPECT_FLOAT_EQ(delta(0, 1), 2.0f * 0.1875f);
}

TEST(Elementwise, BiasSigmoidEqualsUnfused) {
  Matrix a = random_matrix(9, 13, 6, -2.0f, 2.0f);
  Matrix b = a;
  Vector bias = random_vector(13, 7);
  add_row_broadcast(a, bias);
  sigmoid_inplace(a);
  bias_sigmoid(b, bias);
  EXPECT_TRUE(a.approx_equal(b));
}

TEST(Elementwise, OutputDeltaEqualsUnfused) {
  Matrix z = random_matrix(6, 5, 8, 0.05f, 0.95f);
  Matrix x = random_matrix(6, 5, 9, 0.0f, 1.0f);
  Matrix fused(6, 5), unfused(6, 5);
  output_delta(z, x, fused);
  sub(z, x, unfused);
  dsigmoid_mul_inplace(unfused, z);
  EXPECT_TRUE(fused.approx_equal(unfused));
}

TEST(Elementwise, SampleBernoulliDeterministic) {
  Matrix mean = random_matrix(8, 8, 13, 0.0f, 1.0f);
  Matrix s1(8, 8), s2(8, 8);
  util::Rng base(77);
  sample_bernoulli(mean, s1, base);
  sample_bernoulli(mean, s2, base);
  EXPECT_TRUE(s1.approx_equal(s2, 0.0f, 0.0f));
}

TEST(Elementwise, SampleBernoulliIsBinary) {
  Matrix mean = random_matrix(16, 16, 14, 0.0f, 1.0f);
  Matrix s(16, 16);
  sample_bernoulli(mean, s, util::Rng(5));
  for (Index i = 0; i < s.size(); ++i)
    EXPECT_TRUE(s.data()[i] == 0.0f || s.data()[i] == 1.0f);
}

TEST(Elementwise, SampleBernoulliFrequency) {
  Matrix mean = Matrix::constant(200, 50, 0.7f);
  Matrix s(200, 50);
  sample_bernoulli(mean, s, util::Rng(6));
  EXPECT_NEAR(sum(s) / s.size(), 0.7, 0.02);
}

TEST(Elementwise, ExtremeProbabilities) {
  Matrix mean(2, 2);
  mean(0, 0) = 0.0f;
  mean(0, 1) = 1.0f;
  mean(1, 0) = 0.0f;
  mean(1, 1) = 1.0f;
  Matrix s(2, 2);
  sample_bernoulli(mean, s, util::Rng(7));
  EXPECT_EQ(s(0, 0), 0.0f);
  EXPECT_EQ(s(0, 1), 1.0f);
}

TEST(Elementwise, BiasSigmoidSampleMatchesSeparate) {
  Matrix pre = random_matrix(10, 6, 15, -2.0f, 2.0f);
  Matrix pre2 = pre;
  Vector bias = random_vector(6, 16);
  Matrix sample1(10, 6), sample2(10, 6);
  util::Rng base(123);

  bias_sigmoid_sample(pre, bias, sample1, base);

  bias_sigmoid(pre2, bias);
  sample_bernoulli(pre2, sample2, base);

  EXPECT_TRUE(pre.approx_equal(pre2));
  EXPECT_TRUE(sample1.approx_equal(sample2, 0.0f, 0.0f));
}

// --- reductions ---

TEST(Reduce, ColSumAndMean) {
  Matrix m = Matrix::from_rows({{1, 2}, {3, 4}, {5, 6}});
  Vector out(2);
  col_sum(m, out);
  EXPECT_FLOAT_EQ(out[0], 9.0f);
  EXPECT_FLOAT_EQ(out[1], 12.0f);
  col_mean(m, out);
  EXPECT_FLOAT_EQ(out[0], 3.0f);
}

TEST(Reduce, SumAndSumSqDiff) {
  Matrix a = Matrix::from_rows({{1, 2}, {3, 4}});
  EXPECT_DOUBLE_EQ(sum(a), 10.0);
  Matrix b = Matrix::from_rows({{0, 2}, {3, 2}});
  EXPECT_DOUBLE_EQ(sum_sq_diff(a, b), 1.0 + 0.0 + 0.0 + 4.0);
}

TEST(Reduce, KlDivergenceZeroAtTarget) {
  Vector rho_hat = Vector::constant(5, 0.05f);
  EXPECT_NEAR(kl_divergence(0.05f, rho_hat), 0.0, 1e-9);
}

TEST(Reduce, KlDivergencePositiveOffTarget) {
  Vector rho_hat = Vector::constant(5, 0.5f);
  EXPECT_GT(kl_divergence(0.05f, rho_hat), 0.0);
}

TEST(Reduce, KlDivergenceClampsExtremes) {
  Vector rho_hat(3);
  rho_hat[0] = 0.0f;
  rho_hat[1] = 1.0f;
  rho_hat[2] = 0.05f;
  const double kl = kl_divergence(0.05f, rho_hat);
  EXPECT_TRUE(std::isfinite(kl));
}

TEST(Reduce, SparsityDeltaSignsAndZero) {
  Vector rho_hat(3);
  rho_hat[0] = 0.05f;  // at target -> 0
  rho_hat[1] = 0.5f;   // above target -> positive penalty derivative
  rho_hat[2] = 0.01f;  // below target -> negative
  Vector out(3);
  sparsity_delta(0.05f, 3.0f, rho_hat, out);
  EXPECT_NEAR(out[0], 0.0f, 1e-5f);
  EXPECT_GT(out[1], 0.0f);
  EXPECT_LT(out[2], 0.0f);
}

// --- GEMM vs naive oracle: parameterized sweep ---

struct GemmCase {
  Index m, n, k;
  Trans ta, tb;
  float alpha, beta;
};

class GemmSweep : public ::testing::TestWithParam<GemmCase> {};

TEST_P(GemmSweep, MatchesNaive) {
  const GemmCase& c = GetParam();
  const Index a_rows = c.ta == Trans::kNo ? c.m : c.k;
  const Index a_cols = c.ta == Trans::kNo ? c.k : c.m;
  const Index b_rows = c.tb == Trans::kNo ? c.k : c.n;
  const Index b_cols = c.tb == Trans::kNo ? c.n : c.k;
  Matrix a = random_matrix(a_rows, a_cols, 100 + c.m);
  Matrix b = random_matrix(b_rows, b_cols, 200 + c.n);
  Matrix c_opt = random_matrix(c.m, c.n, 300 + c.k);
  Matrix c_ref = c_opt;

  gemm(c.ta, c.tb, c.alpha, a, b, c.beta, c_opt);
  baseline::naive_gemm(c.ta, c.tb, c.alpha, a, b, c.beta, c_ref);

  EXPECT_TRUE(c_opt.approx_equal(c_ref, 5e-4f, 5e-5f))
      << "m=" << c.m << " n=" << c.n << " k=" << c.k;
}

INSTANTIATE_TEST_SUITE_P(
    Shapes, GemmSweep,
    ::testing::Values(
        GemmCase{1, 1, 1, Trans::kNo, Trans::kNo, 1.0f, 0.0f},
        GemmCase{3, 5, 7, Trans::kNo, Trans::kNo, 1.0f, 0.0f},
        GemmCase{4, 16, 8, Trans::kNo, Trans::kNo, 1.0f, 0.0f},
        GemmCase{5, 17, 9, Trans::kNo, Trans::kNo, 2.0f, 0.5f},
        GemmCase{64, 64, 64, Trans::kNo, Trans::kNo, 1.0f, 1.0f},
        GemmCase{130, 70, 33, Trans::kNo, Trans::kNo, -1.5f, 0.25f},
        GemmCase{37, 41, 300, Trans::kNo, Trans::kNo, 1.0f, 0.0f},
        GemmCase{3, 5, 7, Trans::kYes, Trans::kNo, 1.0f, 0.0f},
        GemmCase{64, 33, 17, Trans::kYes, Trans::kNo, 1.0f, 0.5f},
        GemmCase{129, 65, 40, Trans::kYes, Trans::kNo, 0.5f, 1.0f},
        GemmCase{3, 5, 7, Trans::kNo, Trans::kYes, 1.0f, 0.0f},
        GemmCase{64, 33, 17, Trans::kNo, Trans::kYes, 1.0f, 0.0f},
        GemmCase{129, 65, 40, Trans::kNo, Trans::kYes, 1.0f, 2.0f},
        GemmCase{20, 20, 20, Trans::kYes, Trans::kYes, 1.0f, 0.0f},
        GemmCase{63, 31, 15, Trans::kYes, Trans::kYes, -1.0f, 0.0f},
        GemmCase{200, 3, 129, Trans::kNo, Trans::kNo, 1.0f, 0.0f},
        GemmCase{2, 300, 5, Trans::kNo, Trans::kNo, 1.0f, 0.0f}));

class GemmBlockingSweep
    : public ::testing::TestWithParam<std::tuple<Index, Index, Index>> {};

TEST_P(GemmBlockingSweep, BlockingInvariant) {
  const auto [mc, kc, nc] = GetParam();
  GemmBlocking bl;
  bl.mc = mc;
  bl.kc = kc;
  bl.nc = nc;
  Matrix a = random_matrix(71, 90, 42);
  Matrix b = random_matrix(90, 53, 43);
  Matrix c_blocked(71, 53), c_ref(71, 53);
  gemm_blocked(Trans::kNo, Trans::kNo, 1.0f, a, b, 0.0f, c_blocked, bl);
  baseline::naive_gemm(Trans::kNo, Trans::kNo, 1.0f, a, b, 0.0f, c_ref);
  EXPECT_TRUE(c_blocked.approx_equal(c_ref, 5e-4f, 5e-5f))
      << "mc=" << mc << " kc=" << kc << " nc=" << nc;
}

INSTANTIATE_TEST_SUITE_P(Blockings, GemmBlockingSweep,
                         ::testing::Values(std::make_tuple(4, 8, 16),
                                           std::make_tuple(8, 300, 16),
                                           std::make_tuple(128, 256, 1024),
                                           std::make_tuple(16, 16, 16),
                                           std::make_tuple(1000, 1000, 1000),
                                           std::make_tuple(5, 7, 19)));

TEST(Gemm, ShapeMismatchThrows) {
  Matrix a(2, 3), b(4, 5), c(2, 5);
  EXPECT_THROW(gemm_nn(1.0f, a, b, 0.0f, c), util::Error);
}

TEST(Gemm, WrongCShapeThrows) {
  Matrix a(2, 3), b(3, 5), c(3, 5);
  EXPECT_THROW(gemm_nn(1.0f, a, b, 0.0f, c), util::Error);
}

TEST(Gemm, BetaZeroOverwritesGarbage) {
  Matrix a = Matrix::constant(2, 2, 1.0f);
  Matrix b = Matrix::constant(2, 2, 1.0f);
  Matrix c = Matrix::constant(2, 2, std::numeric_limits<float>::quiet_NaN());
  gemm_nn(1.0f, a, b, 0.0f, c);
  EXPECT_FLOAT_EQ(c(0, 0), 2.0f);
}

TEST(Gemm, AlphaZeroLeavesBetaScaledC) {
  Matrix a = random_matrix(3, 4, 50);
  Matrix b = random_matrix(4, 5, 51);
  Matrix c = Matrix::constant(3, 5, 2.0f);
  gemm_nn(0.0f, a, b, 0.5f, c);
  EXPECT_TRUE(c.approx_equal(Matrix::constant(3, 5, 1.0f)));
}

TEST(Gemm, EmptyInnerDimension) {
  Matrix a(3, 0), b(0, 4);
  Matrix c = Matrix::constant(3, 4, 7.0f);
  gemm_nn(1.0f, a, b, 0.0f, c);
  EXPECT_TRUE(c.approx_equal(Matrix(3, 4)));
}

TEST(Gemm, PaperShapedProduct) {
  // batch×visible · (hidden×visible)ᵀ — the forward product at small scale.
  const Index batch = 32, visible = 48, hidden = 24;
  Matrix x = random_matrix(batch, visible, 60, 0.0f, 1.0f);
  Matrix w = random_matrix(hidden, visible, 61);
  Matrix y_opt(batch, hidden), y_ref(batch, hidden);
  gemm_nt(1.0f, x, w, 0.0f, y_opt);
  baseline::naive_gemm(Trans::kNo, Trans::kYes, 1.0f, x, w, 0.0f, y_ref);
  EXPECT_TRUE(y_opt.approx_equal(y_ref, 5e-4f, 5e-5f));
}

// --- Fused epilogues ---

// Applies `op` to `c` with the unfused elementwise kernels — the reference
// the fused write-back must match.
void apply_epilogue_reference(EpilogueOp op, Matrix& c, const Vector& bias,
                              const Matrix& act) {
  switch (op) {
    case EpilogueOp::kNone:
      return;
    case EpilogueOp::kBiasAdd:
      add_row_broadcast(c, bias);
      return;
    case EpilogueOp::kBiasSigmoid:
      add_row_broadcast(c, bias);
      sigmoid_inplace(c);
      return;
    case EpilogueOp::kDsigmoidMul:
      dsigmoid_mul_inplace(c, act);
      return;
    case EpilogueOp::kBiasDsigmoidMul:
      add_row_broadcast(c, bias);
      dsigmoid_mul_inplace(c, act);
      return;
  }
}

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

const char* epilogue_name(EpilogueOp op) {
  switch (op) {
    case EpilogueOp::kNone: return "none";
    case EpilogueOp::kBiasAdd: return "bias_add";
    case EpilogueOp::kBiasSigmoid: return "bias_sigmoid";
    case EpilogueOp::kDsigmoidMul: return "dsigmoid_mul";
    case EpilogueOp::kBiasDsigmoidMul: return "bias_dsigmoid_mul";
  }
  return "?";
}

struct EpilogueCase {
  Index m, n, k;
  Trans ta, tb;
  float beta;
};

class GemmEpilogueSweep : public ::testing::TestWithParam<EpilogueCase> {};

// Every epilogue op must equal "unfused gemm, then the elementwise kernels"
// for every transpose combination, fringe-heavy shape, and beta.
TEST_P(GemmEpilogueSweep, MatchesUnfusedComposition) {
  const EpilogueCase& c = GetParam();
  const Index a_rows = c.ta == Trans::kNo ? c.m : c.k;
  const Index a_cols = c.ta == Trans::kNo ? c.k : c.m;
  const Index b_rows = c.tb == Trans::kNo ? c.k : c.n;
  const Index b_cols = c.tb == Trans::kNo ? c.n : c.k;
  Matrix a = random_matrix(a_rows, a_cols, 700 + c.m);
  Matrix b = random_matrix(b_rows, b_cols, 800 + c.n);
  Vector bias = random_vector(c.n, 900 + c.k);
  Matrix act = random_matrix(c.m, c.n, 950 + c.k, 0.05f, 0.95f);
  const Matrix c_init = random_matrix(c.m, c.n, 990 + c.m + c.n);

  for (EpilogueOp op :
       {EpilogueOp::kBiasAdd, EpilogueOp::kBiasSigmoid, EpilogueOp::kDsigmoidMul,
        EpilogueOp::kBiasDsigmoidMul}) {
    Matrix c_fused = c_init;
    Matrix c_ref = c_init;
    gemm(c.ta, c.tb, 1.0f, a, b, c.beta, c_fused, make_epilogue(op, bias, act));
    gemm(c.ta, c.tb, 1.0f, a, b, c.beta, c_ref);
    apply_epilogue_reference(op, c_ref, bias, act);
    EXPECT_TRUE(c_fused.approx_equal(c_ref, 5e-4f, 5e-5f))
        << epilogue_name(op) << " m=" << c.m << " n=" << c.n << " k=" << c.k
        << " beta=" << c.beta;
  }
}

INSTANTIATE_TEST_SUITE_P(
    Shapes, GemmEpilogueSweep,
    ::testing::Values(
        // All four transpose combinations at odd/prime shapes.
        EpilogueCase{3, 5, 7, Trans::kNo, Trans::kNo, 0.0f},
        EpilogueCase{37, 53, 29, Trans::kNo, Trans::kNo, 1.0f},
        EpilogueCase{31, 17, 41, Trans::kYes, Trans::kNo, 0.5f},
        EpilogueCase{23, 61, 13, Trans::kNo, Trans::kYes, 0.0f},
        EpilogueCase{19, 43, 11, Trans::kYes, Trans::kYes, 1.0f},
        // beta sweep on one fringe-heavy shape per trans combination.
        EpilogueCase{67, 33, 129, Trans::kNo, Trans::kNo, 0.5f},
        EpilogueCase{67, 33, 129, Trans::kNo, Trans::kYes, 1.0f},
        EpilogueCase{67, 33, 129, Trans::kYes, Trans::kNo, 0.0f},
        EpilogueCase{67, 33, 129, Trans::kYes, Trans::kYes, 0.5f},
        // Skinny shapes that exercise the 2-D tile split.
        EpilogueCase{5, 257, 19, Trans::kNo, Trans::kNo, 0.0f},
        EpilogueCase{257, 5, 19, Trans::kNo, Trans::kYes, 1.0f},
        // Micro-tile exact fit.
        EpilogueCase{4, 16, 8, Trans::kNo, Trans::kNo, 0.5f}));

// Regression: the 2-D tile-split heuristic used to spin forever when tile_m
// had collapsed to the MR floor while NR < tile_n < 2·NR and the grid was
// still smaller than the thread count — the tie-break kept picking tile_m,
// which could no longer shrink. Only reproducible with more threads than
// tiles, so the sweep runs under a raised thread count. The floor is each
// tier's own register tile, so the shapes come from every runnable tier's
// table, with that tier bound.
TEST(GemmBlocked, TileSplitTerminatesAtRegisterTileFloor) {
#ifdef _OPENMP
  const int saved_threads = omp_get_max_threads();
  omp_set_num_threads(16);
#endif
  for (int t = 0; t < simd::kNumTiers; ++t) {
    const auto tier = static_cast<simd::Tier>(t);
    if (!simd::force_tier(tier)) continue;
    const Index mr = simd::active().gemm_mr;
    const Index nr = simd::active().gemm_nr;
    const Index shapes[][3] = {
        {mr, nr + 4, 8},           // tile_m at floor, n in (NR, 2·NR): the hang
        {mr, nr + 1, 5},           // same, minimal fringe
        {8 * mr - 1, nr + 1, 41},  // sweep shape that hung at >8 threads
        {mr + 1, 2 * nr - 2, 19},  // m just above the floor
    };
    for (const auto& s : shapes) {
      Matrix a = random_matrix(s[0], s[2], 1000 + s[0]);
      Matrix b = random_matrix(s[2], s[1], 1100 + s[1]);
      Matrix c(s[0], s[1]);
      Matrix c_ref(s[0], s[1]);
      gemm_nn(1.0f, a, b, 0.0f, c);
      baseline::naive_gemm(Trans::kNo, Trans::kNo, 1.0f, a, b, 0.0f, c_ref);
      EXPECT_TRUE(c.approx_equal(c_ref, 5e-4f, 5e-5f))
          << simd::tier_name(tier) << " " << s[0] << "x" << s[1] << "x"
          << s[2];
    }
  }
  simd::reset_tier();
#ifdef _OPENMP
  omp_set_num_threads(saved_threads);
#endif
}

TEST(GemmEpilogue, AlphaZeroStillAppliesEpilogue) {
  // The degenerate path (no packing loop runs) must scale C and apply the
  // epilogue exactly like the main path would.
  Matrix a = random_matrix(6, 8, 400);
  Matrix b = random_matrix(8, 9, 401);
  Vector bias = random_vector(9, 402);
  Matrix c_fused = random_matrix(6, 9, 403);
  Matrix c_ref = c_fused;
  gemm_nn(0.0f, a, b, 0.5f, c_fused, GemmEpilogue::bias_sigmoid(bias));
  gemm_nn(0.0f, a, b, 0.5f, c_ref);
  apply_epilogue_reference(EpilogueOp::kBiasSigmoid, c_ref, bias, c_ref);
  EXPECT_TRUE(c_fused.approx_equal(c_ref, 5e-5f, 5e-6f));
}

TEST(GemmEpilogue, EmptyInnerDimensionStillAppliesEpilogue) {
  Matrix a(5, 0), b(0, 7);
  Vector bias = random_vector(7, 405);
  Matrix c = Matrix::constant(5, 7, 3.0f);
  gemm_nn(1.0f, a, b, 0.0f, c, GemmEpilogue::bias_add(bias));
  for (Index r = 0; r < 5; ++r)
    for (Index j = 0; j < 7; ++j) EXPECT_FLOAT_EQ(c(r, j), bias[j]);
}

TEST(GemmEpilogue, RejectsBadOperands) {
  Matrix a = random_matrix(4, 6, 410);
  Matrix b = random_matrix(6, 5, 411);
  Matrix c(4, 5);
  Vector wrong_bias = random_vector(4, 412);  // needs size n=5
  EXPECT_THROW(gemm_nn(1.0f, a, b, 0.0f, c, GemmEpilogue::bias_add(wrong_bias)),
               util::Error);
  Matrix wrong_act = random_matrix(4, 6, 413);  // needs shape of C
  EXPECT_THROW(
      gemm_nn(1.0f, a, b, 0.0f, c, GemmEpilogue::dsigmoid_mul(wrong_act)),
      util::Error);
  EXPECT_THROW(gemm_nn(1.0f, a, b, 0.0f, c, GemmEpilogue::dsigmoid_mul(c)),
               util::Error);  // act must not alias C
  // Nor share C's storage through a view: the ranges are compared, since a
  // view is a distinct object.
  const RowView c_itself(c, 0, 4);
  EXPECT_THROW(gemm_nn(1.0f, a, b, 0.0f, c,
                       GemmEpilogue::dsigmoid_mul(c_itself.matrix())),
               util::Error);
  const Matrix other = random_matrix(9, 5, 414);
  const RowView disjoint(other, 5, 4);
  EXPECT_NO_THROW(gemm_nn(1.0f, a, b, 0.0f, c,
                          GemmEpilogue::dsigmoid_mul(disjoint.matrix())));
}

// Fused epilogues and workspace reuse must not perturb bit-stability: the
// same call repeated (arena already warm) yields identical bits.
TEST(GemmEpilogue, FusedCallsAreBitwiseStable) {
  Matrix a = random_matrix(45, 97, 420);
  Matrix b = random_matrix(97, 71, 421);
  Vector bias = random_vector(71, 422);
  Matrix first(45, 71);
  gemm_nt(1.0f, a, random_matrix(71, 97, 423), 0.0f, first,
          GemmEpilogue::bias_sigmoid(bias));  // warm the arena
  Matrix w = random_matrix(71, 97, 424);
  Matrix c1(45, 71), c2(45, 71);
  gemm_nt(1.0f, a, w, 0.0f, c1, GemmEpilogue::bias_sigmoid(bias));
  gemm_nt(1.0f, a, w, 0.0f, c2, GemmEpilogue::bias_sigmoid(bias));
  EXPECT_TRUE(c1.approx_equal(c2, 0.0f, 0.0f));
}

// --- Persistent packing workspace ---

TEST(PackArena, SteadyStateGemmAllocatesNothing) {
  Matrix a = random_matrix(64, 80, 430);
  Matrix b = random_matrix(80, 48, 431);
  Matrix c(64, 48);
  gemm_nn(1.0f, a, b, 0.0f, c);  // warm-up sizes the per-thread arenas
  const std::uint64_t allocs = pack_arena_allocations();
  for (int rep = 0; rep < 5; ++rep) gemm_nn(1.0f, a, b, 0.0f, c);
  EXPECT_EQ(pack_arena_allocations(), allocs)
      << "gemm_blocked allocated in steady state";
}

TEST(PackArena, GrowsOnceForLargerShapes) {
  // A bigger product may grow the arena once; repeating it must not.
  Matrix a = random_matrix(96, 320, 432);
  Matrix b = random_matrix(320, 96, 433);
  Matrix c(96, 96);
  gemm_nn(1.0f, a, b, 0.0f, c);
  const std::uint64_t allocs = pack_arena_allocations();
  gemm_nn(1.0f, a, b, 0.0f, c);
  // Smaller shapes reuse the grown arena too.
  Matrix a2 = random_matrix(16, 24, 434);
  Matrix b2 = random_matrix(24, 16, 435);
  Matrix c2(16, 16);
  gemm_nn(1.0f, a2, b2, 0.0f, c2);
  EXPECT_EQ(pack_arena_allocations(), allocs);
}

}  // namespace
}  // namespace deepphi::la

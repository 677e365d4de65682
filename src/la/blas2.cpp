#include "la/blas2.hpp"

#include "phi/kernel_stats.hpp"

namespace deepphi::la {

namespace {
constexpr Index kParallelThreshold = 1 << 13;  // elements of A
}

void gemv(float alpha, const Matrix& a, const Vector& x, float beta, Vector& y) {
  DEEPPHI_CHECK_MSG(a.cols() == x.size() && a.rows() == y.size(),
                    "gemv shapes: A " << a.rows() << "x" << a.cols() << ", x "
                                      << x.size() << ", y " << y.size());
  phi::record(phi::loop_contribution(a.size(), 2.0, 1.0, 0.0));
  if (phi::dry_run()) return;
  const Index m = a.rows();
  const Index n = a.cols();
  const float* xp = x.data();
#pragma omp parallel for if (a.size() >= kParallelThreshold) schedule(static)
  for (Index r = 0; r < m; ++r) {
    const float* ar = a.row(r);
    float acc = 0.0f;
#pragma omp simd reduction(+ : acc)
    for (Index c = 0; c < n; ++c) acc += ar[c] * xp[c];
    y[r] = alpha * acc + beta * y[r];
  }
}

void gemv_t(float alpha, const Matrix& a, const Vector& x, float beta, Vector& y) {
  DEEPPHI_CHECK_MSG(a.rows() == x.size() && a.cols() == y.size(),
                    "gemv_t shapes: A " << a.rows() << "x" << a.cols() << ", x "
                                        << x.size() << ", y " << y.size());
  phi::record(phi::loop_contribution(a.size(), 2.0, 1.0, 0.0));
  if (phi::dry_run()) return;
  const Index m = a.rows();
  const Index n = a.cols();
  // Column-reduction written row-wise for streaming access: scale y, then
  // accumulate one row of A at a time.
  for (Index c = 0; c < n; ++c) y[c] *= beta;
  for (Index r = 0; r < m; ++r) {
    const float* ar = a.row(r);
    const float xv = alpha * x[r];
    float* yp = y.data();
#pragma omp simd
    for (Index c = 0; c < n; ++c) yp[c] += xv * ar[c];
  }
}

void ger(float alpha, const Vector& x, const Vector& y, Matrix& a) {
  DEEPPHI_CHECK_MSG(a.rows() == x.size() && a.cols() == y.size(),
                    "ger shapes: A " << a.rows() << "x" << a.cols() << ", x "
                                     << x.size() << ", y " << y.size());
  phi::record(phi::loop_contribution(a.size(), 2.0, 2.0, 1.0));
  if (phi::dry_run()) return;
  const Index m = a.rows();
  const Index n = a.cols();
  const float* yp = y.data();
#pragma omp parallel for if (a.size() >= kParallelThreshold) schedule(static)
  for (Index r = 0; r < m; ++r) {
    float* ar = a.row(r);
    const float xv = alpha * x[r];
#pragma omp simd
    for (Index c = 0; c < n; ++c) ar[c] += xv * yp[c];
  }
}

}  // namespace deepphi::la

#include "la/blas1.hpp"

#include <algorithm>
#include <cmath>

#include "la/simd/dispatch.hpp"
#include "phi/kernel_stats.hpp"

namespace deepphi::la {

namespace {
// Below this element count the OpenMP fork/join costs more than it saves.
constexpr Index kParallelThreshold = 1 << 15;

// Parallel grain of the dispatched axpy (elementwise, so any split is
// result-identical).
constexpr Index kAxpyChunk = 1 << 14;

void axpy_raw(float alpha, const float* x, float* y, Index n) {
  const simd::KernelTable& tab = simd::active();
  const Index chunks = (n + kAxpyChunk - 1) / kAxpyChunk;
#pragma omp parallel for if (n >= kParallelThreshold) schedule(static)
  for (Index c = 0; c < chunks; ++c) {
    const Index b = c * kAxpyChunk;
    tab.axpy(alpha, x + b, y + b, std::min(kAxpyChunk, n - b));
  }
}

void scal_raw(float alpha, float* x, Index n) {
#pragma omp parallel for simd if (n >= kParallelThreshold) schedule(static)
  for (Index i = 0; i < n; ++i) x[i] *= alpha;
}

// Each chunk is reduced by the dispatched 8-lane dot8 — bit-identical on
// every tier — so together with ordered_sum the result is the same for any
// thread count and any DEEPPHI_ISA tier.
double dot_raw(const float* x, const float* y, Index n) {
  const simd::KernelTable& tab = simd::active();
  return ordered_sum(n, [&](Index b, Index len) {
    return tab.dot8(x + b, y + b, len);
  });
}
}  // namespace

void axpy(float alpha, const Vector& x, Vector& y) {
  DEEPPHI_CHECK_MSG(x.size() == y.size(), "axpy size mismatch");
  phi::record(phi::loop_contribution(x.size(), 2.0, 2.0, 1.0));
  if (phi::dry_run()) return;
  axpy_raw(alpha, x.data(), y.data(), x.size());
}

void axpy(float alpha, const Matrix& a, Matrix& b) {
  DEEPPHI_CHECK_MSG(a.rows() == b.rows() && a.cols() == b.cols(), "axpy shape mismatch");
  phi::record(phi::loop_contribution(a.size(), 2.0, 2.0, 1.0));
  if (phi::dry_run()) return;
  axpy_raw(alpha, a.data(), b.data(), a.size());
}

void scal(float alpha, Vector& x) {
  phi::record(phi::loop_contribution(x.size(), 1.0, 1.0, 1.0));
  if (phi::dry_run()) return;
  scal_raw(alpha, x.data(), x.size());
}

void scal(float alpha, Matrix& a) {
  phi::record(phi::loop_contribution(a.size(), 1.0, 1.0, 1.0));
  if (phi::dry_run()) return;
  scal_raw(alpha, a.data(), a.size());
}

double dot(const Vector& x, const Vector& y) {
  DEEPPHI_CHECK_MSG(x.size() == y.size(), "dot size mismatch");
  phi::record(phi::loop_contribution(x.size(), 2.0, 2.0, 0.0));
  if (phi::dry_run()) return 0.0;
  return dot_raw(x.data(), y.data(), x.size());
}

double dot(const Matrix& a, const Matrix& b) {
  DEEPPHI_CHECK_MSG(a.rows() == b.rows() && a.cols() == b.cols(), "dot shape mismatch");
  phi::record(phi::loop_contribution(a.size(), 2.0, 2.0, 0.0));
  if (phi::dry_run()) return 0.0;
  return dot_raw(a.data(), b.data(), a.size());
}

double nrm2sq(const Vector& x) {
  phi::record(phi::loop_contribution(x.size(), 2.0, 1.0, 0.0));
  if (phi::dry_run()) return 0.0;
  return dot_raw(x.data(), x.data(), x.size());
}

double nrm2sq(const Matrix& a) {
  phi::record(phi::loop_contribution(a.size(), 2.0, 1.0, 0.0));
  if (phi::dry_run()) return 0.0;
  return dot_raw(a.data(), a.data(), a.size());
}

double asum(const Vector& x) {
  phi::record(phi::loop_contribution(x.size(), 1.0, 1.0, 0.0));
  if (phi::dry_run()) return 0.0;
  const float* p = x.data();
  return ordered_sum(x.size(), [p](Index b, Index len) {
    double acc = 0.0;
    for (Index i = b; i < b + len; ++i)
      acc += std::fabs(static_cast<double>(p[i]));
    return acc;
  });
}

}  // namespace deepphi::la

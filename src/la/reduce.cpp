#include "la/reduce.hpp"

#include <algorithm>
#include <cmath>
#include <vector>

#include "la/blas1.hpp"
#include "phi/kernel_stats.hpp"

namespace deepphi::la {

namespace {
constexpr Index kParallelThreshold = 1 << 15;

float clampf(float v, float lo, float hi) { return std::min(std::max(v, lo), hi); }
}  // namespace

void col_sum(const Matrix& m, Vector& out) {
  DEEPPHI_CHECK_MSG(out.size() == m.cols(), "col_sum out size " << out.size()
                                                                << " != cols "
                                                                << m.cols());
  phi::record(phi::loop_contribution(m.size(), 1.0, 1.0, 0.0));
  if (phi::dry_run()) return;
  const Index rows = m.rows();
  const Index cols = m.cols();
  std::vector<double> acc(static_cast<std::size_t>(cols), 0.0);
  // Row-major streaming accumulation; cols is small relative to rows in all
  // training uses, so a single accumulator array stays in cache.
  for (Index r = 0; r < rows; ++r) {
    const float* row = m.row(r);
    for (Index c = 0; c < cols; ++c) acc[static_cast<std::size_t>(c)] += row[c];
  }
  for (Index c = 0; c < cols; ++c)
    out[c] = static_cast<float>(acc[static_cast<std::size_t>(c)]);
}

void col_mean(const Matrix& m, Vector& out) {
  DEEPPHI_CHECK_MSG(m.rows() > 0, "col_mean of empty matrix");
  col_sum(m, out);
  if (phi::dry_run()) return;
  const float inv = 1.0f / static_cast<float>(m.rows());
  for (Index c = 0; c < out.size(); ++c) out[c] *= inv;
}

void row_sum(const Matrix& m, Vector& out) {
  DEEPPHI_CHECK_MSG(out.size() == m.rows(), "row_sum out size " << out.size()
                                                                << " != rows "
                                                                << m.rows());
  phi::record(phi::loop_contribution(m.size(), 1.0, 1.0, 0.0));
  if (phi::dry_run()) return;
  const Index rows = m.rows();
  const Index cols = m.cols();
#pragma omp parallel for if (m.size() >= kParallelThreshold) schedule(static)
  for (Index r = 0; r < rows; ++r) {
    const float* row = m.row(r);
    double acc = 0.0;
#pragma omp simd reduction(+ : acc)
    for (Index c = 0; c < cols; ++c) acc += row[c];
    out[r] = static_cast<float>(acc);
  }
}

double sum(const Matrix& m) {
  phi::record(phi::loop_contribution(m.size(), 1.0, 1.0, 0.0));
  if (phi::dry_run()) return 0.0;
  const float* p = m.data();
  return ordered_sum(m.size(), [p](Index b, Index len) {
    double acc = 0.0;
    for (Index i = b; i < b + len; ++i) acc += p[i];
    return acc;
  });
}

double sum_sq_diff(const Matrix& a, const Matrix& b) {
  DEEPPHI_CHECK_MSG(a.rows() == b.rows() && a.cols() == b.cols(),
                    "sum_sq_diff shape mismatch");
  phi::record(phi::loop_contribution(a.size(), 3.0, 2.0, 0.0));
  if (phi::dry_run()) return 0.0;
  const float* ap = a.data();
  const float* bp = b.data();
  return ordered_sum(a.size(), [ap, bp](Index begin, Index len) {
    double acc = 0.0;
    for (Index i = begin; i < begin + len; ++i) {
      const double d = static_cast<double>(ap[i]) - bp[i];
      acc += d * d;
    }
    return acc;
  });
}

double kl_divergence(float rho, const Vector& rho_hat, float eps) {
  phi::record(phi::loop_contribution(rho_hat.size(), 12.0, 1.0, 0.0));
  if (phi::dry_run()) return 0.0;
  double acc = 0.0;
  for (Index j = 0; j < rho_hat.size(); ++j) {
    const double q = clampf(rho_hat[j], eps, 1.0f - eps);
    acc += rho * std::log(rho / q) + (1.0 - rho) * std::log((1.0 - rho) / (1.0 - q));
  }
  return acc;
}

void sparsity_delta(float rho, float beta, const Vector& rho_hat, Vector& out,
                    float eps) {
  DEEPPHI_CHECK_MSG(out.size() == rho_hat.size(), "sparsity_delta size mismatch");
  phi::record(phi::loop_contribution(rho_hat.size(), 6.0, 1.0, 1.0));
  if (phi::dry_run()) return;
  for (Index j = 0; j < rho_hat.size(); ++j) {
    const float q = clampf(rho_hat[j], eps, 1.0f - eps);
    out[j] = beta * (-rho / q + (1.0f - rho) / (1.0f - q));
  }
}

}  // namespace deepphi::la

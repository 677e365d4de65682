#include "la/reduce.hpp"

#include <algorithm>
#include <cmath>

#include "la/blas1.hpp"
#include "la/simd/dispatch.hpp"
#include "phi/kernel_stats.hpp"

namespace deepphi::la {

namespace {
// col_sum splits its columns into blocks of this many (a multiple of every
// tier's register block) and spreads them over the team from
// kColSumParallelThreshold elements, where the fork/join pays for itself
// (bench_micro_kernels BM_ColSum).
constexpr Index kColSumBlock = 64;
constexpr Index kColSumParallelThreshold = 1 << 15;

float clampf(float v, float lo, float hi) { return std::min(std::max(v, lo), hi); }
}  // namespace

void col_sum(const Matrix& m, Vector& out) {
  DEEPPHI_CHECK_MSG(out.size() == m.cols(), "col_sum out size " << out.size()
                                                                << " != cols "
                                                                << m.cols());
  phi::record(phi::loop_contribution(m.size(), 1.0, 1.0, 0.0));
  if (phi::dry_run()) return;
  const simd::KernelTable& tab = simd::active();
  const Index rows = m.rows();
  const Index cols = m.cols();
  const Index blocks = (cols + kColSumBlock - 1) / kColSumBlock;
  // Each column is summed whole by one thread, in row order, so the split
  // never changes a bit.
#pragma omp parallel for if (m.size() >= kColSumParallelThreshold && \
                                 blocks > 1) schedule(static)
  for (Index b = 0; b < blocks; ++b) {
    const Index c0 = b * kColSumBlock;
    tab.col_sum(m.data() + c0, cols, rows, std::min(kColSumBlock, cols - c0),
                out.data() + c0);
  }
}

void col_mean(const Matrix& m, Vector& out) {
  DEEPPHI_CHECK_MSG(m.rows() > 0, "col_mean of empty matrix");
  col_sum(m, out);
  if (phi::dry_run()) return;
  const float inv = 1.0f / static_cast<float>(m.rows());
  for (Index c = 0; c < out.size(); ++c) out[c] *= inv;
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
  // Each chunk folds in the dispatched kernel's 8 double lanes — the same
  // bits on every tier — and ordered_sum fixes the chunks, so the result is
  // the same for any thread count and any DEEPPHI_ISA tier.
  const auto sq_diff8 = simd::active().sq_diff8;
  const float* ap = a.data();
  const float* bp = b.data();
  return ordered_sum(a.size(), [=](Index begin, Index len) {
    return sq_diff8(ap + begin, bp + begin, len);
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

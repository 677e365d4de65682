#include "core/rbm_loops.hpp"

#include <cmath>

#include "la/simd/vec_ops.hpp"
#include "phi/kernel_stats.hpp"
#include "util/error.hpp"

namespace deepphi::core {

namespace {

using la::Index;
using la::Matrix;
using la::Vector;

// The shared library-wide sigmoid: bitwise identical to the dispatched
// vector kernels, so loop-form and matrix-form Bernoulli draws (u < mean)
// can never disagree by a flipped sample.
using la::simd::sigmoid_scalar;

// out(B×h) = v(B×n) · wᵀ(h×n): the hidden pre-activation product.
void matmul_nt(const Matrix& a, const Matrix& b, Matrix& out, bool parallel) {
  phi::record(phi::naive_gemm_contribution(a.rows(), b.rows(), a.cols()));
  if (phi::dry_run()) return;
  const Index rows = a.rows(), cols = b.rows(), k = a.cols();
#pragma omp parallel for if (parallel) schedule(static)
  for (Index r = 0; r < rows; ++r) {
    const float* ar = a.row(r);
    float* or_ = out.row(r);
    for (Index c = 0; c < cols; ++c) {
      const float* br = b.row(c);
      float acc = 0.0f;
      for (Index p = 0; p < k; ++p) acc += ar[p] * br[p];
      or_[c] = acc;
    }
  }
}

// out(B×n) = h(B×m) · w(m×n): the visible pre-activation product.
void matmul_nn(const Matrix& a, const Matrix& b, Matrix& out, bool parallel) {
  phi::record(phi::naive_gemm_contribution(a.rows(), b.cols(), a.cols()));
  if (phi::dry_run()) return;
  const Index rows = a.rows(), cols = b.cols(), k = a.cols();
#pragma omp parallel for if (parallel) schedule(static)
  for (Index r = 0; r < rows; ++r) {
    const float* ar = a.row(r);
    float* or_ = out.row(r);
    for (Index c = 0; c < cols; ++c) or_[c] = 0.0f;
    for (Index p = 0; p < k; ++p) {
      const float av = ar[p];
      const float* bp = b.row(p);
      for (Index c = 0; c < cols; ++c) or_[c] += av * bp[c];
    }
  }
}

// out(m×n) = scale_a · aᵀ(B×m)·b(B×n) added into out pre-scaled by
// `scale_out` (the two-phase statistics accumulation).
void matmul_tn_acc(const Matrix& a, const Matrix& b, float scale_a,
                   float scale_out, Matrix& out, bool parallel) {
  phi::record(phi::naive_gemm_contribution(a.cols(), b.cols(), a.rows()));
  if (phi::dry_run()) return;
  const Index m = a.cols(), n = b.cols(), batch = a.rows();
#pragma omp parallel for if (parallel) schedule(static)
  for (Index r = 0; r < m; ++r) {
    float* or_ = out.row(r);
    for (Index c = 0; c < n; ++c) or_[c] *= scale_out;
    for (Index p = 0; p < batch; ++p) {
      const float av = scale_a * a(p, r);
      const float* bp = b.row(p);
      for (Index c = 0; c < n; ++c) or_[c] += av * bp[c];
    }
  }
}

void add_bias_loop(Matrix& m, const Vector& bias, bool parallel) {
  phi::record(phi::naive_loop_contribution(m.size(), 1.0, 1.0, 1.0));
  if (phi::dry_run()) return;
  const Index rows = m.rows(), cols = m.cols();
#pragma omp parallel for if (parallel) schedule(static)
  for (Index r = 0; r < rows; ++r) {
    float* row = m.row(r);
    for (Index c = 0; c < cols; ++c) row[c] += bias[c];
  }
}

void sigmoid_loop(Matrix& m, bool parallel) {
  phi::record(phi::naive_loop_contribution(m.size(), 400.0, 1.0, 1.0));
  if (phi::dry_run()) return;
  float* p = m.data();
  const Index n = m.size();
#pragma omp parallel for if (parallel) schedule(static)
  for (Index i = 0; i < n; ++i) p[i] = sigmoid_scalar(p[i]);
}

// Per-row substreams (base.split(r)) — the same convention as
// la::sample_bernoulli, so loop-form and matrix-form draws coincide.
void sample_loop(const Matrix& mean, Matrix& out, const util::Rng& base,
                 bool parallel) {
  phi::record(phi::naive_loop_contribution(mean.size(), 100.0, 1.0, 1.0));
  if (phi::dry_run()) return;
  const Index rows = mean.rows(), cols = mean.cols();
#pragma omp parallel for if (parallel) schedule(static)
  for (Index r = 0; r < rows; ++r) {
    util::Rng rng = base.split(static_cast<std::uint64_t>(r));
    const float* mp = mean.row(r);
    float* op = out.row(r);
    for (Index c = 0; c < cols; ++c)
      op[c] = rng.uniform_float() < mp[c] ? 1.0f : 0.0f;
  }
}

// out[c] = scale · (Σ_r pos(r,c) − Σ_r neg(r,c)) — but loop-form mirrors the
// optimized path's two col_sums + axpy as three separate loops.
void col_sum_loop(const Matrix& m, Vector& out, bool parallel) {
  phi::record(phi::naive_loop_contribution(m.size(), 1.0, 1.0, 0.0));
  if (phi::dry_run()) return;
  const Index rows = m.rows(), cols = m.cols();
#pragma omp parallel for if (parallel) schedule(static)
  for (Index c = 0; c < cols; ++c) {
    double acc = 0.0;
    for (Index r = 0; r < rows; ++r) acc += m(r, c);
    out[c] = static_cast<float>(acc);
  }
}

void diff_scale_loop(const Vector& pos, Vector& neg_into_out, float scale,
                     bool parallel) {
  phi::record(phi::naive_loop_contribution(pos.size(), 2.0, 2.0, 1.0));
  if (phi::dry_run()) return;
  const Index n = pos.size();
#pragma omp parallel for if (parallel) schedule(static)
  for (Index i = 0; i < n; ++i)
    neg_into_out[i] = (neg_into_out[i] - pos[i]) * scale;
}

double sum_sq_diff_loop(const Matrix& a, const Matrix& b, bool parallel) {
  phi::record(phi::naive_loop_contribution(a.size(), 3.0, 2.0, 0.0));
  if (phi::dry_run()) return 0.0;
  const Index n = a.size();
  const float* ap = a.data();
  const float* bp = b.data();
  double acc = 0.0;
#pragma omp parallel for if (parallel) schedule(static) reduction(+ : acc)
  for (Index i = 0; i < n; ++i) {
    const double d = static_cast<double>(ap[i]) - bp[i];
    acc += d * d;
  }
  return acc;
}

void axpy_loop(float alpha, const Matrix& a, Matrix& b, bool parallel) {
  phi::record(phi::naive_loop_contribution(a.size(), 2.0, 2.0, 1.0));
  if (phi::dry_run()) return;
  const Index n = a.size();
  const float* ap = a.data();
  float* bp = b.data();
#pragma omp parallel for if (parallel) schedule(static)
  for (Index i = 0; i < n; ++i) bp[i] += alpha * ap[i];
}

void axpy_loop(float alpha, const Vector& a, Vector& b, bool parallel) {
  phi::record(phi::naive_loop_contribution(a.size(), 2.0, 2.0, 1.0));
  if (phi::dry_run()) return;
  const Index n = a.size();
  const float* ap = a.data();
  float* bp = b.data();
#pragma omp parallel for if (parallel) schedule(static)
  for (Index i = 0; i < n; ++i) bp[i] += alpha * ap[i];
}

}  // namespace

double rbm_gradient_loops(const Rbm& model, const la::Matrix& v1,
                          Rbm::Workspace& ws, RbmGradients& grads,
                          const util::Rng& rng, bool parallel) {
  const RbmConfig& cfg = model.config();
  DEEPPHI_CHECK_MSG(cfg.visible_type == VisibleType::kBernoulli,
                    "the loop-form (Baseline/OpenMP) RBM step models the "
                    "paper's binary RBM only");
  DEEPPHI_CHECK_MSG(v1.cols() == cfg.visible,
                    "input dim " << v1.cols() << " != visible " << cfg.visible);
  ws.ensure(v1.rows(), cfg.visible, cfg.hidden);
  grads.ensure(cfg.visible, cfg.hidden);
  const Index m = v1.rows();
  const float inv_m = 1.0f / static_cast<float>(m);

  // Positive phase.
  matmul_nt(v1, model.w(), ws.h1_mean, parallel);
  add_bias_loop(ws.h1_mean, model.c(), parallel);
  sigmoid_loop(ws.h1_mean, parallel);
  sample_loop(ws.h1_mean, ws.h1_sample, rng.split(0), parallel);

  // Gibbs chain.
  for (int step = 0; step < cfg.cd_k; ++step) {
    matmul_nn(ws.h1_sample, model.w(), ws.v2, parallel);
    add_bias_loop(ws.v2, model.b(), parallel);
    sigmoid_loop(ws.v2, parallel);
    if (cfg.sample_visible)
      sample_loop(ws.v2, ws.v2, rng.split(100 + step), parallel);

    matmul_nt(ws.v2, model.w(), ws.h2_mean, parallel);
    add_bias_loop(ws.h2_mean, model.c(), parallel);
    sigmoid_loop(ws.h2_mean, parallel);
    if (step + 1 < cfg.cd_k)
      sample_loop(ws.h2_mean, ws.h1_sample, rng.split(200 + step), parallel);
  }

  // Descent gradient: g_w = (h2ᵀv2 − h1ᵀv1)/m.
  matmul_tn_acc(ws.h1_mean, v1, -inv_m, 0.0f, grads.g_w, parallel);
  matmul_tn_acc(ws.h2_mean, ws.v2, inv_m, 1.0f, grads.g_w, parallel);

  col_sum_loop(v1, grads.g_b, parallel);
  col_sum_loop(ws.v2, ws.tmp_v, parallel);
  {
    // g_b = (Σv2 − Σv1)/m, written as the same diff-scale loop shape the
    // optimized path uses.
    diff_scale_loop(grads.g_b, ws.tmp_v, inv_m, parallel);
    grads.g_b.copy_from(ws.tmp_v);
  }

  col_sum_loop(ws.h1_mean, grads.g_c, parallel);
  col_sum_loop(ws.h2_mean, ws.tmp_h, parallel);
  {
    diff_scale_loop(grads.g_c, ws.tmp_h, inv_m, parallel);
    grads.g_c.copy_from(ws.tmp_h);
  }

  return sum_sq_diff_loop(v1, ws.v2, parallel) / static_cast<double>(m);
}

void rbm_apply_update_loops(Rbm& model, const RbmGradients& grads, float lr,
                            bool parallel) {
  axpy_loop(-lr, grads.g_w, model.w(), parallel);
  axpy_loop(-lr, grads.g_b, model.b(), parallel);
  axpy_loop(-lr, grads.g_c, model.c(), parallel);
}

}  // namespace deepphi::core

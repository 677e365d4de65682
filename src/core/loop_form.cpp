#include "core/loop_form.hpp"

#include <cmath>

#include "la/blas1.hpp"
#include "la/simd/vec_ops.hpp"
#include "phi/kernel_stats.hpp"
#include "util/error.hpp"

namespace deepphi::core {

namespace {

using la::Index;
using la::Matrix;
using la::Vector;

// The shared library-wide sigmoid: bitwise identical to the dispatched
// vector kernels, so loop-form and matrix-form activations — and the RBM's
// Bernoulli draws (u < mean) — can never disagree.
using la::simd::sigmoid_scalar;

// --- kernels both models use ---

// out(B×n) = a(B×k) · bᵀ(n×k) — naive triple loop over the row-major
// operands (the SAE's x·W1ᵀ, y·W2ᵀ; the RBM's hidden pre-activation v·Wᵀ).
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

// out(B×n) = a(B×m) · b(m×n) — the SAE's back-propagation product delta2·W2;
// the RBM's visible pre-activation h·W.
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

// out[c] = scale · Σ_r m(r, c): the SAE's column means (scale 1/rows) and
// bias gradients, the RBM's raw column sums (scale 1).
void col_sum_loop(const Matrix& m, float scale, Vector& out, bool parallel) {
  phi::record(phi::naive_loop_contribution(m.size(), 1.0, 1.0, 0.0));
  if (phi::dry_run()) return;
  const Index rows = m.rows(), cols = m.cols();
#pragma omp parallel for if (parallel) schedule(static)
  for (Index c = 0; c < cols; ++c) {
    double acc = 0.0;
    for (Index r = 0; r < rows; ++r) acc += m(r, c);
    out[c] = static_cast<float>(acc) * scale;
  }
}

// Σ (a − b)², combined in la::ordered_sum's fixed chunk order.
double sum_sq_diff_loop(const Matrix& a, const Matrix& b, bool parallel) {
  phi::record(phi::naive_loop_contribution(a.size(), 3.0, 2.0, 0.0));
  if (phi::dry_run()) return 0.0;
  const float* ap = a.data();
  const float* bp = b.data();
  return la::ordered_sum(
      a.size(),
      [ap, bp](Index begin, Index len) {
        double acc = 0.0;
        for (Index i = begin; i < begin + len; ++i) {
          const double d = static_cast<double>(ap[i]) - bp[i];
          acc += d * d;
        }
        return acc;
      },
      parallel);
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

// --- Sparse Autoencoder only ---

// out(m×n) = scale · aᵀ(B×m) · b(B×n) — the gradient products delta2ᵀ·y,
// backᵀ·x.
void matmul_tn(const Matrix& a, const Matrix& b, float scale, Matrix& out,
               bool parallel) {
  phi::record(phi::naive_gemm_contribution(a.cols(), b.cols(), a.rows()));
  if (phi::dry_run()) return;
  const Index m = a.cols(), n = b.cols(), batch = a.rows();
#pragma omp parallel for if (parallel) schedule(static)
  for (Index r = 0; r < m; ++r) {
    float* or_ = out.row(r);
    for (Index c = 0; c < n; ++c) or_[c] = 0.0f;
    for (Index p = 0; p < batch; ++p) {
      const float av = a(p, r);
      const float* bp = b.row(p);
      for (Index c = 0; c < n; ++c) or_[c] += av * bp[c];
    }
    for (Index c = 0; c < n; ++c) or_[c] *= scale;
  }
}

// ‖m‖², combined in la::ordered_sum's fixed chunk order.
double nrm2sq_loop(const Matrix& m, bool parallel) {
  phi::record(phi::naive_loop_contribution(m.size(), 2.0, 1.0, 0.0));
  if (phi::dry_run()) return 0.0;
  const float* p = m.data();
  return la::ordered_sum(
      m.size(),
      [p](Index begin, Index len) {
        double acc = 0.0;
        for (Index i = begin; i < begin + len; ++i)
          acc += static_cast<double>(p[i]) * p[i];
        return acc;
      },
      parallel);
}

double kl_loop(float rho, const Vector& rho_hat) {
  phi::record(phi::naive_loop_contribution(rho_hat.size(), 12.0, 1.0, 0.0));
  if (phi::dry_run()) return 0.0;
  double acc = 0.0;
  for (Index j = 0; j < rho_hat.size(); ++j) {
    const double q = std::min(std::max(static_cast<double>(rho_hat[j]), 1e-6),
                              1.0 - 1e-6);
    acc += rho * std::log(rho / q) + (1.0 - rho) * std::log((1.0 - rho) / (1.0 - q));
  }
  return acc;
}

void sub_loop(const Matrix& a, const Matrix& b, Matrix& out, bool parallel) {
  phi::record(phi::naive_loop_contribution(a.size(), 1.0, 2.0, 1.0));
  if (phi::dry_run()) return;
  const Index n = a.size();
  const float* ap = a.data();
  const float* bp = b.data();
  float* op = out.data();
#pragma omp parallel for if (parallel) schedule(static)
  for (Index i = 0; i < n; ++i) op[i] = ap[i] - bp[i];
}

void dsigmoid_mul_loop(Matrix& delta, const Matrix& act, bool parallel) {
  phi::record(phi::naive_loop_contribution(delta.size(), 3.0, 2.0, 1.0));
  if (phi::dry_run()) return;
  const Index n = delta.size();
  float* dp = delta.data();
  const float* yp = act.data();
#pragma omp parallel for if (parallel) schedule(static)
  for (Index i = 0; i < n; ++i) dp[i] *= yp[i] * (1.0f - yp[i]);
}

void sparsity_loop(float rho, float beta, const Vector& rho_hat, Vector& out) {
  phi::record(phi::naive_loop_contribution(rho_hat.size(), 6.0, 1.0, 1.0));
  if (phi::dry_run()) return;
  for (Index j = 0; j < rho_hat.size(); ++j) {
    const float q =
        std::min(std::max(rho_hat[j], 1e-6f), 1.0f - 1e-6f);
    out[j] = beta * (-rho / q + (1.0f - rho) / (1.0f - q));
  }
}

void add_bias_then_dsigmoid_loops(Matrix& back, const Vector& sparse,
                                  const Matrix& y, bool parallel) {
  // Two distinct loops (two launches), mirroring the unfused granularity.
  add_bias_loop(back, sparse, parallel);
  dsigmoid_mul_loop(back, y, parallel);
}

// --- RBM only ---

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

void diff_scale_loop(const Vector& pos, Vector& neg_into_out, float scale,
                     bool parallel) {
  phi::record(phi::naive_loop_contribution(pos.size(), 2.0, 2.0, 1.0));
  if (phi::dry_run()) return;
  const Index n = pos.size();
#pragma omp parallel for if (parallel) schedule(static)
  for (Index i = 0; i < n; ++i)
    neg_into_out[i] = (neg_into_out[i] - pos[i]) * scale;
}

}  // namespace

double sae_gradient_loops(const SparseAutoencoder& model, const la::Matrix& x,
                          SparseAutoencoder::Workspace& ws, AeGradients& grads,
                          bool parallel) {
  const SaeConfig& cfg = model.config();
  DEEPPHI_CHECK_MSG(!cfg.tied_weights,
                    "the loop-form (Baseline/OpenMP) step models the paper's "
                    "untied autoencoder only");
  DEEPPHI_CHECK_MSG(x.cols() == cfg.visible,
                    "input dim " << x.cols() << " != visible " << cfg.visible);
  ws.ensure(x.rows(), cfg.visible, cfg.hidden);
  grads.ensure(cfg.visible, cfg.hidden);
  const Index m = x.rows();
  const float inv_m = 1.0f / static_cast<float>(m);

  // Forward.
  matmul_nt(x, model.w1(), ws.y, parallel);
  add_bias_loop(ws.y, model.b1(), parallel);
  sigmoid_loop(ws.y, parallel);
  matmul_nt(ws.y, model.w2(), ws.z, parallel);
  add_bias_loop(ws.z, model.b2(), parallel);
  sigmoid_loop(ws.z, parallel);

  // Cost.
  col_sum_loop(ws.y, inv_m, ws.rho_hat, parallel);
  const double cost =
      sum_sq_diff_loop(ws.z, x, parallel) / (2.0 * m) +
      0.5 * cfg.lambda *
          (nrm2sq_loop(model.w1(), parallel) + nrm2sq_loop(model.w2(), parallel)) +
      cfg.beta * kl_loop(cfg.rho, ws.rho_hat);

  // Output layer.
  sub_loop(ws.z, x, ws.delta2, parallel);
  dsigmoid_mul_loop(ws.delta2, ws.z, parallel);
  matmul_tn(ws.delta2, ws.y, inv_m, grads.g_w2, parallel);
  axpy_loop(cfg.lambda, model.w2(), grads.g_w2, parallel);
  col_sum_loop(ws.delta2, inv_m, grads.g_b2, parallel);

  // Hidden layer.
  matmul_nn(ws.delta2, model.w2(), ws.back, parallel);
  sparsity_loop(cfg.rho, cfg.beta, ws.rho_hat, ws.sparse);
  add_bias_then_dsigmoid_loops(ws.back, ws.sparse, ws.y, parallel);
  matmul_tn(ws.back, x, inv_m, grads.g_w1, parallel);
  axpy_loop(cfg.lambda, model.w1(), grads.g_w1, parallel);
  col_sum_loop(ws.back, inv_m, grads.g_b1, parallel);

  return cost;
}

void sae_apply_update_loops(SparseAutoencoder& model, const AeGradients& grads,
                            float lr, bool parallel) {
  axpy_loop(-lr, grads.g_w1, model.w1(), parallel);
  axpy_loop(-lr, grads.g_b1, model.b1(), parallel);
  axpy_loop(-lr, grads.g_w2, model.w2(), parallel);
  axpy_loop(-lr, grads.g_b2, model.b2(), parallel);
}

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

  // g_b = (Σv2 − Σv1)/m and g_c likewise: the optimized path's two col_sums
  // and diff-scale, as three separate loops.
  col_sum_loop(v1, 1.0f, grads.g_b, parallel);
  col_sum_loop(ws.v2, 1.0f, ws.tmp_v, parallel);
  diff_scale_loop(grads.g_b, ws.tmp_v, inv_m, parallel);
  grads.g_b.copy_from(ws.tmp_v);

  col_sum_loop(ws.h1_mean, 1.0f, grads.g_c, parallel);
  col_sum_loop(ws.h2_mean, 1.0f, ws.tmp_h, parallel);
  diff_scale_loop(grads.g_c, ws.tmp_h, inv_m, parallel);
  grads.g_c.copy_from(ws.tmp_h);

  return sum_sq_diff_loop(v1, ws.v2, parallel) / static_cast<double>(m);
}

void rbm_apply_update_loops(Rbm& model, const RbmGradients& grads, float lr,
                            bool parallel) {
  axpy_loop(-lr, grads.g_w, model.w(), parallel);
  axpy_loop(-lr, grads.g_b, model.b(), parallel);
  axpy_loop(-lr, grads.g_c, model.c(), parallel);
}

}  // namespace deepphi::core

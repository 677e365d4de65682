#include "core/rbm.hpp"

#include <cmath>

#include "core/init.hpp"
#include "la/blas1.hpp"
#include "la/elementwise.hpp"
#include "la/gemm.hpp"
#include "la/reduce.hpp"
#include "phi/kernel_stats.hpp"
#include "util/error.hpp"

namespace deepphi::core {

Rbm::Rbm(RbmConfig config, std::uint64_t seed)
    : config_(config),
      w_(config.hidden, config.visible),
      b_(config.visible),
      c_(config.hidden) {
  DEEPPHI_CHECK_MSG(config.visible >= 1 && config.hidden >= 1,
                    "RBM needs positive layer sizes, got " << config.visible
                                                           << "x" << config.hidden);
  DEEPPHI_CHECK_MSG(config.cd_k >= 1, "cd_k must be >= 1, got " << config.cd_k);
  util::Rng rng(seed, /*stream=*/0x4bb4bb4bULL);
  init_weights_gaussian(w_, config.init_sigma, rng);
}

void Rbm::Workspace::ensure(la::Index batch, la::Index visible,
                            la::Index hidden) {
  if (h1_mean.rows() != batch || h1_mean.cols() != hidden)
    h1_mean = la::Matrix::uninitialized(batch, hidden);
  if (h1_sample.rows() != batch || h1_sample.cols() != hidden)
    h1_sample = la::Matrix::uninitialized(batch, hidden);
  if (v2.rows() != batch || v2.cols() != visible)
    v2 = la::Matrix::uninitialized(batch, visible);
  if (h2_mean.rows() != batch || h2_mean.cols() != hidden)
    h2_mean = la::Matrix::uninitialized(batch, hidden);
  if (tmp_v.size() != visible) tmp_v = la::Vector(visible);
  if (tmp_h.size() != hidden) tmp_h = la::Vector(hidden);
}

std::string Rbm::describe() const {
  std::ostringstream os;
  os << "RBM " << config_.visible << " -> " << config_.hidden
     << " (cd_k=" << config_.cd_k << ", "
     << (config_.visible_type == VisibleType::kGaussian ? "Gaussian"
                                                        : "Bernoulli")
     << " visibles)";
  return os.str();
}

void Rbm::hidden_mean(const la::Matrix& v, la::Matrix& h) const {
  DEEPPHI_CHECK_MSG(v.cols() == config_.visible,
                    "input dim " << v.cols() << " != visible " << config_.visible);
  if (h.rows() != v.rows() || h.cols() != config_.hidden)
    h = la::Matrix::uninitialized(v.rows(), config_.hidden);
  la::gemm_nt(1.0f, v, w_, 0.0f, h, la::GemmEpilogue::bias_sigmoid(c_));
}

void Rbm::visible_mean(const la::Matrix& h, la::Matrix& v) const {
  DEEPPHI_CHECK_MSG(h.cols() == config_.hidden,
                    "input dim " << h.cols() << " != hidden " << config_.hidden);
  if (v.rows() != h.rows() || v.cols() != config_.visible)
    v = la::Matrix::uninitialized(h.rows(), config_.visible);
  if (config_.visible_type == VisibleType::kGaussian) {
    // Linear mean, unit variance.
    la::gemm_nn(1.0f, h, w_, 0.0f, v, la::GemmEpilogue::bias_add(b_));
  } else {
    la::gemm_nn(1.0f, h, w_, 0.0f, v, la::GemmEpilogue::bias_sigmoid(b_));
  }
}

double Rbm::gradient(const la::Matrix& v1, Workspace& ws, RbmGradients& grads,
                     const util::Rng& rng, bool fused) const {
  DEEPPHI_CHECK_MSG(v1.cols() == config_.visible,
                    "input dim " << v1.cols() << " != visible " << config_.visible);
  ws.ensure(v1.rows(), config_.visible, config_.hidden);
  grads.ensure(config_.visible, config_.hidden);
  const la::Index m = v1.rows();
  const float inv_m = 1.0f / static_cast<float>(m);

  // Positive phase: h1 = sigmoid(v1·Wᵀ + c), then a binary sample of it.
  la::gemm_nt(1.0f, v1, w_, 0.0f, ws.h1_mean);
  if (fused) {
    la::bias_sigmoid_sample(ws.h1_mean, c_, ws.h1_sample, rng.split(0));
  } else {
    la::add_row_broadcast(ws.h1_mean, c_);
    la::sigmoid_inplace(ws.h1_mean);
    la::sample_bernoulli(ws.h1_mean, ws.h1_sample, rng.split(0));
  }

  // Gibbs chain: k alternations of v ← p(v|h_sample), h ← p(h|v).
  for (int step = 0; step < config_.cd_k; ++step) {
    // v2 = sigmoid(h·W + b) with the current hidden sample (the chain
    // resamples into h1_sample); mean field by default, sampled when
    // configured.
    if (config_.visible_type == VisibleType::kGaussian) {
      // Linear visible mean (unit variance); sampling adds N(0, 1).
      if (fused) {
        la::gemm_nn(1.0f, ws.h1_sample, w_, 0.0f, ws.v2,
                    la::GemmEpilogue::bias_add(b_));
      } else {
        la::gemm_nn(1.0f, ws.h1_sample, w_, 0.0f, ws.v2);
        la::add_row_broadcast_vec(ws.v2, b_);
      }
      if (config_.sample_visible)
        la::add_gaussian_noise(ws.v2, 1.0f, rng.split(100 + step));
    } else {
      if (fused) {
        la::gemm_nn(1.0f, ws.h1_sample, w_, 0.0f, ws.v2,
                    la::GemmEpilogue::bias_sigmoid(b_));
      } else {
        la::gemm_nn(1.0f, ws.h1_sample, w_, 0.0f, ws.v2);
        la::add_row_broadcast(ws.v2, b_);
        la::sigmoid_inplace(ws.v2);
      }
      if (config_.sample_visible)
        la::sample_bernoulli(ws.v2, ws.v2, rng.split(100 + step));
    }

    // h2 = sigmoid(v2·Wᵀ + c); resample into h1_sample when the chain
    // continues (CD-k uses the *mean* at the final step). The sampling
    // variant cannot run as a GEMM epilogue — its per-row RNG substreams
    // need sequential column order — so only the final mean step fuses.
    if (step + 1 < config_.cd_k) {
      la::gemm_nt(1.0f, ws.v2, w_, 0.0f, ws.h2_mean);
      if (fused) {
        la::bias_sigmoid_sample(ws.h2_mean, c_, ws.h1_sample,
                                rng.split(200 + step));
      } else {
        la::add_row_broadcast(ws.h2_mean, c_);
        la::sigmoid_inplace(ws.h2_mean);
        la::sample_bernoulli(ws.h2_mean, ws.h1_sample, rng.split(200 + step));
      }
    } else {
      if (fused) {
        la::gemm_nt(1.0f, ws.v2, w_, 0.0f, ws.h2_mean,
                    la::GemmEpilogue::bias_sigmoid(c_));
      } else {
        la::gemm_nt(1.0f, ws.v2, w_, 0.0f, ws.h2_mean);
        la::add_row_broadcast(ws.h2_mean, c_);
        la::sigmoid_inplace(ws.h2_mean);
      }
    }
  }

  // Descent gradient: g = −(⟨·⟩_data − ⟨·⟩_model)/m  (paper eqs. 10–12,
  // negated so θ ← θ − lr·g matches eq. 13).
  la::gemm_tn(-inv_m, ws.h1_mean, v1, 0.0f, grads.g_w);
  la::gemm_tn(inv_m, ws.h2_mean, ws.v2, 1.0f, grads.g_w);

  la::col_sum(v1, grads.g_b);
  la::col_sum(ws.v2, ws.tmp_v);
  la::axpy(-1.0f, grads.g_b, ws.tmp_v);  // tmp_v = Σv2 − Σv1
  grads.g_b.copy_from(ws.tmp_v);
  la::scal(inv_m, grads.g_b);

  la::col_sum(ws.h1_mean, grads.g_c);
  la::col_sum(ws.h2_mean, ws.tmp_h);
  la::axpy(-1.0f, grads.g_c, ws.tmp_h);  // tmp_h = Σh2 − Σh1
  grads.g_c.copy_from(ws.tmp_h);
  la::scal(inv_m, grads.g_c);

  return la::sum_sq_diff(v1, ws.v2) / static_cast<double>(m);
}

void Rbm::apply_update(const RbmGradients& grads, float lr) {
  la::axpy(-lr, grads.g_w, w_);
  la::axpy(-lr, grads.g_b, b_);
  la::axpy(-lr, grads.g_c, c_);
}

double Rbm::free_energy(const la::Matrix& v, Workspace& ws) const {
  DEEPPHI_CHECK_MSG(v.cols() == config_.visible,
                    "input dim " << v.cols() << " != visible " << config_.visible);
  ws.ensure(v.rows(), config_.visible, config_.hidden);
  // pre = v·Wᵀ + c (reuse h1_mean as scratch).
  la::gemm_nt(1.0f, v, w_, 0.0f, ws.h1_mean);
  la::add_row_broadcast(ws.h1_mean, c_);
  phi::record(phi::loop_contribution(v.rows() * (config_.hidden + config_.visible),
                                     6.0, 2.0, 0.0));
  if (phi::dry_run()) return 0.0;
  const bool gaussian = config_.visible_type == VisibleType::kGaussian;
  double total = 0.0;
  for (la::Index r = 0; r < v.rows(); ++r) {
    double fe = 0.0;
    const float* vr = v.row(r);
    for (la::Index j = 0; j < config_.visible; ++j) {
      if (gaussian) {
        const double d = static_cast<double>(vr[j]) - b_[j];
        fe += 0.5 * d * d;
      } else {
        fe -= static_cast<double>(b_[j]) * vr[j];
      }
    }
    const float* hr = ws.h1_mean.row(r);
    for (la::Index i = 0; i < config_.hidden; ++i) {
      // log(1 + exp(x)) computed stably.
      const double x = hr[i];
      fe -= x > 30 ? x : std::log1p(std::exp(x));
    }
    total += fe;
  }
  return total / static_cast<double>(v.rows());
}

}  // namespace deepphi::core

// Restricted Boltzmann Machine (paper §II.B.2): binary/binary energy model
//
//   E(v, h) = −bᵀv − cᵀh − hᵀWv                         (paper eq. 7)
//   p(h_i = 1 | v) = sigmoid(c_i + W_{i·} v)            (paper eq. 9)
//   p(v_j = 1 | h) = sigmoid(b_j + W_{·j}ᵀ h)           (paper eq. 8)
//
// trained by CD-k (Hinton's contrastive divergence, paper eqs. 10–13):
// positive statistics from the data, negative statistics after k steps of
// Gibbs sampling started at the data. Gradients are returned as a DESCENT
// direction on the (approximate) negative log-likelihood, so every
// optimizer in the repo uniformly does θ ← θ − lr·g.
//
// The fused flag selects the Improved kernel granularity (fused
// bias+sigmoid+sample); the loop-form twin for the Baseline/OpenMP levels
// lives in loop_form.hpp, and the Fig. 6 concurrent version in
// rbm_taskgraph.hpp.
#pragma once

#include <cstdint>

#include "core/encoder.hpp"
#include "core/gradient_buffers.hpp"
#include "la/matrix.hpp"
#include "util/rng.hpp"

namespace deepphi::core {

/// Visible-unit family. Bernoulli (binary, sigmoid mean) is the paper's
/// model; Gaussian (linear mean, unit variance) extends it to continuous
/// data such as natural-image patches.
enum class VisibleType { kBernoulli, kGaussian };

struct RbmConfig {
  la::Index visible = 64;
  la::Index hidden = 25;
  int cd_k = 1;                 // Gibbs steps per gradient
  bool sample_visible = false;  // sample v during Gibbs (default: mean field)
  VisibleType visible_type = VisibleType::kBernoulli;
  float init_sigma = 0.01f;     // N(0, σ) weight init
};

class Rbm : public Encoder {
 public:
  Rbm(RbmConfig config, std::uint64_t seed);

  const RbmConfig& config() const { return config_; }
  la::Index visible() const { return config_.visible; }
  la::Index hidden() const { return config_.hidden; }

  // Encoder interface: inference is the deterministic mean-field up-pass
  // p(h|v) — no Gibbs noise, so serving stays reproducible.
  la::Index input_dim() const override { return config_.visible; }
  la::Index output_dim() const override { return config_.hidden; }
  void encode(const la::Matrix& x, la::Matrix& out) const override {
    hidden_mean(x, out);
  }
  std::string describe() const override;

  la::Matrix& w() { return w_; }   // hidden×visible
  la::Vector& b() { return b_; }   // visible bias
  la::Vector& c() { return c_; }   // hidden bias
  const la::Matrix& w() const { return w_; }
  const la::Vector& b() const { return b_; }
  const la::Vector& c() const { return c_; }

  struct Workspace {
    la::Matrix h1_mean;   // batch×hidden: p(h|v1)
    la::Matrix h1_sample; // batch×hidden: sampled h1
    la::Matrix v2;        // batch×visible: reconstruction (mean or sample)
    la::Matrix h2_mean;   // batch×hidden: p(h|v2)
    la::Vector tmp_v;     // visible-sized scratch
    la::Vector tmp_h;     // hidden-sized scratch
    void ensure(la::Index batch, la::Index visible, la::Index hidden);
  };

  /// p(h=1|v) into `h` (batch×hidden), always fused (inference path).
  void hidden_mean(const la::Matrix& v, la::Matrix& h) const;

  /// p(v=1|h) into `v` (batch×visible).
  void visible_mean(const la::Matrix& h, la::Matrix& v) const;

  /// One CD-k gradient on batch v1. `rng` supplies the Gibbs noise (pass a
  /// distinct substream per step for reproducibility). Returns the mean
  /// per-example squared reconstruction error ‖v1 − v2‖²/m.
  double gradient(const la::Matrix& v1, Workspace& ws, RbmGradients& grads,
                  const util::Rng& rng, bool fused) const;

  /// θ ← θ − lr · g.
  void apply_update(const RbmGradients& grads, float lr);

  /// Mean free energy over the batch — the standard monitoring quantity.
  /// Bernoulli: F(v) = −bᵀv − Σ_i softplus(c_i + W_{i·}v).
  /// Gaussian:  F(v) = ½‖v − b‖² − Σ_i softplus(c_i + W_{i·}v).
  double free_energy(const la::Matrix& v, Workspace& ws) const;

 private:
  RbmConfig config_;
  la::Matrix w_;
  la::Vector b_, c_;
};

}  // namespace deepphi::core

// Sparse Autoencoder (paper §II.B.1): a three-layer sigmoid network trained
// to reconstruct its input under an L2 weight penalty and a KL sparsity
// penalty on the mean hidden activations,
//
//   J(W, b) = 1/(2m) Σᵢ ‖z⁽ⁱ⁾ − x⁽ⁱ⁾‖² + λ/2 (‖W1‖² + ‖W2‖²)
//             + β Σⱼ KL(ρ ‖ ρ̂ⱼ)                               (paper eqs. 3–6)
//
// All batched math is matrix-form over the optimized kernels; the fused flag
// selects the paper's "Improved" granularity (fused elementwise kernels).
// The loop-form twin for the Baseline/OpenMP ladder levels lives in
// loop_form.hpp.
#pragma once

#include <cstdint>

#include "core/encoder.hpp"
#include "core/gradient_buffers.hpp"
#include "la/matrix.hpp"
#include "util/rng.hpp"

namespace deepphi::core {

struct SaeConfig {
  la::Index visible = 64;
  la::Index hidden = 25;
  float lambda = 1e-4f;  // weight decay λ
  float rho = 0.05f;     // sparsity target ρ
  float beta = 3.0f;     // sparsity weight β
  /// Tied weights: the decoder is the encoder's transpose (W2 ≡ W1ᵀ), halving
  /// the parameters — the classic weight-sharing autoencoder variant.
  /// Gradients are combined so that ANY per-buffer update rule (SGD,
  /// momentum, Adagrad) preserves the tie; matrix-form levels only.
  bool tied_weights = false;
};

class SparseAutoencoder : public Encoder {
 public:
  SparseAutoencoder(SaeConfig config, std::uint64_t seed);

  const SaeConfig& config() const { return config_; }
  la::Index visible() const { return config_.visible; }
  la::Index hidden() const { return config_.hidden; }

  // Encoder interface: the hidden code is the model's inference output.
  la::Index input_dim() const override { return config_.visible; }
  la::Index output_dim() const override { return config_.hidden; }
  std::string describe() const override;

  // Parameters, exposed for optimizers/tests. W1: hidden×visible,
  // W2: visible×hidden (a transposed-weight decoder; NOT tied weights).
  la::Matrix& w1() { return w1_; }
  la::Matrix& w2() { return w2_; }
  la::Vector& b1() { return b1_; }
  la::Vector& b2() { return b2_; }
  const la::Matrix& w1() const { return w1_; }
  const la::Matrix& w2() const { return w2_; }
  const la::Vector& b1() const { return b1_; }
  const la::Vector& b2() const { return b2_; }

  /// Per-batch temporaries, reusable across steps.
  struct Workspace {
    la::Matrix y;       // batch×hidden: hidden activations
    la::Matrix z;       // batch×visible: reconstructions
    la::Matrix delta2;  // batch×visible
    la::Matrix back;    // batch×hidden: back-propagated delta
    la::Vector rho_hat; // hidden: mean activations
    la::Vector sparse;  // hidden: sparsity delta term
    la::Matrix tied_scratch;  // hidden×visible (tied-weights combine only)
    void ensure(la::Index batch, la::Index visible, la::Index hidden);
  };

  /// Forward pass: fills ws.y and ws.z from x (batch×visible).
  void forward(const la::Matrix& x, Workspace& ws, bool fused) const;

  /// Hidden activations only (stacking, serving): y = sigmoid(x·W1ᵀ + b1).
  void encode(const la::Matrix& x, la::Matrix& y) const override;

  /// Full cost J on the batch currently in ws (after forward()).
  double cost(const la::Matrix& x, Workspace& ws) const;

  /// Forward + backprop: fills `grads` with ∂J/∂θ (descent direction) and
  /// returns the batch cost. `fused` selects the Improved kernel set.
  double gradient(const la::Matrix& x, Workspace& ws, AeGradients& grads,
                  bool fused) const;

  /// Denoising form: forward on `input` (e.g. a corrupted copy), cost and
  /// output deltas against `target` (the clean data). gradient(x, ...) is
  /// gradient(x, x, ...).
  double gradient(const la::Matrix& input, const la::Matrix& target,
                  Workspace& ws, AeGradients& grads, bool fused) const;

  /// θ ← θ − lr · g (plain SGD; richer rules live in Optimizer).
  void apply_update(const AeGradients& grads, float lr);

  // --- flattened-parameter view for the batch optimizers (L-BFGS / CG) ---
  la::Index param_count() const;
  void get_params(float* out) const;
  void set_params(const float* in);
  static void flatten(const AeGradients& grads, float* out);

 private:
  SaeConfig config_;
  la::Matrix w1_, w2_;
  la::Vector b1_, b2_;
};

}  // namespace deepphi::core

// Unrolled deep autoencoder with end-to-end fine-tuning — the downstream
// use the paper's pre-training exists for (Hinton & Salakhutdinov 2006, the
// paper's reference [1]): the pre-trained encoder stack is unrolled into a
// symmetric encoder/decoder network and trained by full backpropagation on
// the reconstruction error.
//
//   encoder:  x → σ(W₁x+b₁) → … → code
//   decoder:  code → … → σ(W₂'·+b₂') → x̂
//
// Initialization comes from a pre-trained StackedAutoencoder (each layer
// donates its encoder AND decoder half) or a Dbn (each RBM donates W for the
// encoder and Wᵀ for the decoder — the standard unroll). Weight ties (tied
// stacks, DBN transposes) are deliberately NOT preserved during
// fine-tuning: the unrolled network unties, as in Hinton & Salakhutdinov's
// original procedure.
#pragma once

#include <cstdint>
#include <vector>

#include "core/encoder.hpp"
#include "core/layer_stack.hpp"
#include "core/optimizer.hpp"
#include "data/dataset.hpp"

namespace deepphi::core {

class DeepAutoencoder : public Encoder {
 public:
  /// Unrolls a pre-trained stacked autoencoder (encoder halves forward,
  /// decoder halves mirrored).
  explicit DeepAutoencoder(const StackedAutoencoder& pretrained);

  /// Unrolls a pre-trained DBN (Wᵀ decoders, visible biases as decoder
  /// biases).
  explicit DeepAutoencoder(const Dbn& pretrained);

  /// Total layers in the unrolled network (2 × stack depth).
  std::size_t layers() const { return layers_.size(); }
  la::Index input_dim() const override { return layers_.front().w.cols(); }
  la::Index code_dim() const { return layers_[layers_.size() / 2 - 1].w.rows(); }

  // Encoder interface: inference produces the bottleneck code.
  la::Index output_dim() const override { return code_dim(); }
  std::string describe() const override;

  struct Layer {
    la::Matrix w;  // out×in
    la::Vector b;  // out
  };
  Layer& layer(std::size_t l) { return layers_[l]; }
  const Layer& layer(std::size_t l) const { return layers_[l]; }

  struct Workspace {
    // acts[0] = input alias is not stored; acts[l] = activation after layer l.
    std::vector<la::Matrix> acts;
    std::vector<la::Matrix> deltas;
  };

  struct Gradients {
    std::vector<la::Matrix> g_w;
    std::vector<la::Vector> g_b;
  };

  /// Forward through all layers; ws.acts.back() is the reconstruction.
  void forward(const la::Matrix& x, Workspace& ws) const;

  /// Reconstruction x̂ of x.
  void reconstruct(const la::Matrix& x, la::Matrix& out) const;

  /// The bottleneck code of x.
  void encode(const la::Matrix& x, la::Matrix& out) const override;

  /// Full backprop on J = ‖x̂ − x‖²/(2m) + λ/2 Σ‖W‖²; returns J.
  double gradient(const la::Matrix& x, Workspace& ws, Gradients& grads,
                  float lambda = 0.0f) const;

  /// θ ← θ − lr · g.
  void apply_update(const Gradients& grads, float lr);

  struct FinetuneConfig {
    la::Index batch_size = 128;
    int epochs = 5;
    float lambda = 0.0f;
    OptimizerConfig optimizer{};
    std::uint64_t seed = 1;
  };

  struct FinetuneReport {
    std::vector<double> epoch_costs;  // mean batch cost per epoch
    std::int64_t batches = 0;
  };

  /// Mini-batch fine-tuning over `dataset` (shuffled each epoch).
  FinetuneReport finetune(const data::Dataset& dataset,
                          const FinetuneConfig& config);

 private:
  std::vector<Layer> layers_;
};

}  // namespace deepphi::core

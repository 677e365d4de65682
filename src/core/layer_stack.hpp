// Greedy layer-wise pre-training (paper Fig. 1): layer k is trained on the
// codes layer k−1 produces from its own training data ("The output dataset
// is then used as the input training set of the second Autoencoder"); after
// pre-training, encode() runs the whole stack.
//
// One template, two instantiations:
//   * StackedAutoencoder = LayerStack<SparseAutoencoder> — the paper's stack
//     (Table I's network is {1024, 512, 256, 128});
//   * Dbn = LayerStack<Rbm> — a Deep Belief Network (Hinton & Salakhutdinov
//     2006, the paper's reference [1]), whose codes are each RBM's mean-field
//     up-pass p(h|v).
// Either way a layer's codes are its encode(), and every layer trains through
// Trainer::train, so layer 0 streams from any StreamingSource.
#pragma once

#include <cstdint>
#include <string>
#include <type_traits>
#include <utility>
#include <vector>

#include "core/encoder.hpp"
#include "core/rbm.hpp"
#include "core/sparse_autoencoder.hpp"
#include "core/trainer.hpp"
#include "data/streaming_source.hpp"

namespace deepphi::core {

template <typename Layer>
class LayerStack : public Encoder {
 public:
  /// SaeConfig for an autoencoder stack, RbmConfig for a DBN.
  using Config = std::decay_t<decltype(std::declval<const Layer&>().config())>;

  /// `layer_sizes` = {visible, h1, h2, ...}: layer k has visible =
  /// layer_sizes[k] and hidden = layer_sizes[k+1], every other setting from
  /// `proto` (an SAE's λ, ρ, β; an RBM's cd_k, sample_visible, init_sigma),
  /// and seed `seed + k`. A Gaussian visible_type applies to a DBN's BOTTOM
  /// layer only: upper layers see hidden probabilities in (0,1) and stay
  /// Bernoulli — the standard construction.
  LayerStack(std::vector<la::Index> layer_sizes, const Config& proto,
             std::uint64_t seed);

  std::size_t layers() const { return layers_.size(); }
  Layer& layer(std::size_t k) { return layers_[k]; }
  const Layer& layer(std::size_t k) const { return layers_[k]; }
  const std::vector<la::Index>& layer_sizes() const { return sizes_; }

  /// Greedy layer-wise pre-training: trains layer 0 on `source` (in memory
  /// or sharded, read as Trainer::train reads it), encodes the layer's
  /// training set in memory, trains layer 1 on those codes, and so on.
  /// Returns one TrainReport per layer.
  std::vector<TrainReport> pretrain(const data::StreamingSource& source,
                                    const TrainerConfig& config);

  /// Encodes x (batch×visible) through every layer into `out`
  /// (batch×layer_sizes.back()).
  void encode(const la::Matrix& x, la::Matrix& out) const override;

  // Encoder interface.
  la::Index input_dim() const override { return sizes_.front(); }
  la::Index output_dim() const override { return sizes_.back(); }
  std::string describe() const override;

 private:
  std::vector<la::Index> sizes_;
  std::vector<Layer> layers_;
};

using StackedAutoencoder = LayerStack<SparseAutoencoder>;
using Dbn = LayerStack<Rbm>;

extern template class LayerStack<SparseAutoencoder>;
extern template class LayerStack<Rbm>;

}  // namespace deepphi::core

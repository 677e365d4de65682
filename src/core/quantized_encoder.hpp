// Int8 quantized inference wrapper around any of the repo's encoders.
//
// A QuantizedEncoder is a stack of {groupwise int8 weights, float bias}
// layers, each applied as la::quant::encode_sigmoid — the quantized mirror
// of every float model's per-layer sigmoid(x * W^T + b) forward pass. It
// satisfies core::Encoder, so the serving engine, batcher, eval CLI, and
// model_io::load_any all take it unchanged; --precision in deepphi_serve is
// just a choice of which Encoder to stand up.
//
// Build one offline from a trained float model (QuantizedEncoder::from, the
// deepphi_quantize CLI) and save it as a .dpqe checkpoint, or load one
// directly. Per-row dynamic activation quantization happens inside encode()
// on per-call workspaces, so encode() stays const and concurrently callable
// — the Encoder thread-safety contract.
#pragma once

#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "core/encoder.hpp"
#include "la/quant.hpp"

namespace deepphi::core {

class QuantizedEncoder : public Encoder {
 public:
  struct Layer {
    la::quant::QuantizedWeights w;  // units x inputs (hidden x visible)
    la::Vector bias;                // units
  };

  /// Takes ownership of pre-built layers (model_io load path). Validates the
  /// chain: at least one layer, matching dims between consecutive layers,
  /// bias sizes, and one common group size.
  explicit QuantizedEncoder(std::vector<Layer> layers);

  /// Quantizes a trained float model's encode path layer by layer. Supports
  /// every sigmoid chain (core::sigmoid_chain: SparseAutoencoder, Rbm,
  /// StackedAutoencoder, Dbn); throws util::Error for other encoder types
  /// (including an already-quantized model).
  static std::unique_ptr<QuantizedEncoder> from(
      const Encoder& model, la::Index group = la::quant::kDefaultGroup);

  la::Index input_dim() const override { return layers_.front().w.cols(); }
  la::Index output_dim() const override { return layers_.back().w.rows(); }
  void encode(const la::Matrix& x, la::Matrix& out) const override;
  std::string describe() const override;

  std::size_t layers() const { return layers_.size(); }
  const Layer& layer(std::size_t k) const { return layers_[k]; }
  la::Index group() const { return layers_.front().w.group(); }

 private:
  std::vector<Layer> layers_;
};

}  // namespace deepphi::core

// The serving twin of a float sigmoid-chain model: its weights packed once.
//
// Every fp32 encode of an SAE, RBM, stacked autoencoder or DBN is one
// sigmoid(x · Wᵀ + b) GEMM per layer, and gemm() packs W into the register
// tile's panels on every call: at serving batch sizes that packing costs
// about as much as the product. A PackedEncoder packs each layer once, for
// the SIMD tier bound at construction (la::PackedB), and runs the packed
// gemm() entry per batch. The panels hold the same values in the same k
// order, so its outputs, and the KernelStats it records, equal the source
// model's encode() bit for bit (pinned in tests/determinism_test.cpp).
//
// serve::ModelRegistry stands one up for every sigmoid-chain model it is
// given (add/publish). The twin copies each layer's weights (as panels) and
// bias at construction, so a served version is the weights as of
// add/publish, and a caller that changes the source in place and publishes
// again never races batches still running on the old version. It keeps its
// source alive for describe() and the dims.
// encode() throws util::Error when a different tier is bound than the one
// the twin was packed for.
#pragma once

#include <memory>
#include <string>
#include <vector>

#include "core/encoder.hpp"
#include "la/gemm.hpp"

namespace deepphi::core {

class PackedEncoder : public Encoder {
 public:
  /// Packs every layer of `source`, which must be a sigmoid chain
  /// (sigmoid_chain); throws util::Error for any other encoder.
  explicit PackedEncoder(std::shared_ptr<const Encoder> source);

  /// `model`'s packed twin when it is a sigmoid chain, else `model` itself
  /// (a twin included). `model` must not be null.
  static std::shared_ptr<const Encoder> twin_or_self(
      std::shared_ptr<const Encoder> model);

  /// The model this twin serves.
  const Encoder& source() const { return *source_; }

  la::Index input_dim() const override { return source_->input_dim(); }
  la::Index output_dim() const override { return source_->output_dim(); }
  void encode(const la::Matrix& x, la::Matrix& out) const override;
  std::string describe() const override { return source_->describe(); }

 private:
  struct Layer {
    la::PackedB w;  // op(B) = wᵀ, inputs × units
    la::Vector bias;
  };

  std::shared_ptr<const Encoder> source_;
  std::vector<Layer> layers_;
};

}  // namespace deepphi::core

// The unified inference surface of every trained model in the repository.
//
// Training kept growing per-model entry points — SparseAutoencoder::encode,
// StackedAutoencoder::encode, the old Dbn up-pass, DeepAutoencoder::encode,
// SoftmaxClassifier::probabilities — which made a serving layer impossible to
// write without a switch over concrete types. Encoder collapses them: a
// forward pass is "rows in, rows out", batched, read-only, and thread-safe
// (no Encoder implementation may mutate model state from encode()).
//
// The batched shape is the point, not a convenience: the paper's Fig. 9
// batch-size sweep shows Phi-class throughput only materializes when work
// arrives in GEMM-friendly mini-batches, and serve::InferenceServer exists to
// coalesce single-example requests into exactly this call.
#pragma once

#include <string>
#include <vector>

#include "la/matrix.hpp"

namespace deepphi::core {

class Encoder {
 public:
  virtual ~Encoder() = default;

  /// Columns expected of the input matrix (one example per row).
  virtual la::Index input_dim() const = 0;

  /// Columns of the output matrix encode() produces.
  virtual la::Index output_dim() const = 0;

  /// Forward pass: x is batch×input_dim, out becomes batch×output_dim.
  /// Must be const in the strong sense — callable concurrently from many
  /// threads on one shared model instance.
  virtual void encode(const la::Matrix& x, la::Matrix& out) const = 0;

  /// One-line human description ("Sparse Autoencoder 64 -> 25"), used by the
  /// eval and serve CLIs.
  virtual std::string describe() const;
};

/// One layer of a sigmoid chain: out = sigmoid(in · wᵀ + bias), w stored
/// units × inputs.
struct SigmoidLayer {
  const la::Matrix* w = nullptr;
  const la::Vector* bias = nullptr;
};

/// The layers of `model`'s encode() when it is a chain of sigmoid layers —
/// SparseAutoencoder (w1, b1), Rbm (w, c), StackedAutoencoder and Dbn (each
/// layer's) — else empty. The pointers alias `model`. This is the one walk
/// over model types that both the int8 quantizer and the packed serving
/// twin build on.
std::vector<SigmoidLayer> sigmoid_chain(const Encoder& model);

}  // namespace deepphi::core

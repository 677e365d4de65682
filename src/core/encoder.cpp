#include "core/encoder.hpp"

#include <sstream>

#include "core/layer_stack.hpp"
#include "core/rbm.hpp"
#include "core/sparse_autoencoder.hpp"

namespace deepphi::core {

std::string Encoder::describe() const {
  std::ostringstream os;
  os << "Encoder " << input_dim() << " -> " << output_dim();
  return os.str();
}

std::vector<SigmoidLayer> sigmoid_chain(const Encoder& model) {
  std::vector<SigmoidLayer> layers;
  if (const auto* sae = dynamic_cast<const SparseAutoencoder*>(&model)) {
    layers.push_back({&sae->w1(), &sae->b1()});
  } else if (const auto* rbm = dynamic_cast<const Rbm*>(&model)) {
    layers.push_back({&rbm->w(), &rbm->c()});
  } else if (const auto* stack =
                 dynamic_cast<const StackedAutoencoder*>(&model)) {
    for (std::size_t k = 0; k < stack->layers(); ++k)
      layers.push_back({&stack->layer(k).w1(), &stack->layer(k).b1()});
  } else if (const auto* dbn = dynamic_cast<const Dbn*>(&model)) {
    for (std::size_t k = 0; k < dbn->layers(); ++k)
      layers.push_back({&dbn->layer(k).w(), &dbn->layer(k).c()});
  }
  return layers;
}

}  // namespace deepphi::core

#include "core/quantized_encoder.hpp"

#include <sstream>
#include <utility>

#include "util/error.hpp"

namespace deepphi::core {

QuantizedEncoder::QuantizedEncoder(std::vector<Layer> layers)
    : layers_(std::move(layers)) {
  DEEPPHI_CHECK_MSG(!layers_.empty(), "quantized encoder needs >= 1 layer");
  const la::Index group = layers_.front().w.group();
  for (std::size_t k = 0; k < layers_.size(); ++k) {
    const Layer& l = layers_[k];
    DEEPPHI_CHECK_MSG(!l.w.empty(), "quantized layer " << k << " is empty");
    DEEPPHI_CHECK_MSG(l.bias.size() == l.w.rows(),
                      "layer " << k << " bias size " << l.bias.size()
                               << " != units " << l.w.rows());
    DEEPPHI_CHECK_MSG(l.w.group() == group,
                      "layer " << k << " group " << l.w.group()
                               << " != layer 0 group " << group);
    if (k > 0)
      DEEPPHI_CHECK_MSG(l.w.cols() == layers_[k - 1].w.rows(),
                        "layer " << k << " input dim " << l.w.cols()
                                 << " != layer " << k - 1 << " output dim "
                                 << layers_[k - 1].w.rows());
  }
}

std::unique_ptr<QuantizedEncoder> QuantizedEncoder::from(const Encoder& model,
                                                         la::Index group) {
  la::quant::check_group(group);
  if (dynamic_cast<const QuantizedEncoder*>(&model) != nullptr)
    throw util::Error("model is already int8-quantized");
  const std::vector<SigmoidLayer> chain = sigmoid_chain(model);
  if (chain.empty())
    throw util::Error("cannot quantize encoder type: " + model.describe());
  std::vector<Layer> layers;
  for (const SigmoidLayer& l : chain)
    layers.push_back(
        {la::quant::QuantizedWeights::quantize(*l.w, group), *l.bias});
  return std::make_unique<QuantizedEncoder>(std::move(layers));
}

void QuantizedEncoder::encode(const la::Matrix& x, la::Matrix& out) const {
  DEEPPHI_CHECK_MSG(x.cols() == input_dim(),
                    "input dim " << x.cols() << " != " << input_dim());
  // Per-call workspaces keep encode() const and concurrently callable.
  la::quant::QuantizedActivations xq;
  la::Matrix current;
  const la::Matrix* in = &x;
  for (std::size_t k = 0; k < layers_.size(); ++k) {
    const Layer& l = layers_[k];
    xq.quantize(*in, l.w.group());
    la::Matrix next;
    la::quant::encode_sigmoid(xq, l.w, l.bias, next);
    current = std::move(next);
    in = &current;
  }
  out = std::move(current);
}

std::string QuantizedEncoder::describe() const {
  std::ostringstream os;
  os << "Int8 Quantized Encoder " << input_dim();
  for (const Layer& l : layers_) os << " -> " << l.w.rows();
  os << " (" << layers_.size() << (layers_.size() == 1 ? " layer" : " layers")
     << ", group " << group() << ")";
  return os.str();
}

}  // namespace deepphi::core

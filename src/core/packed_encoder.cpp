#include "core/packed_encoder.hpp"

#include <utility>

#include "util/error.hpp"

namespace deepphi::core {

PackedEncoder::PackedEncoder(std::shared_ptr<const Encoder> source)
    : source_(std::move(source)) {
  DEEPPHI_CHECK_MSG(source_ != nullptr, "packed encoder of a null model");
  for (const SigmoidLayer& l : sigmoid_chain(*source_))
    layers_.push_back({la::PackedB(la::Trans::kYes, *l.w), *l.bias});
  DEEPPHI_CHECK_MSG(!layers_.empty(),
                    "cannot pack encoder type: " << source_->describe());
}

std::shared_ptr<const Encoder> PackedEncoder::twin_or_self(
    std::shared_ptr<const Encoder> model) {
  if (sigmoid_chain(*model).empty()) return model;
  return std::make_shared<const PackedEncoder>(std::move(model));
}

void PackedEncoder::encode(const la::Matrix& x, la::Matrix& out) const {
  DEEPPHI_CHECK_MSG(x.cols() == input_dim(),
                    "input dim " << x.cols() << " != " << input_dim());
  la::Matrix current;
  const la::Matrix* in = &x;
  for (std::size_t k = 0; k < layers_.size(); ++k) {
    const Layer& l = layers_[k];
    // The last layer writes straight into `out`, reusing its storage when
    // the shape already fits, as the source models' encode() does.
    la::Matrix next;
    la::Matrix& y = k + 1 == layers_.size() ? out : next;
    if (y.rows() != in->rows() || y.cols() != l.w.cols())
      y = la::Matrix::uninitialized(in->rows(), l.w.cols());
    la::gemm(la::Trans::kNo, 1.0f, *in, l.w, 0.0f, y,
             la::GemmEpilogue::bias_sigmoid(l.bias));
    if (k + 1 < layers_.size()) {
      current = std::move(next);
      in = &current;
    }
  }
}

}  // namespace deepphi::core

#include "core/layer_stack.hpp"

#include <algorithm>
#include <sstream>

#include "data/dataset.hpp"
#include "util/error.hpp"

namespace deepphi::core {

template <typename Layer>
LayerStack<Layer>::LayerStack(std::vector<la::Index> layer_sizes,
                              const Config& proto, std::uint64_t seed)
    : sizes_(std::move(layer_sizes)) {
  DEEPPHI_CHECK_MSG(sizes_.size() >= 2, "need at least two layer sizes, got "
                                            << sizes_.size());
  for (std::size_t k = 0; k + 1 < sizes_.size(); ++k) {
    Config cfg = proto;
    cfg.visible = sizes_[k];
    cfg.hidden = sizes_[k + 1];
    // Gaussian visibles only make sense against raw data: upper layers train
    // on hidden probabilities and stay Bernoulli.
    if constexpr (std::is_same_v<Layer, Rbm>)
      if (k > 0) cfg.visible_type = VisibleType::kBernoulli;
    layers_.emplace_back(cfg, seed + k);
  }
}

template <typename Layer>
std::vector<TrainReport> LayerStack<Layer>::pretrain(
    const data::StreamingSource& source, const TrainerConfig& config) {
  DEEPPHI_CHECK_MSG(source.dim() == sizes_.front(),
                    "dataset dim " << source.dim() << " != input layer "
                                   << sizes_.front());
  std::vector<TrainReport> reports;
  Trainer trainer(config);

  // codes holds the training set of the layer being trained above layer 0.
  data::Dataset codes;
  const data::StreamingSource* input = &source;
  for (std::size_t k = 0; k < layers_.size(); ++k) {
    reports.push_back(trainer.train(layers_[k], *input));
    if (k + 1 == layers_.size()) break;

    // Encode the layer's training set to build the next layer's inputs
    // (batched to bound the temporary matrices).
    data::Dataset next(input->rows(), layers_[k].hidden());
    const la::Index enc_batch = std::min<la::Index>(config.batch_size, 4096);
    la::Matrix in_batch, out_batch;
    for (la::Index begin = 0; begin < input->rows(); begin += enc_batch) {
      const la::Index count = std::min(enc_batch, input->rows() - begin);
      if (in_batch.rows() != count || in_batch.cols() != input->dim())
        in_batch = la::Matrix::uninitialized(count, input->dim());
      input->copy_rows(begin, count, in_batch);
      layers_[k].encode(in_batch, out_batch);
      std::copy(out_batch.data(), out_batch.data() + out_batch.size(),
                next.example(begin));
    }
    codes = std::move(next);
    input = &codes;
  }
  return reports;
}

template <typename Layer>
std::string LayerStack<Layer>::describe() const {
  constexpr bool kDbn = std::is_same_v<Layer, Rbm>;
  std::ostringstream os;
  os << (kDbn ? "DBN" : "Stacked Autoencoder");
  for (std::size_t k = 0; k < sizes_.size(); ++k)
    os << (k == 0 ? " " : " -> ") << sizes_[k];
  os << " (" << layers_.size() << (kDbn ? " RBMs)" : " layers)");
  return os.str();
}

template <typename Layer>
void LayerStack<Layer>::encode(const la::Matrix& x, la::Matrix& out) const {
  DEEPPHI_CHECK_MSG(x.cols() == sizes_.front(),
                    "input dim " << x.cols() << " != " << sizes_.front());
  la::Matrix current = x;
  la::Matrix next;
  for (const Layer& layer : layers_) {
    layer.encode(current, next);
    current = std::move(next);
    next = la::Matrix();
  }
  out = std::move(current);
}

template class LayerStack<SparseAutoencoder>;
template class LayerStack<Rbm>;

}  // namespace deepphi::core

#include "data/batch_iterator.hpp"

#include <numeric>

#include "util/error.hpp"

namespace deepphi::data {

BatchIterator::BatchIterator(const Dataset& dataset, Index batch_size,
                             bool shuffle, std::uint64_t seed)
    : dataset_(dataset),
      batch_size_(batch_size),
      shuffle_(shuffle),
      rng_(seed, /*stream=*/0xba7c4ULL) {
  DEEPPHI_CHECK_MSG(batch_size >= 1, "batch_size must be >= 1, got " << batch_size);
  order_.resize(static_cast<std::size_t>(dataset.size()));
  std::iota(order_.begin(), order_.end(), Index{0});
  if (shuffle_) reshuffle();
}

void BatchIterator::reshuffle() {
  // Fisher–Yates on a fresh substream per epoch: replaying a seed replays
  // the exact batch sequence.
  util::Rng r = rng_.split(epoch_);
  for (std::size_t i = order_.size(); i > 1; --i) {
    const std::size_t j =
        static_cast<std::size_t>(r.uniform_index(static_cast<std::uint64_t>(i)));
    std::swap(order_[i - 1], order_[j]);
  }
}

Index BatchIterator::next(la::Matrix& out) {
  const Index n = dataset_.size();
  if (cursor_ >= n) {
    cursor_ = 0;
    ++epoch_;
    if (shuffle_) reshuffle();
    return 0;
  }
  const Index count = std::min(batch_size_, n - cursor_);
  if (out.rows() != count || out.cols() != dataset_.dim())
    out = la::Matrix::uninitialized(count, dataset_.dim());
  std::vector<Index> idx(order_.begin() + cursor_,
                         order_.begin() + cursor_ + count);
  dataset_.copy_batch(idx, out);
  cursor_ += count;
  return count;
}

Index BatchIterator::batches_per_epoch() const {
  return (dataset_.size() + batch_size_ - 1) / batch_size_;
}

}  // namespace deepphi::data

// Mini-batch iteration over a Dataset: sequential or epoch-shuffled order,
// yielding batches as dense matrices ready for the batched kernels.
#pragma once

#include <cstdint>
#include <vector>

#include "data/dataset.hpp"
#include "util/rng.hpp"

namespace deepphi::data {

class BatchIterator {
 public:
  /// Iterates `dataset` in batches of `batch_size`. When `shuffle` is set the
  /// example order is re-permuted at the start of every epoch (Fisher–Yates
  /// with a deterministic per-epoch stream of `seed`). The final short batch
  /// of an epoch is yielded as-is.
  BatchIterator(const Dataset& dataset, Index batch_size, bool shuffle,
                std::uint64_t seed = 1);

  /// Fills `out` with the next batch and returns its row count; returns 0 at
  /// the end of an epoch (the next call starts a new epoch). `out` is resized
  /// as needed.
  Index next(la::Matrix& out);

  Index batch_size() const { return batch_size_; }
  Index batches_per_epoch() const;
  std::uint64_t epoch() const { return epoch_; }

 private:
  void reshuffle();

  const Dataset& dataset_;
  Index batch_size_;
  bool shuffle_;
  util::Rng rng_;
  std::vector<Index> order_;
  Index cursor_ = 0;
  std::uint64_t epoch_ = 0;
};

}  // namespace deepphi::data

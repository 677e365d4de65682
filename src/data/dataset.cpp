#include "data/dataset.hpp"

#include <algorithm>
#include <cstring>

#include "phi/kernel_stats.hpp"

namespace deepphi::data {

Dataset::Dataset(Index n, Index dim) : data_(n, dim) {}

Dataset::Dataset(la::Matrix m) : data_(std::move(m)) {}

void Dataset::copy_batch(Index begin, Index count, la::Matrix& out) const {
  DEEPPHI_CHECK_MSG(begin >= 0 && count >= 0 && begin + count <= size(),
                    "batch [" << begin << ", " << begin + count << ") out of "
                              << size() << " examples");
  DEEPPHI_CHECK_MSG(out.rows() == count && out.cols() == dim(),
                    "batch target must be " << count << "x" << dim() << ", got "
                                            << out.rows() << "x" << out.cols());
  if (phi::dry_run()) return;  // shape-only rows
  if (count > 0)
    std::memcpy(out.data(), data_.row(begin),
                sizeof(float) * static_cast<std::size_t>(count * dim()));
}

void Dataset::copy_batch(const std::vector<Index>& indices, la::Matrix& out) const {
  DEEPPHI_CHECK_MSG(out.rows() == static_cast<Index>(indices.size()) &&
                        out.cols() == dim(),
                    "batch target must be " << indices.size() << "x" << dim()
                                            << ", got " << out.rows() << "x"
                                            << out.cols());
  if (phi::dry_run()) return;  // shape-only rows
  for (std::size_t r = 0; r < indices.size(); ++r) {
    const Index i = indices[r];
    DEEPPHI_CHECK_MSG(i >= 0 && i < size(), "example index " << i << " out of "
                                                             << size());
    std::memcpy(out.row(static_cast<Index>(r)), data_.row(i),
                sizeof(float) * static_cast<std::size_t>(dim()));
  }
}

SourceInfo Dataset::info() const {
  SourceInfo info;
  info.kind = "memory";
  info.format = "f32";
  info.bytes = sizeof(float) * static_cast<std::uint64_t>(data_.size());
  return info;
}

std::pair<Dataset, Dataset> Dataset::split(Index count) const {
  DEEPPHI_CHECK_MSG(count >= 0 && count <= size(),
                    "split count " << count << " out of [0, " << size() << "]");
  Dataset head(count, dim());
  Dataset tail(size() - count, dim());
  if (count > 0) copy_batch(0, count, head.matrix());
  if (size() - count > 0) copy_batch(count, size() - count, tail.matrix());
  return {std::move(head), std::move(tail)};
}

float Dataset::mean() const {
  if (data_.size() == 0) return 0.0f;
  double acc = 0;
  for (Index i = 0; i < data_.size(); ++i) acc += data_.data()[i];
  return static_cast<float>(acc / static_cast<double>(data_.size()));
}

float Dataset::min() const {
  if (data_.size() == 0) return 0.0f;
  return *std::min_element(data_.data(), data_.data() + data_.size());
}

float Dataset::max() const {
  if (data_.size() == 0) return 0.0f;
  return *std::max_element(data_.data(), data_.data() + data_.size());
}

}  // namespace deepphi::data

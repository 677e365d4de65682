#include "core/softmax.hpp"

#include <algorithm>
#include <cmath>
#include <numeric>

#include "core/init.hpp"
#include "la/blas1.hpp"
#include "la/elementwise.hpp"
#include "la/gemm.hpp"
#include "la/reduce.hpp"
#include "phi/kernel_stats.hpp"
#include "util/error.hpp"
#include "util/rng.hpp"

namespace deepphi::core {

namespace {

// Row-wise softmax in place (max-shifted for stability); records one loop
// kernel (exp + normalize ≈ 12 flops/element).
void softmax_rows(la::Matrix& m) {
  phi::record(phi::loop_contribution(m.size(), 12.0, 1.0, 1.0));
  if (phi::dry_run()) return;
  const la::Index rows = m.rows();
  const la::Index cols = m.cols();
#pragma omp parallel for if (m.size() >= (1 << 14)) schedule(static)
  for (la::Index r = 0; r < rows; ++r) {
    float* row = m.row(r);
    float max = row[0];
    for (la::Index c = 1; c < cols; ++c) max = std::max(max, row[c]);
    double sum = 0;
    for (la::Index c = 0; c < cols; ++c) {
      row[c] = std::exp(row[c] - max);
      sum += row[c];
    }
    const float inv = static_cast<float>(1.0 / sum);
    for (la::Index c = 0; c < cols; ++c) row[c] *= inv;
  }
}

}  // namespace

SoftmaxClassifier::SoftmaxClassifier(SoftmaxConfig config, std::uint64_t seed)
    : config_(config), w_(config.classes, config.dim), b_(config.classes) {
  DEEPPHI_CHECK_MSG(config.dim >= 1 && config.classes >= 2,
                    "softmax needs dim >= 1 and classes >= 2, got "
                        << config.dim << "/" << config.classes);
  util::Rng rng(seed, /*stream=*/0x50f7ULL);
  init_weights_uniform(w_, config.dim, config.classes, rng);
}

std::string SoftmaxClassifier::describe() const {
  std::ostringstream os;
  os << "Softmax classifier " << config_.dim << " -> " << config_.classes
     << " classes";
  return os.str();
}

void SoftmaxClassifier::probabilities(const la::Matrix& x,
                                      la::Matrix& probs) const {
  DEEPPHI_CHECK_MSG(x.cols() == config_.dim,
                    "input dim " << x.cols() << " != " << config_.dim);
  if (probs.rows() != x.rows() || probs.cols() != config_.classes)
    probs = la::Matrix::uninitialized(x.rows(), config_.classes);
  la::gemm_nt(1.0f, x, w_, 0.0f, probs, la::GemmEpilogue::bias_add(b_));
  softmax_rows(probs);
}

double SoftmaxClassifier::gradient(const la::Matrix& x,
                                   const std::vector<int>& labels,
                                   Workspace& ws, Gradients& grads) const {
  DEEPPHI_CHECK_MSG(static_cast<la::Index>(labels.size()) == x.rows(),
                    "labels size " << labels.size() << " != batch " << x.rows());
  const la::Index m = x.rows();
  const float inv_m = 1.0f / static_cast<float>(m);

  probabilities(x, ws.logits);

  // NLL and the (P − Y) residual in one pass over the label entries.
  phi::record(phi::loop_contribution(m, 4.0, 1.0, 1.0));
  double nll = 0;
  for (la::Index r = 0; r < m; ++r) {
    const int y = labels[static_cast<std::size_t>(r)];
    DEEPPHI_CHECK_MSG(y >= 0 && y < config_.classes,
                      "label " << y << " out of [0, " << config_.classes << ")");
    const float p = std::max(ws.logits(r, y), 1e-12f);
    nll -= std::log(static_cast<double>(p));
    ws.logits(r, y) -= 1.0f;  // P - Y
  }

  if (grads.g_w.rows() != config_.classes || grads.g_w.cols() != config_.dim)
    grads.g_w = la::Matrix(config_.classes, config_.dim);
  if (grads.g_b.size() != config_.classes)
    grads.g_b = la::Vector(config_.classes);
  la::gemm_tn(inv_m, ws.logits, x, 0.0f, grads.g_w);
  la::axpy(config_.lambda, w_, grads.g_w);
  la::col_sum(ws.logits, grads.g_b);
  la::scal(inv_m, grads.g_b);

  return nll * inv_m + 0.5 * config_.lambda * la::nrm2sq(w_);
}

void SoftmaxClassifier::apply_update(const Gradients& grads, float lr) {
  la::axpy(-lr, grads.g_w, w_);
  la::axpy(-lr, grads.g_b, b_);
}

std::vector<int> SoftmaxClassifier::predict(const la::Matrix& x) const {
  la::Matrix probs;
  probabilities(x, probs);
  std::vector<int> out(static_cast<std::size_t>(x.rows()));
  for (la::Index r = 0; r < x.rows(); ++r) {
    const float* row = probs.row(r);
    out[static_cast<std::size_t>(r)] = static_cast<int>(
        std::max_element(row, row + probs.cols()) - row);
  }
  return out;
}

double SoftmaxClassifier::accuracy(const la::Matrix& x,
                                   const std::vector<int>& labels) const {
  DEEPPHI_CHECK_MSG(static_cast<la::Index>(labels.size()) == x.rows(),
                    "labels size mismatch");
  DEEPPHI_CHECK_MSG(x.rows() > 0, "empty evaluation batch");
  const std::vector<int> predicted = predict(x);
  la::Index correct = 0;
  for (std::size_t i = 0; i < labels.size(); ++i)
    if (predicted[i] == labels[i]) ++correct;
  return static_cast<double>(correct) / static_cast<double>(x.rows());
}

SoftmaxClassifier::TrainReport SoftmaxClassifier::train(
    const data::Dataset& dataset, const std::vector<int>& labels,
    const TrainConfig& config) {
  DEEPPHI_CHECK_MSG(dataset.size() == static_cast<la::Index>(labels.size()),
                    "dataset/labels size mismatch");
  DEEPPHI_CHECK_MSG(dataset.dim() == config_.dim, "dataset dim mismatch");
  DEEPPHI_CHECK_MSG(!dataset.empty(), "empty dataset");
  DEEPPHI_CHECK_MSG(config.batch_size >= 1 && config.epochs >= 1,
                    "bad train config");

  TrainReport report;
  Workspace ws;
  Gradients grads;
  la::Matrix batch;
  std::vector<int> batch_labels;
  std::vector<la::Index> order(static_cast<std::size_t>(dataset.size()));
  std::iota(order.begin(), order.end(), la::Index{0});
  util::Rng rng(config.seed, /*stream=*/0x50f7b17ULL);

  for (int epoch = 0; epoch < config.epochs; ++epoch) {
    // Fisher–Yates on a per-epoch substream (mirrors BatchIterator; done
    // here because labels must be permuted alongside the examples).
    util::Rng r = rng.split(static_cast<std::uint64_t>(epoch));
    for (std::size_t i = order.size(); i > 1; --i)
      std::swap(order[i - 1],
                order[static_cast<std::size_t>(
                    r.uniform_index(static_cast<std::uint64_t>(i)))]);

    double epoch_cost = 0;
    la::Index batches = 0;
    for (la::Index begin = 0; begin < dataset.size();
         begin += config.batch_size) {
      const la::Index count =
          std::min(config.batch_size, dataset.size() - begin);
      if (batch.rows() != count || batch.cols() != dataset.dim())
        batch = la::Matrix::uninitialized(count, dataset.dim());
      batch_labels.resize(static_cast<std::size_t>(count));
      std::vector<la::Index> idx(order.begin() + begin,
                                 order.begin() + begin + count);
      dataset.copy_batch(idx, batch);
      for (la::Index i = 0; i < count; ++i)
        batch_labels[static_cast<std::size_t>(i)] =
            labels[static_cast<std::size_t>(idx[static_cast<std::size_t>(i)])];
      epoch_cost += gradient(batch, batch_labels, ws, grads);
      apply_update(grads, config.lr);
      ++batches;
    }
    report.epoch_costs.push_back(epoch_cost / static_cast<double>(batches));
  }
  return report;
}

}  // namespace deepphi::core

// Tests for the classification head (softmax) and the labeled digit
// generator.
#include <gtest/gtest.h>

#include <cmath>
#include <set>

#include "core/softmax.hpp"
#include "data/digits.hpp"
#include "util/rng.hpp"

namespace deepphi::core {
namespace {

// --- labeled digits ---

TEST(LabeledDigits, LabelsMatchCountAndRange) {
  std::vector<int> labels;
  data::DigitConfig dc;
  data::Dataset images = data::make_digit_images(200, dc, 9, &labels);
  ASSERT_EQ(labels.size(), 200u);
  std::set<int> classes(labels.begin(), labels.end());
  for (int y : labels) {
    EXPECT_GE(y, 0);
    EXPECT_LE(y, 9);
  }
  EXPECT_GE(classes.size(), 8u);  // 200 draws cover nearly all 10 classes
}

TEST(LabeledDigits, LabelsAreDeterministic) {
  std::vector<int> a, b;
  data::DigitConfig dc;
  data::make_digit_images(50, dc, 9, &a);
  data::make_digit_images(50, dc, 9, &b);
  EXPECT_EQ(a, b);
}

TEST(LabeledDigits, NullLabelsStillWorks) {
  data::DigitConfig dc;
  data::Dataset images = data::make_digit_images(5, dc, 9);
  EXPECT_EQ(images.size(), 5);
}

// --- softmax ---

SoftmaxConfig tiny_softmax() {
  SoftmaxConfig cfg;
  cfg.dim = 6;
  cfg.classes = 3;
  cfg.lambda = 1e-3f;
  return cfg;
}

la::Matrix random_x(la::Index rows, la::Index cols, std::uint64_t seed) {
  util::Rng rng(seed);
  la::Matrix m = la::Matrix::uninitialized(rows, cols);
  for (la::Index i = 0; i < m.size(); ++i)
    m.data()[i] = static_cast<float>(rng.uniform(-1.0, 1.0));
  return m;
}

TEST(Softmax, ProbabilitiesAreDistributions) {
  SoftmaxClassifier head(tiny_softmax(), 1);
  la::Matrix x = random_x(7, 6, 2);
  la::Matrix probs;
  head.probabilities(x, probs);
  for (la::Index r = 0; r < 7; ++r) {
    double sum = 0;
    for (la::Index c = 0; c < 3; ++c) {
      EXPECT_GT(probs(r, c), 0.0f);
      EXPECT_LT(probs(r, c), 1.0f);
      sum += probs(r, c);
    }
    EXPECT_NEAR(sum, 1.0, 1e-5);
  }
}

TEST(Softmax, GradientMatchesFiniteDifferences) {
  SoftmaxClassifier head(tiny_softmax(), 3);
  la::Matrix x = random_x(9, 6, 4);
  std::vector<int> labels = {0, 1, 2, 0, 1, 2, 0, 1, 2};
  SoftmaxClassifier::Workspace ws;
  SoftmaxClassifier::Gradients grads;
  head.gradient(x, labels, ws, grads);

  const float eps = 1e-3f;
  for (const auto& idx : {std::pair<la::Index, la::Index>{0, 0},
                         std::pair<la::Index, la::Index>{2, 5},
                         std::pair<la::Index, la::Index>{1, 3}}) {
    SoftmaxClassifier::Workspace tmp;
    SoftmaxClassifier::Gradients unused;
    float& wref = head.w()(idx.first, idx.second);
    const float original = wref;
    wref = original + eps;
    const double plus = head.gradient(x, labels, tmp, unused);
    wref = original - eps;
    const double minus = head.gradient(x, labels, tmp, unused);
    wref = original;
    EXPECT_NEAR((plus - minus) / (2 * eps), grads.g_w(idx.first, idx.second),
                2e-3);
  }
}

TEST(Softmax, LearnsLinearlySeparableData) {
  // Three clusters along distinct axes.
  const la::Index n = 300;
  la::Matrix x(n, 6);
  std::vector<int> labels(n);
  util::Rng rng(5);
  for (la::Index i = 0; i < n; ++i) {
    const int y = static_cast<int>(i % 3);
    labels[static_cast<std::size_t>(i)] = y;
    for (la::Index c = 0; c < 6; ++c)
      x(i, c) = 0.2f * static_cast<float>(rng.normal()) + (c == 2 * y ? 1.5f : 0.0f);
  }
  SoftmaxClassifier head(tiny_softmax(), 6);
  data::Dataset set{la::Matrix(x)};
  SoftmaxClassifier::TrainConfig tcfg;
  tcfg.epochs = 40;
  tcfg.lr = 0.5f;
  const auto report = head.train(set, labels, tcfg);
  EXPECT_LT(report.epoch_costs.back(), report.epoch_costs.front());
  EXPECT_GT(head.accuracy(x, labels), 0.95);
}

TEST(Softmax, PredictReturnsArgmax) {
  SoftmaxClassifier head(tiny_softmax(), 7);
  head.w().zero();
  head.b().fill(0.0f);
  head.b()[2] = 5.0f;  // class 2 always wins
  la::Matrix x = random_x(4, 6, 8);
  const auto predicted = head.predict(x);
  for (int p : predicted) EXPECT_EQ(p, 2);
}

TEST(Softmax, RejectsBadInputs) {
  EXPECT_THROW(SoftmaxClassifier({6, 1, 0.0f}, 1), util::Error);
  SoftmaxClassifier head(tiny_softmax(), 9);
  la::Matrix x = random_x(3, 6, 10);
  SoftmaxClassifier::Workspace ws;
  SoftmaxClassifier::Gradients grads;
  EXPECT_THROW(head.gradient(x, {0, 1}, ws, grads), util::Error);  // size
  EXPECT_THROW(head.gradient(x, {0, 1, 7}, ws, grads), util::Error);  // range
}

TEST(Softmax, TrainingCostDecreasesOnDigits) {
  std::vector<int> labels;
  data::DigitConfig dc;
  dc.image_size = 8;
  data::Dataset images = data::make_digit_images(400, dc, 12, &labels);
  SoftmaxConfig cfg;
  cfg.dim = 64;
  cfg.classes = 10;
  SoftmaxClassifier head(cfg, 13);
  SoftmaxClassifier::TrainConfig tcfg;
  tcfg.epochs = 15;
  tcfg.lr = 0.5f;
  const auto report = head.train(images, labels, tcfg);
  EXPECT_LT(report.epoch_costs.back(), report.epoch_costs.front());
  // Much better than the 10% chance level.
  la::Matrix x(images.size(), 64);
  images.copy_batch(0, images.size(), x);
  EXPECT_GT(head.accuracy(x, labels), 0.5);
}

}  // namespace
}  // namespace deepphi::core

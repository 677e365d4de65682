// The downstream task: digit classification with FEW labels — the paper's
// opening motivation ("since constructing labeled data can be very
// time-consuming and labor-intensive, unsupervised learning has an advantage
// of using more unlabeled data", and the codes "make it easier to learn
// tasks of interests").
//
// Pipeline: many unlabeled digit images pre-train a stacked autoencoder;
// only a small labeled subset trains the softmax head — (a) on raw pixels,
// (b) on the unsupervised codes. With scarce labels the high-dimensional
// raw head overfits; the compact unsupervised code generalizes.
//
// On clean synthetic digits raw pixels are nearly linearly separable and
// hard to beat; the pre-training advantage shows in the noisy, label-scarce
// regime this example defaults to. Honest numbers either way.
//
//   $ ./classify_digits [--train=4096] [--labeled=96] [--test=1024] [--noise=0.45]
#include <cstdio>

#include "core/layer_stack.hpp"
#include "core/softmax.hpp"
#include "core/trainer.hpp"
#include "data/digits.hpp"
#include "util/options.hpp"

namespace {

using namespace deepphi;

// Encodes a whole dataset through any Encoder, batched.
data::Dataset encode_all(const core::Encoder& model,
                         const data::Dataset& images) {
  data::Dataset codes(images.size(), model.output_dim());
  la::Matrix in, out;
  const la::Index step = 512;
  for (la::Index begin = 0; begin < images.size(); begin += step) {
    const la::Index count = std::min(step, images.size() - begin);
    if (in.rows() != count || in.cols() != images.dim())
      in = la::Matrix::uninitialized(count, images.dim());
    images.copy_batch(begin, count, in);
    model.encode(in, out);
    for (la::Index r = 0; r < count; ++r)
      std::copy(out.row(r), out.row(r) + out.cols(), codes.example(begin + r));
  }
  return codes;
}

double train_and_eval(const data::Dataset& train_x, const std::vector<int>& train_y,
                      const data::Dataset& test_x, const std::vector<int>& test_y,
                      int epochs, std::uint64_t seed) {
  core::SoftmaxConfig cfg;
  cfg.dim = train_x.dim();
  cfg.classes = 10;
  core::SoftmaxClassifier head(cfg, seed);
  core::SoftmaxClassifier::TrainConfig tcfg;
  tcfg.epochs = epochs;
  tcfg.lr = 0.5f;
  head.train(train_x, train_y, tcfg);
  la::Matrix probe(test_x.size(), test_x.dim());
  test_x.copy_batch(0, test_x.size(), probe);
  return head.accuracy(probe, test_y);
}

}  // namespace

int main(int argc, char** argv) {
  using namespace deepphi;
  util::Options options = util::Options::parse(argc, argv);
  options.declare("train", "unlabeled images for pre-training", "4096");
  options.declare("labeled", "labeled images for the supervised heads", "96");
  options.declare("test", "held-out images", "1024");
  options.declare("epochs", "supervised epochs for both heads", "30");
  options.declare("noise", "pixel noise amplitude on every image", "0.45");
  options.validate();

  const la::Index n_train = options.get_int("train");
  const la::Index n_labeled = options.get_int("labeled");
  const la::Index n_test = options.get_int("test");
  const int epochs = static_cast<int>(options.get_int("epochs"));

  std::printf("deepphi — classification on unsupervised codes vs raw pixels\n\n");

  // Labeled digit images, 16x16, with heavy pixel noise (the regime where
  // learned features beat raw pixels).
  data::DigitConfig dc;
  dc.image_size = 16;
  dc.noise = static_cast<float>(options.get_double("noise"));
  dc.jitter = 0.06f;
  std::vector<int> train_y, test_y;
  data::Dataset train_imgs = data::make_digit_images(n_train, dc, 1, &train_y);
  data::Dataset test_imgs = data::make_digit_images(n_test, dc, 2, &test_y);
  std::printf("data: %lld unlabeled / %lld labeled / %lld test images of dim "
              "%lld, 10 classes\n",
              static_cast<long long>(n_train), static_cast<long long>(n_labeled),
              static_cast<long long>(n_test),
              static_cast<long long>(train_imgs.dim()));

  // Unsupervised pre-training — labels never touched.
  core::SaeConfig proto;
  // A gentle sparsity pressure: codes must stay informative for the head.
  proto.rho = 0.15f;
  proto.beta = 0.05f;
  core::StackedAutoencoder stack({256, 48}, proto, 3);
  core::TrainerConfig pcfg;
  pcfg.batch_size = 128;
  pcfg.chunk_examples = 2048;
  pcfg.epochs = 10;
  pcfg.policy = core::ExecPolicy::kPhiOffload;
  pcfg.optimizer.lr = 0.5f;
  stack.pretrain(train_imgs, pcfg);
  std::printf("pre-trained 256-48 encoder (unsupervised)\n\n");

  // The supervised heads only ever see the small labeled slice.
  DEEPPHI_CHECK_MSG(n_labeled <= n_train, "--labeled cannot exceed --train");
  data::Dataset labeled_imgs(n_labeled, train_imgs.dim());
  train_imgs.copy_batch(0, n_labeled, labeled_imgs.matrix());
  const std::vector<int> labeled_y(train_y.begin(),
                                   train_y.begin() + n_labeled);

  data::Dataset labeled_codes = encode_all(stack, labeled_imgs);
  data::Dataset test_codes = encode_all(stack, test_imgs);

  const double raw_acc =
      train_and_eval(labeled_imgs, labeled_y, test_imgs, test_y, epochs, 11);
  const double code_acc =
      train_and_eval(labeled_codes, labeled_y, test_codes, test_y, epochs, 11);

  std::printf("softmax on raw pixels (256d, %lld labels):        held-out "
              "accuracy %.1f%%\n",
              static_cast<long long>(n_labeled), raw_acc * 100);
  std::printf("softmax on unsupervised codes (48d, %lld labels): held-out "
              "accuracy %.1f%%\n",
              static_cast<long long>(n_labeled), code_acc * 100);
  std::printf(
      "\n(the 48d code rides on all %lld unlabeled images through the\n"
      " pre-training and carries the class structure at 19%% of the raw\n"
      " dimensionality — the paper's case for unsupervised learning when\n"
      " labels are scarce. With plentiful labels or clean pixels, raw wins\n"
      " on this synthetic task; try --labeled=2048 --noise=0.02.)\n",
      static_cast<long long>(n_train));
  return 0;
}

// Stacked Autoencoder on digit patches — the paper's Fig. 1 workflow
// (greedy layer-wise unsupervised pre-training) at laptop scale, with a
// look at the learned features after each layer.
//
//   $ ./digit_features [--examples=6144] [--epochs=6]
#include <cstdio>

#include "core/layer_stack.hpp"
#include "core/metrics.hpp"
#include "data/patches.hpp"
#include "util/options.hpp"

int main(int argc, char** argv) {
  using namespace deepphi;
  util::Options options = util::Options::parse(argc, argv);
  options.declare("examples", "number of 8x8 training patches", "6144");
  options.declare("epochs", "training epochs per layer", "6");
  options.validate();

  const la::Index examples = options.get_int("examples");
  const int epochs = static_cast<int>(options.get_int("epochs"));

  std::printf("deepphi — stacked autoencoder pre-training on digit patches\n\n");

  data::Dataset patches = data::make_digit_patch_dataset(examples, 8, 11);

  // A 64-36-16 encoder stack (the paper's Table I network 1024-512-256-128,
  // scaled to patch dimensionality).
  core::SaeConfig proto;
  // A softer sparsity target than the quickstart: deep codes must stay
  // informative, not just sparse.
  proto.rho = 0.15f;
  proto.beta = 0.3f;
  proto.lambda = 1e-4f;
  core::StackedAutoencoder stack({64, 36, 16}, proto, 3);

  core::TrainerConfig tcfg;
  tcfg.batch_size = 128;
  tcfg.chunk_examples = 2048;
  tcfg.epochs = epochs;
  tcfg.level = core::OptLevel::kImproved;
  tcfg.policy = core::ExecPolicy::kPhiOffload;
  tcfg.optimizer.lr = 0.5f;

  std::printf("pre-training %zu layers greedily (Fig. 1)...\n", stack.layers());
  const auto reports = stack.pretrain(patches, tcfg);
  for (std::size_t layer = 0; layer < reports.size(); ++layer) {
    std::printf(
        "  layer %zu (%lld -> %lld): %lld batches, chunk cost %.4f -> %.4f\n",
        layer, static_cast<long long>(stack.layer(layer).visible()),
        static_cast<long long>(stack.layer(layer).hidden()),
        static_cast<long long>(reports[layer].batches),
        reports[layer].chunk_mean_costs.front(),
        reports[layer].chunk_mean_costs.back());
  }

  // Feature quality: localized first-layer filters are the signature of
  // successful sparse coding on stroke images.
  const double localized =
      core::localized_filter_fraction(stack.layer(0).w1(), 0.5);
  std::printf("\nfirst-layer filters localized (top-25%% weights > 50%% mass): "
              "%.0f%%\n", localized * 100);
  std::printf("three first-layer features (8x8 ASCII heat maps):\n");
  for (la::Index unit : {0, 5, 11}) {
    std::printf("unit %lld:\n%s\n", static_cast<long long>(unit),
                core::ascii_filter(stack.layer(0).w1(), unit, 8).c_str());
  }

  // Encode a few patches through the whole stack.
  la::Matrix x(4, 64);
  patches.copy_batch(0, 4, x);
  la::Matrix code;
  stack.encode(x, code);
  std::printf("4 patches encoded to %lldd codes; first code:",
              static_cast<long long>(code.cols()));
  for (la::Index c = 0; c < code.cols(); ++c) std::printf(" %.2f", code(0, c));
  std::printf("\n");
  return 0;
}

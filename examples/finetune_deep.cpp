// The full Hinton–Salakhutdinov workflow the paper's pre-training feeds:
// greedy layer-wise pre-training, checkpointing, unrolling into a deep
// autoencoder, and end-to-end fine-tuning — with the pre-training's value
// made visible by comparing against a randomly-initialized deep net.
//
//   $ ./finetune_deep [--examples=6144] [--epochs=4]
#include <cstdio>

#include "core/deep_autoencoder.hpp"
#include "core/layer_stack.hpp"
#include "core/model_io.hpp"
#include "core/trainer.hpp"
#include "data/patches.hpp"
#include "la/reduce.hpp"
#include "util/options.hpp"

namespace {

using namespace deepphi;

double recon_error(const core::DeepAutoencoder& deep, const la::Matrix& x) {
  la::Matrix out;
  deep.reconstruct(x, out);
  return la::sum_sq_diff(out, x) / static_cast<double>(x.rows());
}

}  // namespace

int main(int argc, char** argv) {
  using namespace deepphi;
  util::Options options = util::Options::parse(argc, argv);
  options.declare("examples", "number of 8x8 training patches", "6144");
  options.declare("epochs", "epochs per phase", "4");
  options.validate();

  const la::Index examples = options.get_int("examples");
  const int epochs = static_cast<int>(options.get_int("epochs"));

  std::printf("deepphi — pre-train, checkpoint, unroll, fine-tune\n\n");
  data::Dataset patches = data::make_digit_patch_dataset(examples, 8, 71);
  la::Matrix probe(512, 64);
  patches.copy_batch(0, 512, probe);

  // Phase 1: greedy pre-training (paper Fig. 1).
  core::SaeConfig proto;
  proto.rho = 0.15f;
  proto.beta = 0.2f;
  core::StackedAutoencoder stack({64, 32, 16, 8}, proto, 73);
  core::TrainerConfig tcfg;
  tcfg.batch_size = 128;
  tcfg.chunk_examples = 2048;
  tcfg.epochs = epochs;
  tcfg.policy = core::ExecPolicy::kPhiOffload;
  tcfg.optimizer.lr = 0.5f;
  stack.pretrain(patches, tcfg);
  std::printf("pre-trained stack 64-32-16-8\n");

  // Phase 2: checkpoint round trip (what a real pipeline would do between
  // the pre-training and fine-tuning jobs).
  const std::string ckpt = "deepphi_stack.dpsa";
  core::save_model(stack, ckpt);
  core::StackedAutoencoder restored = core::load_stacked_sae(ckpt);
  std::remove(ckpt.c_str());
  std::printf("checkpointed to %s, restored and removed\n", ckpt.c_str());

  // Phase 3: unroll and fine-tune, against a cold-start control.
  core::DeepAutoencoder pretrained(restored);
  core::StackedAutoencoder cold_stack({64, 32, 16, 8}, proto, 9999);
  core::DeepAutoencoder cold(cold_stack);

  std::printf("\nreconstruction error on a 512-patch probe:\n");
  std::printf("  pretrained, before fine-tuning: %.4f\n",
              recon_error(pretrained, probe));
  std::printf("  random init, before fine-tuning: %.4f\n",
              recon_error(cold, probe));

  core::DeepAutoencoder::FinetuneConfig fcfg;
  fcfg.batch_size = 128;
  fcfg.epochs = epochs;
  fcfg.optimizer.lr = 0.2f;
  const auto tuned_report = pretrained.finetune(patches, fcfg);
  const auto cold_report = cold.finetune(patches, fcfg);

  std::printf("  pretrained, after fine-tuning:  %.4f (cost %.4f -> %.4f)\n",
              recon_error(pretrained, probe), tuned_report.epoch_costs.front(),
              tuned_report.epoch_costs.back());
  std::printf("  random init, after fine-tuning: %.4f (cost %.4f -> %.4f)\n",
              recon_error(cold, probe), cold_report.epoch_costs.front(),
              cold_report.epoch_costs.back());
  std::printf(
      "\n(pre-training hands fine-tuning a far better starting point — the\n"
      " cold net burns its budget re-learning what the unsupervised phase\n"
      " already found. On this small task both eventually reach the same\n"
      " bottleneck-limited floor; on deep nets and scarce budgets the gap\n"
      " persists — reference [1] of the paper.)\n");
  std::remove(ckpt.c_str());
  return 0;
}

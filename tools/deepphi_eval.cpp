// deepphi_eval — inspect and evaluate a trained checkpoint.
//
// Loads ANY checkpoint through model_io::load_any (the magic is sniffed, no
// per-type flags), evaluates it on a dataset (DPDS, IDX, or synthetic)
// through the unified core::Encoder interface, and can export the encoded
// codes as a DPDS dataset for downstream use.
//
//   deepphi_eval --model=stack.dpsa --synthetic=digits --examples=1024
//   deepphi_eval --model=sae.dpae --idx=t10k-images-idx3-ubyte --filters=3
//   deepphi_eval --model=dbn.dpdb --data=patches.dpds --export-codes=codes.dpds
#include <cstdio>

#include "core/encoder.hpp"
#include "core/metrics.hpp"
#include "core/model_io.hpp"
#include "data/binary_io.hpp"
#include "data/idx_io.hpp"
#include "data/patches.hpp"
#include "obs/profiler.hpp"
#include "util/options.hpp"

namespace {

using namespace deepphi;

data::Dataset load_data(const util::Options& options) {
  if (options.has("data")) return data::load_dataset(options.get_string("data"));
  if (options.has("idx")) return data::load_idx_images(options.get_string("idx"));
  const std::string synthetic = options.get_string("synthetic");
  const la::Index examples = options.get_int("examples");
  const la::Index patch = options.get_int("patch");
  if (synthetic == "digits")
    return data::make_digit_patch_dataset(examples, patch, 1);
  if (synthetic == "natural")
    return data::make_natural_patch_dataset(examples, patch, 1);
  throw util::Error("unknown --synthetic '" + synthetic + "' (digits|natural)");
}

void maybe_export_codes(const util::Options& options, const la::Matrix& codes) {
  if (!options.has("export-codes")) return;
  const std::string path = options.get_string("export-codes");
  data::save_dataset(data::Dataset(la::Matrix(codes)), path);
  std::printf("codes (%lldx%lld) exported to %s\n",
              static_cast<long long>(codes.rows()),
              static_cast<long long>(codes.cols()), path.c_str());
}

void print_filters(const la::Matrix& w, int count) {
  // Only renderable when the input is a square patch.
  la::Index side = 1;
  while (side * side < w.cols()) ++side;
  if (side * side != w.cols()) {
    std::printf("(input dim %lld is not square; skipping filter render)\n",
                static_cast<long long>(w.cols()));
    return;
  }
  for (int u = 0; u < count && u < w.rows(); ++u)
    std::printf("filter %d:\n%s\n", u,
                core::ascii_filter(w, u, side).c_str());
}

/// The model's first-layer weight matrix, when it has one to render.
const la::Matrix* first_layer_weights(const core::Encoder& model) {
  const std::vector<core::SigmoidLayer> chain = core::sigmoid_chain(model);
  return chain.empty() ? nullptr : chain.front().w;
}

/// Type-specific quality metrics (reconstruction error needs the decoder
/// half, which the Encoder interface deliberately does not expose).
void print_model_metrics(const core::Encoder& model,
                         const data::Dataset& dataset) {
  if (auto* sae = dynamic_cast<const core::SparseAutoencoder*>(&model)) {
    std::printf("reconstruction error: %.5f\n",
                core::reconstruction_error(*sae, dataset, dataset.size()));
    std::printf("mean hidden activation: %.4f\n",
                core::mean_hidden_activation(*sae, dataset, dataset.size()));
    std::printf("localized filters: %.0f%%\n",
                core::localized_filter_fraction(sae->w1()) * 100);
  } else if (auto* rbm = dynamic_cast<const core::Rbm*>(&model)) {
    std::printf("reconstruction error: %.5f\n",
                core::reconstruction_error(*rbm, dataset, dataset.size()));
    la::Matrix x(dataset.size(), dataset.dim());
    dataset.copy_batch(0, dataset.size(), x);
    core::Rbm::Workspace ws;
    std::printf("mean free energy: %.4f\n", rbm->free_energy(x, ws));
  } else if (auto* stack =
                 dynamic_cast<const core::StackedAutoencoder*>(&model)) {
    std::printf("layer-0 reconstruction error: %.5f\n",
                core::reconstruction_error(stack->layer(0), dataset,
                                           dataset.size()));
  } else if (auto* dbn = dynamic_cast<const core::Dbn*>(&model)) {
    std::printf("layer-0 reconstruction error: %.5f\n",
                core::reconstruction_error(dbn->layer(0), dataset,
                                           dataset.size()));
  }
}

int run(int argc, char** argv) {
  util::Options options = util::Options::parse(argc, argv);
  options.declare("model", "checkpoint path (.dpae/.dprb/.dpsa/.dpdb)");
  options.declare("data", "path to a DPDS dataset file");
  options.declare("idx", "path to an IDX3 image file");
  options.declare("synthetic", "built-in generator: digits | natural", "digits");
  options.declare("examples", "synthetic examples to generate", "1024");
  options.declare("patch", "synthetic patch side", "8");
  options.declare("filters", "render this many first-layer filters as ASCII",
                  "0");
  options.declare("export-codes", "write the encoded dataset to this path");
  options.declare("profile",
                  "write a Chrome-trace JSON of the evaluation's host "
                  "timeline to this path");
  options.declare("help", "print usage");
  if (options.has("help")) {
    std::printf("%s", options.help("deepphi_eval").c_str());
    return 0;
  }
  options.validate();
  DEEPPHI_CHECK_MSG(options.has("model"), "--model=<checkpoint> is required");
  if (options.has("profile")) {
    obs::set_thread_name("main");
    obs::Profiler::enable(true);
  }

  const std::string path = options.get_string("model");
  std::unique_ptr<core::Encoder> model = model_io::load_any(path).model;
  std::printf("%s\n", model->describe().c_str());

  data::Dataset dataset = load_data(options);
  la::Matrix x(dataset.size(), dataset.dim());
  dataset.copy_batch(0, dataset.size(), x);

  print_model_metrics(*model, dataset);

  la::Matrix codes;
  model->encode(x, codes);
  double mean = 0;
  for (la::Index i = 0; i < codes.size(); ++i) mean += codes.data()[i];
  std::printf("codes: %lldd, mean activity %.4f\n",
              static_cast<long long>(codes.cols()),
              mean / static_cast<double>(codes.size()));
  maybe_export_codes(options, codes);

  const int filters = static_cast<int>(options.get_int("filters"));
  if (filters > 0) {
    if (const la::Matrix* w = first_layer_weights(*model))
      print_filters(*w, filters);
    else
      std::printf("(model has no renderable first-layer filters)\n");
  }

  if (options.has("profile")) {
    const std::string out = options.get_string("profile");
    obs::Profiler::write_chrome_json(out);
    std::printf("profile written to %s\n", out.c_str());
  }
  return 0;
}

}  // namespace

int main(int argc, char** argv) {
  try {
    return run(argc, argv);
  } catch (const std::exception& e) {
    std::fprintf(stderr, "deepphi_eval: %s\n", e.what());
    std::fprintf(stderr, "run with --help for usage\n");
    return 1;
  }
}

// Extension bench A4 — the optimization-method families of the paper's
// related-work section, compared on a REAL (executed, not simulated) small
// problem:
//  * mini-batch first-order rules: SGD, SGD+momentum, Adagrad (the
//    "adaptive learning rate" category);
//  * batch methods: L-BFGS and nonlinear CG ("easier to parallelize ...
//    however slower to converge since one update involves much more
//    computation than SGD").
//
// Reports the final cost and the number of gradient-equivalent evaluations
// each method needed.
#include <cstdio>

#include "bench_common.hpp"
#include "core/cg.hpp"
#include "core/lbfgs.hpp"
#include "core/trainer.hpp"
#include "data/patches.hpp"
#include "util/timer.hpp"

int bench_main(int argc, char** argv) {
  using namespace deepphi;
  util::Options options = util::Options::parse(argc, argv);
  bench::declare_common_flags(options);
  options.declare("examples", "training examples", "2048");
  options.declare("epochs", "epochs for the SGD-family runs", "6");
  options.validate();

  bench::banner("Optimizer comparison — SGD family vs batch methods",
                "Sparse Autoencoder 64->32 on synthetic digit patches,\n"
                "executed for real on this machine.");

  const la::Index examples = options.get_int("examples");
  const int epochs = static_cast<int>(options.get_int("epochs"));
  data::Dataset patches = data::make_digit_patch_dataset(examples, 8, 2026);

  core::SaeConfig mcfg;
  mcfg.visible = 64;
  mcfg.hidden = 32;
  mcfg.beta = 0.3f;

  util::Table table({"method", "final_cost", "grad_evals", "wall_s"});

  // SGD family through the Trainer.
  struct SgdCase {
    const char* name;
    core::OptimizerConfig cfg;
  };
  core::OptimizerConfig sgd;
  sgd.lr = 0.5f;
  core::OptimizerConfig mom = sgd;
  mom.kind = core::OptimizerKind::kMomentum;
  mom.lr = 0.2f;
  core::OptimizerConfig ada = sgd;
  ada.kind = core::OptimizerKind::kAdagrad;
  ada.lr = 0.1f;
  for (const SgdCase& c : {SgdCase{"sgd", sgd}, SgdCase{"sgd+momentum", mom},
                           SgdCase{"adagrad", ada}}) {
    core::SparseAutoencoder model(mcfg, 11);
    core::TrainerConfig tcfg;
    tcfg.batch_size = 128;
    tcfg.chunk_examples = 1024;
    tcfg.epochs = epochs;
    tcfg.policy = core::ExecPolicy::kHost;
    tcfg.optimizer = c.cfg;
    util::Timer timer;
    const core::TrainReport report = core::Trainer(tcfg).train(model, patches);
    table.add_row({c.name, util::Table::cell(report.final_cost),
                   util::Table::cell(report.batches),
                   util::Table::cell(timer.seconds())});
  }

  // Batch methods on the full-dataset objective.
  la::Matrix x(patches.size(), patches.dim());
  patches.copy_batch(0, patches.size(), x);
  auto make_objective = [&](core::SparseAutoencoder& model,
                            core::SparseAutoencoder::Workspace& ws,
                            core::AeGradients& grads) {
    return [&](const float* p, float* g) {
      model.set_params(p);
      const double cost = model.gradient(x, ws, grads, true);
      core::SparseAutoencoder::flatten(grads, g);
      return cost;
    };
  };
  {
    core::SparseAutoencoder model(mcfg, 11);
    core::SparseAutoencoder::Workspace ws;
    core::AeGradients grads;
    std::vector<float> params(static_cast<std::size_t>(model.param_count()));
    model.get_params(params.data());
    core::LbfgsConfig lcfg;
    lcfg.max_iterations = 60;
    util::Timer timer;
    const auto report =
        core::lbfgs_minimize(make_objective(model, ws, grads), params, lcfg);
    table.add_row({"l-bfgs (batch)", util::Table::cell(report.final_cost),
                   util::Table::cell(static_cast<long long>(report.objective_evals)),
                   util::Table::cell(timer.seconds())});
  }
  {
    core::SparseAutoencoder model(mcfg, 11);
    core::SparseAutoencoder::Workspace ws;
    core::AeGradients grads;
    std::vector<float> params(static_cast<std::size_t>(model.param_count()));
    model.get_params(params.data());
    core::CgConfig ccfg;
    ccfg.max_iterations = 60;
    util::Timer timer;
    const auto report =
        core::cg_minimize(make_objective(model, ws, grads), params, ccfg);
    table.add_row({"nonlinear cg (batch)", util::Table::cell(report.final_cost),
                   util::Table::cell(static_cast<long long>(report.objective_evals)),
                   util::Table::cell(timer.seconds())});
  }

  bench::emit(options, table, bench::Clock::kMeasured);
  std::printf("note: SGD-family evals are mini-batch gradients (cheap); batch-\n"
              "method evals are full-dataset gradients (grad_evals x dataset).\n");
  return 0;
}

int main(int argc, char** argv) {
  return deepphi::bench::guarded_main(argc, argv, bench_main);
}

// Reproduces paper Table I: time of the stacked-autoencoder pre-training
// after each optimization step, on 60 and on 30 Phi cores.
//
// Paper setup: a four-layer network 1024-512-256-128, batch 10,000, 200
// iterations per layer; rows Baseline → OpenMP → OpenMP+MKL → Improved
// OpenMP+MKL; final row the fully-optimized vs baseline speedup (paper:
// ≈302× at 60 cores, ≈197× at 30). Every ladder level is a real code path
// in this repository (core/levels.hpp); the stats are the exact work those
// paths record, taken from a dry run of each.
#include <cstdio>

#include "bench_common.hpp"
#include "core/levels.hpp"

namespace {

using namespace deepphi;
using core::OptLevel;

// One ladder level's simulated time for the whole 3-layer pre-training.
double stacked_time(const phi::MachineSpec& spec, OptLevel level) {
  const la::Index dims[] = {1024, 512, 256, 128};
  const la::Index batch = 10000;
  const int iterations = 200;
  const int threads = core::level_threads(level, spec.cores * spec.threads_per_core);
  const phi::CostModel model(spec);
  double total = 0;
  for (int layer = 0; layer < 3; ++layer) {
    const phi::KernelStats stats =
        bench::sae_step_stats(dims[layer], dims[layer + 1], batch, level)
            .scaled(iterations);
    total += model.evaluate(stats, threads).compute_s();
  }
  return total;
}

}  // namespace

int main(int argc, char** argv) {
  using namespace deepphi;
  util::Options options = util::Options::parse(argc, argv);
  bench::declare_common_flags(options);
  options.validate();

  bench::banner("Table I — performance after each optimization step",
                "Stacked Autoencoder 1024-512-256-128, batch 10,000, 200\n"
                "iterations per layer, on 60 and 30 Phi cores.");

  const phi::MachineSpec phi60 = phi::xeon_phi_5110p();
  const phi::MachineSpec phi30 = phi::xeon_phi_5110p(30);

  util::Table table({"optimization step", "60 cores (s)", "30 cores (s)",
                     "paper 60c (s)"});
  const char* paper[] = {"16042", "289", "97", "53"};
  double base60 = 0, base30 = 0, final60 = 0, final30 = 0;
  int row = 0;
  for (OptLevel level : {OptLevel::kBaseline, OptLevel::kOpenMp,
                         OptLevel::kOpenMpMkl, OptLevel::kImproved}) {
    const double t60 = stacked_time(phi60, level);
    const double t30 = stacked_time(phi30, level);
    if (level == OptLevel::kBaseline) {
      base60 = t60;
      base30 = t30;
    }
    final60 = t60;
    final30 = t30;
    table.add_row({core::to_string(level), util::Table::cell(t60),
                   util::Table::cell(t30), paper[row++]});
  }
  table.add_row({"speedup (fully-optimized vs baseline)",
                 util::Table::cell(base60 / final60),
                 util::Table::cell(base30 / final30), "302.7"});
  bench::emit(options, table, bench::Clock::kSimulated);
  return 0;
}

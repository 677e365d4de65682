// Ablation A2: the paper's "Improved" step — "we finally combine several
// loops together to make the granularity more suitable for our platform".
//
// Compares, per training batch and per whole run, the unfused
// (OpenMP+MKL) and fused (Improved) Sparse Autoencoder steps: kernel-launch
// counts, elementwise work class, and simulated time on the Phi. Also sweeps
// batch size, since small batches make the fixed per-launch cost relatively
// larger.
#include <cstdio>

#include "bench_common.hpp"
#include "core/levels.hpp"

int main(int argc, char** argv) {
  using namespace deepphi;
  util::Options options = util::Options::parse(argc, argv);
  bench::declare_common_flags(options);
  options.validate();

  bench::banner("Granularity ablation — fused vs unfused elementwise kernels",
                "SAE step at network 1024x4096 on the Phi: the 'Improved'\n"
                "loop-fusion step of Table I isolated.");

  const phi::CostModel cost(phi::xeon_phi_5110p());
  const la::Index visible = 1024, hidden = 4096;

  util::Table table({"batch", "variant", "launches", "loop_gflop",
                     "scalar_gflop", "sim_ms_per_batch", "fused_gain"});
  for (la::Index batch : {200, 1000, 10000}) {
    const phi::KernelStats unfused = bench::sae_step_stats(
        visible, hidden, batch, core::OptLevel::kOpenMpMkl);
    const phi::KernelStats fused = bench::sae_step_stats(
        visible, hidden, batch, core::OptLevel::kImproved);
    const double t_unfused = cost.evaluate(unfused, 240).compute_s();
    const double t_fused = cost.evaluate(fused, 240).compute_s();
    table.add_row({util::Table::cell(static_cast<long long>(batch)),
                   "unfused (openmp+mkl)",
                   util::Table::cell(unfused.kernel_launches),
                   util::Table::cell(unfused.loop_flops / 1e9),
                   util::Table::cell(unfused.naive_flops / 1e9),
                   util::Table::cell(t_unfused * 1e3), util::Table::cell(1.0)});
    table.add_row({util::Table::cell(static_cast<long long>(batch)),
                   "fused (improved)", util::Table::cell(fused.kernel_launches),
                   util::Table::cell(fused.loop_flops / 1e9),
                   util::Table::cell(fused.naive_flops / 1e9),
                   util::Table::cell(t_fused * 1e3),
                   util::Table::cell(t_unfused / t_fused)});
  }
  bench::emit(options, table, bench::Clock::kSimulated);
  std::printf("the fused step replaces scalar-class elementwise passes (incl.\n"
              "scalar exp) with single vectorized passes and fewer launches.\n");
  return 0;
}

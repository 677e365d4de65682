// Reproduces paper Fig. 10: the fully-optimized Sparse Autoencoder on the
// Xeon Phi vs a Matlab implementation on the host CPU (all 4 cores,
// Matlab's own optimized BLAS).
//
// Paper setup: 1M examples, mini-batch 10,000. Expected: ≈16× speedup for
// the Phi even though Matlab's matrix products go to an optimized BLAS —
// Matlab computes in double precision and materializes a temporary for
// every vectorized expression (see baseline/matlab_like.hpp).
#include <cstdio>

#include "baseline/matlab_like.hpp"
#include "bench_common.hpp"

int bench_main(int argc, char** argv) {
  using namespace deepphi;
  util::Options options = util::Options::parse(argc, argv);
  bench::declare_common_flags(options);
  options.declare("visible", "visible layer size", "1024");
  options.declare("hidden", "hidden layer size", "4096");
  options.validate();

  bench::banner("Fig. 10 — comparison with Matlab",
                "Sparse Autoencoder, 1M examples, batch 10,000: Matlab on the\n"
                "4-core host vs the fully-optimized code on the Phi.");

  const la::Index visible = options.get_int("visible");
  const la::Index hidden = options.get_int("hidden");
  const la::Index examples = 1000000, batch = 10000;
  // Improved level, pipelined chunk loading, on a one-card 240-thread Phi.
  phi::Cluster phi(phi::xeon_phi_5110p(), {});
  const core::TrainerConfig run{
      .batch_size = batch, .chunk_examples = 10000, .cluster = &phi};
  core::dry_train(core::SaeConfig{visible, hidden}, run, examples);
  const phi::KernelStats matlab_stats =
      baseline::matlab_sae_train_stats(examples, batch, visible, hidden);

  const double phi_s = phi.elapsed_s();
  const double matlab_s =
      bench::host_run_seconds(matlab_stats, phi::matlab_host(), 8);

  util::Table table({"implementation", "machine", "time_s", "speedup_vs_matlab"});
  table.add_row({"Matlab R2012a-style", "xeon-e5620 (4 cores)",
                 util::Table::cell(matlab_s), util::Table::cell(1.0)});
  table.add_row({"deepphi (Improved)", "xeon-phi-5110p (240 thr)",
                 util::Table::cell(phi_s), util::Table::cell(matlab_s / phi_s)});
  bench::emit(options, table, bench::Clock::kSimulated);
  std::printf("paper reports ~16x; shape target is Phi >> Matlab at this scale\n");
  return 0;
}

int main(int argc, char** argv) {
  return deepphi::bench::guarded_main(argc, argv, bench_main);
}

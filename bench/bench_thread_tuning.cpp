// Future-work #1 bench: automatic thread-count selection ("For now, we need
// to adjust the number of threads manually in our implementation. ... a
// balance should be found between parallelism and synchronization").
//
// For each network size, tune_threads() sweeps the candidate thread counts
// on the simulated Phi and reports the winner. Small networks prefer fewer
// threads (the fork/join bill grows with the team), large ones want the
// whole chip.
#include <cstdio>

#include "bench_common.hpp"
#include "core/levels.hpp"
#include "phi/tuning.hpp"

int bench_main(int argc, char** argv) {
  using namespace deepphi;
  util::Options options = util::Options::parse(argc, argv);
  bench::declare_common_flags(options);
  options.validate();

  bench::banner("Future work #1 — automatic thread-count tuning",
                "Best Phi thread count per SAE network size (batch 100,\n"
                "the small-batch regime where synchronization bites).");

  const phi::CostModel model(phi::xeon_phi_5110p());
  util::Table table({"network", "best_threads", "time_at_best_ms",
                     "time_at_240_ms", "gain_vs_240"});
  struct Net {
    la::Index visible, hidden;
  };
  for (const Net& net : {Net{16, 32}, Net{64, 128}, Net{256, 512},
                         Net{1024, 2048}, Net{4096, 8192}}) {
    const phi::KernelStats stats = bench::sae_step_stats(
        net.visible, net.hidden, 100, core::OptLevel::kImproved);
    const phi::ThreadTuneResult tuned = phi::tune_threads(model, stats);
    const double at_240 = model.evaluate(stats, 240).compute_s();
    table.add_row({std::to_string(net.visible) + "x" + std::to_string(net.hidden),
                   util::Table::cell(tuned.best_threads),
                   util::Table::cell(tuned.best_time_s * 1e3),
                   util::Table::cell(at_240 * 1e3),
                   util::Table::cell(at_240 / tuned.best_time_s)});
  }
  bench::emit(options, table, bench::Clock::kSimulated);
  std::printf("small networks leave most of the 240-thread fork/join bill\n"
              "unamortized; the tuner finds the knee automatically.\n");
  return 0;
}

int main(int argc, char** argv) {
  return deepphi::bench::guarded_main(argc, argv, bench_main);
}

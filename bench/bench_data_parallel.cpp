// Data-parallel replica sweep (docs/data_parallel.md): step throughput of R
// gradient replicas on disjoint core subsets vs the single 240-thread team,
// at the paper's Fig. 9 network (1024×4096) over its small-batch range.
//
// Why replicas win on the simulated 5110P: one team of 240 threads pays the
// full 60-core synchronization/efficiency tax (parallel efficiency ~0.54 at
// 240 threads) on EVERY kernel, while a replica's 60-thread team on its
// 15-core subset runs at ~0.83 efficiency. Splitting the machine into R
// teams that each process their own micro-batch recovers most of that tax;
// the price is one tree-combine + a single shared optimizer update per
// global step, which is bandwidth-bound and amortizes over R micro-batches.
// Each replica subset is modeled with 1/R of the card's cores AND 1/R of its
// DRAM bandwidth (the replicas share the memory system), so the win is not
// an artifact of over-crediting bandwidth.
//
// A second table reports REAL wall-clock seconds of core::Trainer's replicas
// on the host running the bench — honest numbers, not simulation: on a host
// with few cores the replicas mostly serialize and the combine is pure
// overhead, so do not expect the simulated speedup there.
#include <cstdio>

#include "bench_common.hpp"
#include "core/levels.hpp"
#include "data/patches.hpp"

namespace {

using namespace deepphi;
using core::OptLevel;

// Simulated seconds of one data-parallel global step at Fig. 9 scale:
// max over replicas of the per-slot gradient (they run concurrently on
// equal-sized shards, so max == any) plus the shared combine + update.
struct StepCost {
  double replica_s = 0;  // per-slot gradient on the replica's core subset
  double combine_s = 0;  // tree all-reduce + optimizer update, full machine
  double step_s() const { return replica_s + combine_s; }
};

StepCost dp_step_cost(bool rbm, la::Index batch, int replicas) {
  const la::Index visible = 1024, hidden = 4096;
  const int threads = 240 / replicas;
  phi::MachineSpec replica_spec = phi::xeon_phi_5110p(60 / replicas);
  replica_spec.mem_bw_gb_s /= replicas;  // replicas share the DRAM system
  const phi::CostModel replica_model(replica_spec);
  const phi::CostModel full_model(phi::xeon_phi_5110p());

  // Shape-only models (phi::DryRun): only their recorded work is used.
  phi::DryRun dry;
  core::SparseAutoencoder sae(core::SaeConfig{visible, hidden}, 0);
  core::Rbm rbm_model(core::RbmConfig{visible, hidden}, 0);
  const phi::KernelStats gradient = rbm
                                        ? bench::gradient_stats(rbm_model, batch)
                                        : bench::gradient_stats(sae, batch);
  // All R slots are live on the one card: the full tree + mean + update.
  const phi::KernelStats shared =
      rbm ? core::card_combine_stats(rbm_model, replicas, replicas, true, {})
          : core::card_combine_stats(sae, replicas, replicas, true, {});

  StepCost cost;
  cost.replica_s = replica_model.evaluate(gradient, threads).compute_s();
  cost.combine_s = full_model.evaluate(shared, 240).compute_s();
  return cost;
}

void run_model(const util::Options& options, bool rbm) {
  std::printf("--- %s, network 1024x4096, simulated 5110P at 240 threads ---\n",
              rbm ? "RBM (CD-1)" : "Sparse Autoencoder");
  util::Table table({"batch", "replicas", "threads_per_replica", "slot_rows",
                     "step_ms", "krows_per_s", "speedup"});
  for (la::Index batch : {200, 500, 1000, 2000}) {
    double single_rows_per_s = 0;
    for (int replicas : {1, 2, 4, 6}) {
      const StepCost cost = dp_step_cost(rbm, batch, replicas);
      const double rows_per_s =
          static_cast<double>(replicas) * batch / cost.step_s();
      if (replicas == 1) single_rows_per_s = rows_per_s;
      table.add_row({util::Table::cell(static_cast<long long>(batch)),
                     util::Table::cell(static_cast<long long>(replicas)),
                     util::Table::cell(static_cast<long long>(240 / replicas)),
                     util::Table::cell(static_cast<long long>(batch)),
                     util::Table::cell(cost.step_s() * 1e3),
                     util::Table::cell(rows_per_s / 1e3),
                     util::Table::cell(rows_per_s / single_rows_per_s)});
    }
  }
  bench::emit(options, table, bench::Clock::kSimulated);
}

// Real wall-clock of core::Trainer's replicas (no simulation).
void run_host_table(const util::Options& options) {
  std::printf("--- host wall clock (this machine, real execution) ---\n");
  util::Table table(
      {"model", "replicas", "accum", "batches", "updates", "wall_s"});
  const data::Dataset data = data::make_digit_patch_dataset(4096, 8, 42);
  for (const bool rbm : {false, true}) {
    for (const int replicas : {1, 2, 4}) {
      core::TrainerConfig cfg;
      cfg.batch_size = 128;
      cfg.chunk_examples = 2048;
      cfg.epochs = 2;
      cfg.level = OptLevel::kImproved;
      cfg.replicas = replicas;
      cfg.seed = 42;
      core::Trainer trainer(cfg);
      core::TrainReport report;
      if (rbm) {
        core::RbmConfig mcfg;
        mcfg.visible = data.dim();
        mcfg.hidden = 256;
        core::Rbm model(mcfg, 7);
        report = trainer.train(model, data);
      } else {
        core::SaeConfig mcfg;
        mcfg.visible = data.dim();
        mcfg.hidden = 256;
        core::SparseAutoencoder model(mcfg, 7);
        report = trainer.train(model, data);
      }
      table.add_row({util::Table::cell(rbm ? "rbm" : "sae"),
                     util::Table::cell(static_cast<long long>(replicas)),
                     util::Table::cell(static_cast<long long>(1)),
                     util::Table::cell(static_cast<long long>(report.batches)),
                     util::Table::cell(static_cast<long long>(report.updates)),
                     util::Table::cell(report.wall_seconds)});
    }
  }
  bench::emit(options, table, bench::Clock::kMeasured);
}

}  // namespace

int main(int argc, char** argv) {
  using namespace deepphi;
  util::Options options = util::Options::parse(argc, argv);
  bench::declare_common_flags(options);
  options.declare("model", "which simulated sweep to run: sae, rbm, or both",
                  "both");
  options.declare("skip-host", "skip the real host wall-clock table");
  options.validate();

  bench::banner("Data-parallel replicas — replica count sweep",
                "Step throughput of R replica workers (T/R threads each, "
                "deterministic tree all-reduce) vs one 240-thread team at "
                "the Fig. 9 network and batch range.");
  const std::string which = options.get_string("model");
  if (which == "sae" || which == "both") run_model(options, /*rbm=*/false);
  if (which == "rbm" || which == "both") run_model(options, /*rbm=*/true);
  if (!options.has("skip-host")) run_host_table(options);
  return 0;
}

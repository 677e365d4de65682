// Multi-card cluster scaling and collective-algorithm sweep
// (docs/cluster.md): what the paper's single-coprocessor training would
// gain from a rack of cards joined by a modeled interconnect.
//
// Table 1 — scaling: simulated step throughput of C cards × R replicas at
// the Fig. 9 network (1024×4096). Honest resource split: each replica's
// team gets 1/R of ITS card's cores and DRAM bandwidth; every card then
// pays its local combine, and the inter-card all-reduce (size-adaptive
// "auto" collective on the chosen interconnect) serializes after the
// slowest card. Communication share is reported per point — the number
// that decides whether more cards still pay.
//
// Table 2 — collective sweep: modeled all-reduce milliseconds for tree /
// recursive-doubling / ring vs message size, cards and interconnect, plus
// what "auto" picks. Ring's 2(N−1)·B/N pipelined rounds win large messages
// on concurrent PCIe p2p links; recursive doubling's log2(N) latency rounds
// win small ones; a host-staged (shared-medium) interconnect hands large
// messages back to the tree. "auto" is argmin of the three, so its column
// must equal the best fixed column at every row.
//
// Table 3 — real execution: core::Trainer with a phi::Cluster
// attached, on this build machine. Wall seconds are honest host numbers;
// the collective/wire/share columns are the cluster's accumulated modeled
// interconnect activity for the same run.
#include <cstdio>
#include <string>
#include <vector>

#include "bench_common.hpp"
#include "core/levels.hpp"
#include "data/patches.hpp"
#include "parallel/collectives.hpp"
#include "phi/cluster.hpp"
#include "phi/interconnect.hpp"

namespace {

using namespace deepphi;
using core::OptLevel;
using par::Collective;

// Simulated seconds of one cluster global step at Fig. 9 scale.
struct StepCost {
  double replica_s = 0;  // per-slot gradient, 1/R of one card
  double combine_s = 0;  // slowest card's local tree + root scal/update
  double comm_s = 0;     // inter-card all-reduce on the interconnect
  Collective algorithm = Collective::kTree;
  double step_s() const { return replica_s + combine_s + comm_s; }
};

StepCost cluster_step_cost(la::Index batch, int cards, int replicas,
                           const phi::InterconnectSpec& link) {
  const la::Index visible = 1024, hidden = 4096;
  const int threads = 240 / replicas;
  phi::MachineSpec replica_spec = phi::xeon_phi_5110p(60 / replicas);
  replica_spec.mem_bw_gb_s /= replicas;  // replicas share their card's DRAM
  const phi::CostModel replica_model(replica_spec);
  const phi::CostModel card_model(phi::xeon_phi_5110p());

  // A shape-only model (phi::DryRun): only its recorded work is used.
  phi::DryRun dry;
  core::SparseAutoencoder model(core::SaeConfig{visible, hidden}, 0);
  const phi::KernelStats gradient = bench::gradient_stats(model, batch);
  const double model_bytes = 4.0 * static_cast<double>(model.param_count());

  // Every card folds its R local slots; the root additionally scales and
  // applies the update. Cards run concurrently, so the combine cost is the
  // root card's (the largest).
  const int global_slots = cards * replicas;
  const phi::KernelStats root_combine = core::card_combine_stats(
      model, replicas, global_slots, /*root=*/true, {});

  StepCost cost;
  cost.replica_s = replica_model.evaluate(gradient, threads).compute_s();
  cost.combine_s = card_model.evaluate(root_combine, 240).compute_s();
  if (cards > 1) {
    cost.algorithm =
        par::resolve_collective(Collective::kAuto, model_bytes, cards, link);
    cost.comm_s = par::all_reduce_schedule(cost.algorithm, model_bytes, cards)
                      .time_s(link);
  }
  return cost;
}

void run_scaling(const util::Options& options,
                 const phi::InterconnectSpec& link) {
  std::printf(
      "--- scaling: C cards x R replicas, network 1024x4096, %s ---\n",
      link.name.c_str());
  util::Table table({"cards", "replicas", "batch", "collective", "step_ms",
                     "comm_ms", "comm_share", "krows_per_s", "speedup"});
  const la::Index batch = 1000;
  double single_rows_per_s = 0;
  for (int cards : {1, 2, 4, 8}) {
    for (int replicas : {1, 4}) {
      const StepCost cost = cluster_step_cost(batch, cards, replicas, link);
      const double rows_per_s = static_cast<double>(cards) * replicas * batch /
                                cost.step_s();
      if (cards == 1 && replicas == 1) single_rows_per_s = rows_per_s;
      table.add_row(
          {util::Table::cell(static_cast<long long>(cards)),
           util::Table::cell(static_cast<long long>(replicas)),
           util::Table::cell(static_cast<long long>(batch)),
           util::Table::cell(cards > 1 ? par::collective_name(cost.algorithm)
                                       : "-"),
           util::Table::cell(cost.step_s() * 1e3),
           util::Table::cell(cost.comm_s * 1e3),
           util::Table::cell(cost.comm_s / cost.step_s()),
           util::Table::cell(rows_per_s / 1e3),
           util::Table::cell(rows_per_s / single_rows_per_s)});
    }
  }
  bench::emit(options, table, bench::Clock::kSimulated);
}

void run_collective_sweep(const util::Options& options) {
  std::printf("--- all-reduce algorithms vs message size (modeled ms) ---\n");
  util::Table table({"interconnect", "cards", "message_mb", "tree_ms",
                     "rdouble_ms", "ring_ms", "auto_ms", "auto_alg",
                     "best_fixed"});
  const Collective fixed[] = {Collective::kTree, Collective::kRecursiveDoubling,
                              Collective::kRing};
  for (const phi::InterconnectSpec& link :
       {phi::pcie_p2p_interconnect(), phi::host_staged_interconnect()}) {
    for (int cards : {2, 4, 8}) {
      for (double mb : {0.0625, 1.0, 16.0, 64.0, 256.0}) {
        const double bytes = mb * 1024.0 * 1024.0;
        double best_s = 1e300;
        Collective best = Collective::kTree;
        std::vector<double> ms;
        for (Collective c : fixed) {
          const double t =
              par::all_reduce_schedule(c, bytes, cards).time_s(link);
          ms.push_back(t * 1e3);
          if (t < best_s) {
            best_s = t;
            best = c;
          }
        }
        const Collective picked =
            par::resolve_collective(Collective::kAuto, bytes, cards, link);
        const double picked_s =
            par::all_reduce_schedule(picked, bytes, cards).time_s(link);
        table.add_row({util::Table::cell(link.name),
                       util::Table::cell(static_cast<long long>(cards)),
                       util::Table::cell(mb),
                       util::Table::cell(ms[0]),
                       util::Table::cell(ms[1]),
                       util::Table::cell(ms[2]),
                       util::Table::cell(picked_s * 1e3),
                       util::Table::cell(par::collective_name(picked)),
                       util::Table::cell(par::collective_name(best))});
      }
    }
  }
  bench::emit(options, table, bench::Clock::kSimulated);
}

// Real execution on this machine with a Cluster attached: host wall clock
// plus the cluster's accumulated modeled communication for the same run.
void run_real_cluster(const util::Options& options) {
  std::printf("--- host execution with attached cluster (real training) ---\n");
  util::Table table({"cards", "collective", "updates", "allreduces", "wire_mb",
                     "comm_ms", "sim_elapsed_ms", "comm_share", "wall_s"});
  const data::Dataset data = data::make_digit_patch_dataset(4096, 8, 42);
  for (int cards : {1, 2, 4}) {
    phi::ClusterConfig ccfg;
    ccfg.cards = cards;
    ccfg.interconnect = phi::pcie_p2p_interconnect();
    phi::Cluster cluster(phi::xeon_phi_5110p(), ccfg);

    core::TrainerConfig cfg;
    cfg.batch_size = 128;
    cfg.chunk_examples = 2048;
    cfg.epochs = 2;
    cfg.level = OptLevel::kImproved;
    cfg.replicas = 2;
    cfg.seed = 42;
    cfg.cluster = &cluster;

    core::SaeConfig mcfg;
    mcfg.visible = data.dim();
    mcfg.hidden = 256;
    core::SparseAutoencoder model(mcfg, 7);
    const double model_bytes = 4.0 * static_cast<double>(model.param_count());
    const Collective algorithm =
        cards > 1 ? par::resolve_collective(Collective::kAuto, model_bytes,
                                            cards, cluster.interconnect())
                  : Collective::kTree;

    core::Trainer trainer(cfg);
    const core::TrainReport report = trainer.train(model, data);
    const phi::ClusterCommStats& comm = cluster.comm();
    table.add_row(
        {util::Table::cell(static_cast<long long>(cards)),
         util::Table::cell(cards > 1 ? par::collective_name(algorithm) : "-"),
         util::Table::cell(static_cast<long long>(report.updates)),
         util::Table::cell(static_cast<long long>(comm.collectives)),
         util::Table::cell(comm.wire_bytes / (1024.0 * 1024.0)),
         util::Table::cell(comm.seconds * 1e3),
         util::Table::cell(cluster.elapsed_s() * 1e3),
         util::Table::cell(cluster.comm_share()),
         util::Table::cell(report.wall_seconds)});
  }
  bench::emit(options, table, bench::Clock::kMeasured);
}

}  // namespace

int main(int argc, char** argv) {
  using namespace deepphi;
  util::Options options = util::Options::parse(argc, argv);
  bench::declare_common_flags(options);
  options.declare("interconnect",
                  "interconnect for the scaling table: pcie-p2p | host-staged",
                  "pcie-p2p");
  options.declare("skip-host", "skip the real host execution table");
  options.validate();

  bench::banner(
      "Multi-card cluster — scaling and collective sweep",
      "Simulated step throughput of C cards x R replicas with an "
      "interconnect-modeled all-reduce, the tree/rdouble/ring schedule "
      "sweep the size-adaptive selection is built on, and a real "
      "cluster-attached training run.");
  const phi::InterconnectSpec link =
      phi::parse_interconnect(options.get_string("interconnect"));
  run_scaling(options, link);
  run_collective_sweep(options);
  if (!options.has("skip-host")) run_real_cluster(options);
  return 0;
}

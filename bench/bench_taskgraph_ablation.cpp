// Ablation A1 (paper Fig. 6): executing the RBM CD-1 gradient as a
// dependency task graph so independent matrix operations overlap, vs
// serializing every operation.
//
// The step is executed for real (measure mode) at a moderate size to collect
// per-node KernelStats; the cost model then compares:
//  * serialized — Σ over nodes of the node's simulated time;
//  * overlapped — per dependency level, the slowest node governs (nodes in
//    one level are independent; Fig. 6's "computations that can be computed
//    concurrently").
#include <cstdio>
#include <map>

#include "bench_common.hpp"
#include "core/rbm_taskgraph.hpp"
#include "data/patches.hpp"

int bench_main(int argc, char** argv) {
  using namespace deepphi;
  util::Options options = util::Options::parse(argc, argv);
  bench::declare_common_flags(options);
  options.declare("batch", "batch size for the measured step", "128");
  options.declare("visible", "visible units", "1024");
  options.declare("hidden", "hidden units", "2048");
  options.validate();

  bench::banner("Fig. 6 ablation — concurrent matrix operations (task graph)",
                "RBM CD-1 gradient: per-node work measured for real, then the\n"
                "serialized vs level-overlapped execution compared on the Phi.");

  const la::Index batch = options.get_int("batch");
  const la::Index visible = options.get_int("visible");
  const la::Index hidden = options.get_int("hidden");

  core::RbmConfig cfg;
  cfg.visible = visible;
  cfg.hidden = hidden;
  core::Rbm model(cfg, 17);
  data::Dataset patches = data::make_digit_patch_dataset(batch, 32, 23);
  // Patches are 32x32=1024-dim; tile or trim to the requested visible size.
  la::Matrix v1 = la::Matrix::uninitialized(batch, visible);
  for (la::Index r = 0; r < batch; ++r)
    for (la::Index c = 0; c < visible; ++c)
      v1(r, c) = patches.example(r % patches.size())[c % patches.dim()];

  par::ThreadPool pool(4);
  core::RbmTaskGraphStep step(model, pool);
  core::Rbm::Workspace ws;
  core::RbmGradients grads;
  step.run(v1, ws, grads, util::Rng(7));

  const phi::CostModel cost(phi::xeon_phi_5110p());
  const auto reports = step.node_reports();

  util::Table node_table({"node", "level", "gemm_gflop", "sim_ms"});
  double serialized = 0;
  std::map<std::size_t, double> level_max;
  for (const auto& r : reports) {
    const double t = cost.evaluate(r.stats, 240).compute_s();
    serialized += t;
    level_max[r.level] = std::max(level_max[r.level], t);
    node_table.add_row({r.name, util::Table::cell(static_cast<long long>(r.level)),
                        util::Table::cell(r.stats.gemm_flops / 1e9),
                        util::Table::cell(t * 1e3)});
  }
  double overlapped = 0;
  for (const auto& [level, t] : level_max) overlapped += t;
  bench::emit(options, node_table, bench::Clock::kSimulated);

  util::Table summary({"execution", "sim_ms_per_step", "speedup"});
  summary.add_row({"serialized (no graph)", util::Table::cell(serialized * 1e3),
                   util::Table::cell(1.0)});
  summary.add_row({"task graph (level overlap)",
                   util::Table::cell(overlapped * 1e3),
                   util::Table::cell(serialized / overlapped)});
  bench::emit(options, summary, bench::Clock::kSimulated);
  std::printf("observed pool concurrency during the measured run: %d\n",
              step.last_max_concurrency());
  std::printf("critical path: %zu of %zu nodes\n",
              step.graph().critical_path_length(), step.graph().node_count());
  return 0;
}

int main(int argc, char** argv) {
  return deepphi::bench::guarded_main(argc, argv, bench_main);
}

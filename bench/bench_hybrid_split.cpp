// Future-work #2 bench: combined host + coprocessor execution ("a further
// combination between Xeon and Intel Xeon Phi can bring us higher
// efficiency").
//
// Each mini-batch is split: a fraction goes to the Phi, the rest to the
// 4-core host; the per-batch step time is the slower of the two plus the
// PCIe gradient/parameter exchange. tune_hybrid_split() sweeps the fraction.
#include <cstdio>

#include "bench_common.hpp"
#include "core/levels.hpp"
#include "phi/tuning.hpp"

int main(int argc, char** argv) {
  using namespace deepphi;
  util::Options options = util::Options::parse(argc, argv);
  bench::declare_common_flags(options);
  options.declare("visible", "visible layer size", "1024");
  options.declare("hidden", "hidden layer size", "4096");
  options.declare("batch", "mini-batch size", "1000");
  options.validate();

  const la::Index visible = options.get_int("visible");
  const la::Index hidden = options.get_int("hidden");
  const la::Index batch = options.get_int("batch");

  bench::banner("Future work #2 — hybrid host + Phi execution",
                "Splitting every mini-batch between the Phi (240 thr) and the\n"
                "4-core host; per-batch time vs the Phi's share.");

  const phi::CostModel phi_model(phi::xeon_phi_5110p());
  const phi::CostModel host_model(phi::xeon_e5620());
  const double param_bytes = 2.0 * 4.0 * static_cast<double>(visible) * hidden;

  auto batch_stats = [&](long long rows) {
    return bench::sae_step_stats(visible, hidden, rows,
                                 core::OptLevel::kImproved);
  };
  const phi::HybridSplitResult result = phi::tune_hybrid_split(
      phi_model, 240, host_model, 8, batch_stats, batch, param_bytes, 0.05);

  util::Table table({"phi_fraction", "per_batch_ms"});
  for (const auto& [fraction, seconds] : result.curve)
    table.add_row({util::Table::cell(fraction), util::Table::cell(seconds * 1e3)});
  bench::emit(options, table, bench::Clock::kSimulated);

  std::printf("host only: %.2f ms   phi only: %.2f ms   best: %.2f ms at "
              "phi share %.2f (%.2fx over phi-only)\n",
              result.host_only_s * 1e3, result.phi_only_s * 1e3,
              result.best_time_s * 1e3, result.best_fraction,
              result.phi_only_s / result.best_time_s);
  return 0;
}

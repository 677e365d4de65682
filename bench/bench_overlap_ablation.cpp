// Reproduces the paper's §IV.A loading-thread experiment (Fig. 5):
// "it costs 13s to transfer 10,000×4096 samples from the host to Intel Xeon
//  Phi and our training time is about 68s. This means that about 17% of the
//  total time is spent on transferring training data" — and the loading
// thread with a multi-chunk device ring buffer hides nearly all of it.
//
// Two scenarios:
//  * paper-calibrated — per-chunk compute pinned to the paper's 68 s;
//  * accounting-based — per-chunk compute taken from the real Improved-level
//    SAE step stats at network 1024×4096.
#include <cstdio>

#include "bench_common.hpp"
#include "core/levels.hpp"

namespace {

using namespace deepphi;

void run_scenario(const util::Options& options, const std::string& name,
                  const phi::KernelStats& per_chunk, double chunk_bytes,
                  int n_chunks) {
  std::printf("--- scenario: %s (%d chunks) ---\n", name.c_str(), n_chunks);
  util::Table table({"loading", "ring", "total_s", "compute_busy_s",
                     "exposed_transfer_pct"});
  struct Config {
    bool async;
    int ring;
    const char* label;
  };
  for (const Config& c : {Config{false, 1, "synchronous"},
                          Config{true, 1, "loading thread, ring=1"},
                          Config{true, 2, "loading thread, ring=2"},
                          Config{true, 4, "loading thread, ring=4"}}) {
    phi::Device device(phi::xeon_phi_5110p_paper_loading());
    phi::Offload offload(device, phi::OffloadConfig{c.async, c.ring});
    const auto report = offload.process_chunks(n_chunks, chunk_bytes, per_chunk);
    table.add_row({c.label, util::Table::cell(static_cast<long long>(c.ring)),
                   util::Table::cell(report.total_s),
                   util::Table::cell(report.compute_busy_s),
                   util::Table::cell(report.exposed_transfer_fraction() * 100)});
  }
  bench::emit(options, table, bench::Clock::kSimulated);
}

}  // namespace

int main(int argc, char** argv) {
  using namespace deepphi;
  util::Options options = util::Options::parse(argc, argv);
  bench::declare_common_flags(options);
  options.validate();

  bench::banner("§IV.A ablation — loading thread & chunk ring buffer (Fig. 5)",
                "Transfer/compute overlap for 10,000x4096-sample chunks.");

  const double chunk_bytes = 10000.0 * 4096 * 4;  // the paper's chunk

  // Scenario 1: the paper's measured balance (13 s transfer, 68 s train).
  {
    const phi::CostModel model(phi::xeon_phi_5110p());
    phi::KernelStats unit = phi::gemm_contribution(1000, 4096, 1024);
    const double unit_s = model.evaluate(unit, 240).compute_s();
    run_scenario(options, "paper-calibrated (68 s compute per chunk)",
                 unit.scaled(68.0 / unit_s), chunk_bytes, 20);
  }

  // Scenario 2: the real Improved-level step at network 1024x4096.
  {
    // One chunk = 10 batches of 1000.
    const phi::KernelStats per_chunk =
        bench::sae_step_stats(1024, 4096, 1000, core::OptLevel::kImproved)
            .scaled(10.0);
    run_scenario(options, "accounting-based (SAE 1024x4096, batch 1000)",
                 per_chunk, chunk_bytes, 20);
  }
  std::printf(
      "paper: ~17%% of serialized time is transfer; a loading thread with a\n"
      "ring of >= 2 chunks removes nearly all of it (scenario 1). Scenario 2\n"
      "shows the flip side the paper's future work warns about: once the\n"
      "compute side is fully optimized, the measured loading path becomes the\n"
      "bottleneck and overlap alone cannot hide it (\"the transferring cost\n"
      "can be intolerable\").\n");
  return 0;
}

// The offload pipeline end to end: train for real on this machine while a
// simulated Xeon Phi card (a one-card phi::Cluster) is charged the recorded
// work, then show the Fig. 5 overlap on the card's timeline and what the run
// would have cost on the paper's machines.
//
//   $ ./offload_pipeline [--examples=8192]
#include <cstdio>

#include "core/trainer.hpp"
#include "data/patches.hpp"
#include "obs/profiler.hpp"
#include "phi/cluster.hpp"
#include "util/options.hpp"
#include "util/string_util.hpp"

int main(int argc, char** argv) {
  using namespace deepphi;
  util::Options options = util::Options::parse(argc, argv);
  options.declare("examples", "number of training patches", "8192");
  options.validate();

  std::printf("deepphi — offload pipeline demo (Fig. 5 on the simulated device)\n\n");

  // Train a small RBM for real; every kernel reports its work.
  data::Dataset patches =
      data::make_digit_patch_dataset(options.get_int("examples"), 8, 31);
  core::RbmConfig cfg;
  cfg.visible = 64;
  cfg.hidden = 64;
  core::Rbm model(cfg, 13);

  // The trainer drives the simulated card live: memory reservations in the
  // 8 GB arena plus one DMA + one compute event per chunk.
  phi::Cluster card(phi::xeon_phi_5110p_paper_loading(), {});
  const phi::Device& live_device = card.device(0);
  core::TrainerConfig tcfg;
  tcfg.batch_size = 256;
  tcfg.chunk_examples = 2048;
  tcfg.epochs = 2;
  tcfg.level = core::OptLevel::kImproved;
  tcfg.policy = core::ExecPolicy::kPhiOffload;
  tcfg.optimizer.lr = 0.2f;
  tcfg.cluster = &card;
  const core::TrainReport report = core::Trainer(tcfg).train(model, patches);

  std::printf("measured work: %s gemm, %s elementwise, %s transferred, "
              "%lld kernel launches\n",
              util::format_si(report.stats.gemm_flops, "flop").c_str(),
              util::format_si(report.stats.loop_flops, "flop").c_str(),
              util::format_bytes(report.stats.h2d_bytes).c_str(),
              static_cast<long long>(report.stats.kernel_launches));

  // The same run, dry, on each machine as a one-card cluster: pipelined
  // with the Fig. 5 loading thread (kPhiOffload), serialized without it.
  struct Machine {
    const char* label;
    phi::MachineSpec spec;
    int threads;
  };
  const auto simulated_s = [&](const Machine& m, core::ExecPolicy policy) {
    phi::ClusterConfig one_card;
    one_card.threads_per_card = m.threads;
    phi::Cluster machine(m.spec, one_card);
    core::TrainerConfig dry = tcfg;
    dry.policy = policy;
    dry.cluster = &machine;
    core::dry_train(cfg, dry, patches.rows());
    return machine.elapsed_s();
  };
  const Machine machines[] = {
      {"Xeon Phi 5110P, 240 threads", phi::xeon_phi_5110p(), 240},
      {"Xeon Phi 5110P, 60 threads", phi::xeon_phi_5110p(), 60},
      {"Xeon E5620, 4 cores", phi::xeon_e5620(), 8},
      {"Xeon E5620, 1 core", phi::xeon_e5620_single_core(), 1},
      {"modern AVX-512 server", phi::modern_avx512_server(), 64},
  };
  std::printf("\nsimulated time for this exact run:\n");
  for (const Machine& m : machines)
    std::printf("  %-28s pipelined %8.4fs   serialized %8.4fs\n", m.label,
                simulated_s(m, core::ExecPolicy::kPhiOffload),
                simulated_s(m, core::ExecPolicy::kHost));

  std::printf(
      "(note: on this tiny network the 240-thread Phi run is SLOWER than 60\n"
      " threads — fork/join cost dominates; the paper's own observation that\n"
      " \"the benefit brought by many cores is neutralized by the\n"
      " synchronization of threads when the network size is not big enough\")\n");

  // Zoom into the Fig. 5 overlap the live device recorded during training
  // (paper-measured loading path: transfers are visible on the timeline).
  std::printf("\nlive device timeline recorded during the run (first chunks):\n");
  std::printf("%s", live_device.trace().to_string(8).c_str());
  std::printf("compute busy %.3fs, dma busy %.3fs, overlapped %.3fs of %.3fs\n",
              live_device.trace().busy_s(phi::TraceEvent::Resource::kCompute),
              live_device.trace().busy_s(phi::TraceEvent::Resource::kDma),
              live_device.trace().overlap_s(), live_device.elapsed_s());
  const std::string trace_path = "deepphi_trace.json";
  obs::Profiler::write_chrome_json(trace_path, &live_device.trace());
  std::printf("Chrome-tracing JSON written to %s (open in ui.perfetto.dev)\n",
              trace_path.c_str());
  return 0;
}

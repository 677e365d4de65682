// Model mode must count exactly the work a real run records: core::dry_train
// runs the real trainer under phi::DryRun on a shape-only dataset, and its
// report must equal a real run's field for field (dry == wet). The sweep
// covers every code path the benches evaluate at paper scale: both models,
// the four Table I levels, the three update rules, CD-k variants, sampled
// and Gaussian visibles, the Fig. 6 task graph, ragged chunk tails and both
// execution policies. Every stat is an integer-valued sum below 2^53, so the
// comparison is exact. Also checks the simulated-time orderings the
// reproduction depends on (the Table I ladder, Phi vs single core, Matlab).
#include <sys/resource.h>

#include <algorithm>
#include <cmath>
#include <type_traits>

#include <gtest/gtest.h>

#include "baseline/matlab_like.hpp"
#include "core/trainer.hpp"
#include "phi/cost_model.hpp"
#include "phi/device.hpp"
#include "util/rng.hpp"
#include "util/timer.hpp"

namespace deepphi::core {
namespace {

// A real dataset shaped like the dry one; its values never affect the stats.
data::Dataset random_data(la::Index rows, la::Index dim) {
  util::Rng rng(rows * 31 + dim);
  la::Matrix m = la::Matrix::uninitialized(rows, dim);
  for (la::Index i = 0; i < m.size(); ++i)
    m.data()[i] = static_cast<float>(rng.uniform(0.1, 0.9));
  return data::Dataset(std::move(m));
}

template <typename ModelConfig>
TrainReport wet_train(const ModelConfig& model_config,
                      const TrainerConfig& config, la::Index rows) {
  using Model = std::conditional_t<std::is_same_v<ModelConfig, SaeConfig>,
                                   SparseAutoencoder, Rbm>;
  Model model(model_config, 7);
  return Trainer(config).train(model, random_data(rows, model_config.visible));
}

template <typename ModelConfig>
void expect_dry_equals_wet(const ModelConfig& model,
                           const TrainerConfig& config, la::Index rows) {
  const TrainReport wet = wet_train(model, config, rows);
  const TrainReport dry = dry_train(model, config, rows);
  EXPECT_TRUE(dry.stats == wet.stats) << "dry: " << dry.stats.to_string()
                                      << "\nwet: " << wet.stats.to_string();
  EXPECT_EQ(dry.chunks, wet.chunks);
  EXPECT_EQ(dry.batches, wet.batches);
  EXPECT_EQ(dry.updates, wet.updates);
}

// One chunk holding one batch: the per-step view the benches take.
TrainerConfig step_config(OptLevel level, la::Index batch,
                          OptimizerKind kind = OptimizerKind::kSgd) {
  return {.batch_size = batch,
          .chunk_examples = batch,
          .level = level,
          .policy = ExecPolicy::kHost,
          .optimizer = {.kind = kind}};
}

// Several chunks with ragged chunk and batch tails.
TrainerConfig run_config(OptLevel level, ExecPolicy policy) {
  return {.batch_size = 16, .chunk_examples = 64, .level = level,
          .policy = policy};
}

constexpr OptLevel kLevels[] = {OptLevel::kBaseline, OptLevel::kOpenMp,
                                OptLevel::kOpenMpMkl, OptLevel::kImproved};
constexpr OptimizerKind kOptimizers[] = {
    OptimizerKind::kSgd, OptimizerKind::kMomentum, OptimizerKind::kAdagrad};

// gtest names each case by dumping its bytes, and ctest shows that name, so
// the struct has no padding: four uninitialized padding bytes after `level`
// used to make the names differ from run to run. `optimizer` fills them.
struct LevelShapeCase {
  OptLevel level;
  OptimizerKind optimizer;
  la::Index batch, visible, hidden;
};
static_assert(std::has_unique_object_representations_v<LevelShapeCase>);

class SaeAccounting : public ::testing::TestWithParam<LevelShapeCase> {};

TEST_P(SaeAccounting, ModelEqualsMeasure) {
  const auto& p = GetParam();
  expect_dry_equals_wet(SaeConfig{p.visible, p.hidden},
                        step_config(p.level, p.batch, p.optimizer), p.batch);
}

INSTANTIATE_TEST_SUITE_P(
    LevelsAndShapes, SaeAccounting,
    ::testing::Values(
        LevelShapeCase{OptLevel::kBaseline, OptimizerKind::kSgd, 8, 12, 9},
        LevelShapeCase{OptLevel::kOpenMp, OptimizerKind::kSgd, 8, 12, 9},
        LevelShapeCase{OptLevel::kOpenMpMkl, OptimizerKind::kSgd, 8, 12, 9},
        LevelShapeCase{OptLevel::kImproved, OptimizerKind::kSgd, 8, 12, 9},
        LevelShapeCase{OptLevel::kBaseline, OptimizerKind::kSgd, 1, 5, 3},
        LevelShapeCase{OptLevel::kImproved, OptimizerKind::kSgd, 1, 5, 3},
        LevelShapeCase{OptLevel::kImproved, OptimizerKind::kSgd, 33, 20, 40},
        LevelShapeCase{OptLevel::kOpenMpMkl, OptimizerKind::kSgd, 17, 30, 11}));

TEST(SaeAccounting, MomentumAndAdagradUpdates) {
  for (OptLevel level : kLevels)
    for (OptimizerKind kind : kOptimizers) {
      SCOPED_TRACE(testing::Message()
                   << to_string(level) << " " << to_string(kind));
      expect_dry_equals_wet(SaeConfig{10, 7}, step_config(level, 6, kind), 6);
    }
}

class RbmAccounting : public ::testing::TestWithParam<LevelShapeCase> {};

TEST_P(RbmAccounting, ModelEqualsMeasure) {
  const auto& p = GetParam();
  expect_dry_equals_wet(RbmConfig{p.visible, p.hidden},
                        step_config(p.level, p.batch, p.optimizer), p.batch);
}

INSTANTIATE_TEST_SUITE_P(
    LevelsAndShapes, RbmAccounting,
    ::testing::Values(
        LevelShapeCase{OptLevel::kBaseline, OptimizerKind::kSgd, 8, 12, 9},
        LevelShapeCase{OptLevel::kOpenMp, OptimizerKind::kSgd, 8, 12, 9},
        LevelShapeCase{OptLevel::kOpenMpMkl, OptimizerKind::kSgd, 8, 12, 9},
        LevelShapeCase{OptLevel::kImproved, OptimizerKind::kSgd, 8, 12, 9},
        LevelShapeCase{OptLevel::kImproved, OptimizerKind::kSgd, 25, 16, 31}));

TEST(RbmAccounting, MomentumAndAdagradUpdates) {
  for (OptLevel level : kLevels)
    for (OptimizerKind kind : kOptimizers) {
      SCOPED_TRACE(testing::Message()
                   << to_string(level) << " " << to_string(kind));
      expect_dry_equals_wet(RbmConfig{10, 7}, step_config(level, 6, kind), 6);
    }
}

TEST(RbmAccounting, CdKAndSampleVisibleVariants) {
  for (int cd_k : {1, 2, 3}) {
    for (bool sv : {false, true}) {
      for (OptLevel level : kLevels) {
        SCOPED_TRACE(testing::Message() << "cd_k=" << cd_k << " sv=" << sv
                                        << " level=" << to_string(level));
        RbmConfig model{8, 5};
        model.cd_k = cd_k;
        model.sample_visible = sv;
        expect_dry_equals_wet(model, step_config(level, 6), 6);
      }
    }
  }
}

TEST(RbmAccounting, GaussianVisibleVariants) {
  for (int cd_k : {1, 2}) {
    for (bool sv : {false, true}) {
      for (OptLevel level : {OptLevel::kOpenMpMkl, OptLevel::kImproved}) {
        RbmConfig model{8, 5};
        model.cd_k = cd_k;
        model.sample_visible = sv;
        model.visible_type = VisibleType::kGaussian;
        expect_dry_equals_wet(model, step_config(level, 6), 6);
      }
    }
  }
}

TEST(RbmAccounting, TaskGraphModelEqualsMeasure) {
  TrainerConfig cfg = step_config(OptLevel::kImproved, 9);
  cfg.use_taskgraph = true;
  expect_dry_equals_wet(RbmConfig{10, 7}, cfg, 9);
}

// --- full training runs ---

TEST(TrainAccounting, SaeTrainerMatchesModel) {
  for (ExecPolicy policy : {ExecPolicy::kHost, ExecPolicy::kPhiOffload})
    for (OptLevel level : kLevels)
      expect_dry_equals_wet(SaeConfig{16, 8}, run_config(level, policy), 150);
  // 150 examples in chunks of 64: 64 + 64 + 22; batches of 16: 4 + 4 + 2.
  const TrainReport dry = dry_train(
      SaeConfig{16, 8}, run_config(OptLevel::kImproved, ExecPolicy::kHost),
      150);
  EXPECT_EQ(dry.chunks, 3);
  EXPECT_EQ(dry.batches, 10);
  EXPECT_EQ(dry.updates, 10);
}

TEST(TrainAccounting, RbmTrainerMatchesModelAcrossLevels) {
  for (ExecPolicy policy : {ExecPolicy::kHost, ExecPolicy::kPhiOffload})
    for (OptLevel level : kLevels)
      expect_dry_equals_wet(RbmConfig{16, 8}, run_config(level, policy), 130);
}

TEST(TrainAccounting, MultiEpochScales) {
  TrainerConfig cfg = run_config(OptLevel::kImproved, ExecPolicy::kHost);
  cfg.batch_size = 10;
  cfg.chunk_examples = 50;
  const TrainReport one = dry_train(SaeConfig{8, 6}, cfg, 100);
  cfg.epochs = 3;
  const TrainReport three = dry_train(SaeConfig{8, 6}, cfg, 100);
  EXPECT_TRUE(three.stats == one.stats.scaled(3.0));
  EXPECT_EQ(three.batches, 3 * one.batches);
}

TEST(TrainAccounting, CountsHandleShortTails) {
  // 105 examples, chunks of 50: 50+50+5; batches per chunk 5+5+1.
  TrainerConfig cfg = run_config(OptLevel::kImproved, ExecPolicy::kHost);
  cfg.batch_size = 10;
  cfg.chunk_examples = 50;
  const TrainReport dry = dry_train(SaeConfig{8, 6}, cfg, 105);
  EXPECT_EQ(dry.chunks, 3);
  EXPECT_EQ(dry.batches, 11);
}

TEST(TrainAccounting, RbmTaskGraphTrainerMatchesModel) {
  for (ExecPolicy policy : {ExecPolicy::kHost, ExecPolicy::kPhiOffload}) {
    TrainerConfig cfg = run_config(OptLevel::kImproved, policy);
    cfg.use_taskgraph = true;
    expect_dry_equals_wet(RbmConfig{16, 8}, cfg, 130);
  }
}

TEST(TrainAccounting, GaussianRbmTrainerMatchesModel) {
  RbmConfig model{16, 8};
  model.cd_k = 2;
  model.sample_visible = true;
  model.visible_type = VisibleType::kGaussian;
  TrainerConfig cfg = run_config(OptLevel::kImproved, ExecPolicy::kHost);
  cfg.batch_size = 20;
  cfg.chunk_examples = 50;
  expect_dry_equals_wet(model, cfg, 100);
}

TEST(TrainAccounting, TiedWeightsTrainerMatchesModel) {
  SaeConfig model{16, 8};
  model.tied_weights = true;
  for (OptimizerKind kind : kOptimizers) {
    TrainerConfig cfg = run_config(OptLevel::kImproved, ExecPolicy::kHost);
    cfg.optimizer.kind = kind;
    expect_dry_equals_wet(model, cfg, 150);
  }
}

// --- model mode at paper scale ---

// Fig. 7's largest SAE: 4096×16384 over 10⁶ examples, batch 1000, chunk
// 10000. Wet, its two weight matrices alone would take 512 MiB; dry, the
// whole run is shapes and counters.
TEST(ModelMode, PaperScaleSaeIsFastAndAllocatesNoStorage) {
  rusage before{};
  getrusage(RUSAGE_SELF, &before);
  const TrainerConfig cfg{.batch_size = 1000, .chunk_examples = 10000};
  util::Timer timer;
  const TrainReport report =
      dry_train(SaeConfig{4096, 16384}, cfg, 1000000);
  const double seconds = timer.seconds();
  rusage after{};
  getrusage(RUSAGE_SELF, &after);
  EXPECT_LT(seconds, 2.0);
  EXPECT_LT(after.ru_maxrss - before.ru_maxrss, 64L * 1024);  // KiB
  EXPECT_EQ(report.chunks, 100);
  EXPECT_EQ(report.batches, 1000);
  // Five GEMMs per step: two forward, three for the gradients.
  EXPECT_EQ(report.stats.gemm_flops, 1000 * 5 * (2.0 * 1000 * 4096 * 16384));
}

// --- the trainer's device timeline is Fig. 5's chunk ring ---

TEST(TrainAccounting, DeviceTimelineEqualsProcessChunks) {
  // Four identical chunks, so the average chunk Offload replays is exactly
  // each chunk the trainer submitted.
  for (ExecPolicy policy : {ExecPolicy::kHost, ExecPolicy::kPhiOffload}) {
    phi::Device trained(phi::xeon_phi_5110p(), 240);
    TrainerConfig cfg = run_config(OptLevel::kImproved, policy);
    cfg.ring_chunks = 2;
    cfg.device = &trained;
    const TrainReport report = wet_train(SaeConfig{16, 8}, cfg, 256);
    ASSERT_EQ(report.chunks, 4);

    phi::Device replayed(phi::xeon_phi_5110p(), 240);
    phi::Offload offload(
        replayed, phi::OffloadConfig{policy == ExecPolicy::kPhiOffload, 2});
    offload.process_chunks(static_cast<int>(report.chunks), report.chunk_bytes,
                           report.per_chunk_compute_stats());
    const auto& a = trained.trace().events();
    const auto& b = replayed.trace().events();
    ASSERT_EQ(a.size(), b.size());
    for (std::size_t i = 0; i < a.size(); ++i) {
      EXPECT_EQ(a[i].name, b[i].name);
      EXPECT_EQ(a[i].start_s, b[i].start_s) << a[i].name;
      EXPECT_EQ(a[i].end_s, b[i].end_s) << a[i].name;
    }
    EXPECT_EQ(trained.elapsed_s(), replayed.elapsed_s());
  }
}

// --- simulated-time orderings (the reproduction's qualitative claims) ---

phi::KernelStats sae_step(la::Index batch, la::Index visible, la::Index hidden,
                          OptLevel level = OptLevel::kImproved) {
  return dry_train(SaeConfig{visible, hidden}, step_config(level, batch), batch)
      .per_chunk_compute_stats();
}

TEST(SimOrdering, TableILadderIsMonotone) {
  // 4-layer stacked AE flavor at one layer: 1024 -> 512, batch 10000.
  const phi::CostModel phi_model(phi::xeon_phi_5110p());
  double prev = 1e300;
  for (OptLevel level : kLevels) {
    const phi::KernelStats stats = sae_step(10000, 1024, 512, level);
    const int threads = level_threads(level, 240);
    const double t = phi_model.evaluate(stats, threads).compute_s();
    EXPECT_LT(t, prev) << to_string(level);
    prev = t;
  }
}

TEST(SimOrdering, PhiBeatsSingleHostCoreAtPaperScale) {
  // Fig. 7's mid-size point: 1024 visible x 4096 hidden, batch 1000.
  const phi::KernelStats stats = sae_step(1000, 1024, 4096);
  const double phi_t =
      phi::CostModel(phi::xeon_phi_5110p()).evaluate(stats, 240).compute_s();
  const double host_t =
      phi::CostModel(phi::xeon_e5620_single_core()).evaluate(stats, 1).compute_s();
  EXPECT_LT(phi_t * 5, host_t);  // Phi wins by a wide margin at this size
}

TEST(SimOrdering, SingleCoreCompetitiveAtTinyNetworks) {
  // "the difference ... is small when the size of network is small":
  // the Phi's advantage collapses by orders of magnitude at tiny shapes.
  auto ratio = [](const phi::KernelStats& stats) {
    const double phi_t =
        phi::CostModel(phi::xeon_phi_5110p()).evaluate(stats, 240).compute_s();
    const double host_t = phi::CostModel(phi::xeon_e5620_single_core())
                              .evaluate(stats, 1)
                              .compute_s();
    return host_t / phi_t;
  };
  EXPECT_GT(ratio(sae_step(1000, 1024, 4096)),
            10 * ratio(sae_step(100, 24, 16)));
}

TEST(SimOrdering, MatlabSlowerThanPhi) {
  const phi::KernelStats matlab_stats =
      baseline::matlab_sae_batch_stats(10000, 1024, 4096);
  const phi::KernelStats phi_stats = sae_step(10000, 1024, 4096);
  const double matlab_t =
      phi::CostModel(phi::matlab_host()).evaluate(matlab_stats, 8).compute_s();
  const double phi_t =
      phi::CostModel(phi::xeon_phi_5110p()).evaluate(phi_stats, 240).compute_s();
  EXPECT_GT(matlab_t, 4 * phi_t);
}

TEST(MatlabAccounting, TrainStatsSumBatches) {
  const phi::KernelStats total =
      baseline::matlab_sae_train_stats(100, 10, 8, 6);
  const phi::KernelStats one = baseline::matlab_sae_batch_stats(10, 8, 6);
  EXPECT_TRUE(total.approx_equal(one.scaled(10.0), 1e-9));
  EXPECT_EQ(total.transfers, 0);  // host run: no PCIe
}

// --- real vs predicted per-chunk timelines ---

// TrainReport carries the measured wall seconds of every chunk; the
// simulated side predicts per-chunk timings via Offload::process_chunks on
// the same per-chunk work. The two timelines must agree structurally (one
// entry per chunk, in order, finite and positive, chunk sum bounded by the
// run total). Absolute times are machine-dependent, so that part is not
// asserted.
TEST(TrainAccounting, ChunkWallSecondsMatchSimulatedChunkTimeline) {
  phi::Device device(phi::xeon_phi_5110p());
  TrainerConfig tcfg = run_config(OptLevel::kImproved, ExecPolicy::kPhiOffload);
  tcfg.epochs = 2;
  tcfg.device = &device;
  const TrainReport report = wet_train(SaeConfig{16, 8}, tcfg, 256);

  ASSERT_GT(report.chunks, 0);
  ASSERT_EQ(report.chunk_wall_seconds.size(),
            static_cast<std::size_t>(report.chunks));
  double chunk_sum = 0;
  for (double s : report.chunk_wall_seconds) {
    EXPECT_TRUE(std::isfinite(s));
    EXPECT_GT(s, 0.0);
    chunk_sum += s;
  }
  // Chunk training is a subset of the run (setup/teardown excluded), with
  // a little slack for timer granularity.
  EXPECT_LE(chunk_sum, report.wall_seconds * 1.05 + 1e-3);

  // The simulated timeline predicts the same number of chunks, each with a
  // positive compute interval, and their simulated spans sum consistently
  // with what simulate() reports end-to-end.
  phi::Device sim_device(phi::xeon_phi_5110p());
  phi::Offload offload(sim_device, phi::OffloadConfig{true, 4});
  const phi::OffloadReport predicted = offload.process_chunks(
      static_cast<int>(report.chunks), report.chunk_bytes,
      report.per_chunk_compute_stats());
  ASSERT_EQ(predicted.chunks.size(), report.chunk_wall_seconds.size());
  for (const phi::ChunkTiming& t : predicted.chunks) {
    EXPECT_GT(t.compute_end_s, t.compute_start_s);
    EXPECT_GE(t.compute_start_s, t.transfer_start_s);
  }

  phi::Device sim_device2(phi::xeon_phi_5110p());
  const SimulatedTime sim = simulate(report, sim_device2);
  EXPECT_GT(sim.pipelined_s, 0.0);
  EXPECT_LE(sim.pipelined_s, sim.serialized_s * (1.0 + 1e-9));
  EXPECT_NEAR(sim.pipelined_s, predicted.total_s,
              1e-6 * std::max(1.0, predicted.total_s));
}

}  // namespace
}  // namespace deepphi::core

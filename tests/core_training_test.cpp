// Training-stack tests: optimizer update rules, batch optimizers (L-BFGS /
// CG) on analytic functions and a tiny autoencoder, the chunked Trainer loop
// (structure, convergence, ladder-level equivalence of learning), stacked
// models, and metrics.
#include <gtest/gtest.h>

#include <cmath>

#include "core/cg.hpp"
#include "core/dbn.hpp"
#include "core/lbfgs.hpp"
#include "core/metrics.hpp"
#include "core/optimizer.hpp"
#include "core/stacked_autoencoder.hpp"
#include "core/trainer.hpp"
#include "data/patches.hpp"
#include "util/rng.hpp"

namespace deepphi::core {
namespace {

// --- Optimizer ---

TEST(Optimizer, SgdStep) {
  Optimizer opt({OptimizerKind::kSgd, 0.1f});
  la::Vector p = la::Vector::from({1.0f, 2.0f});
  la::Vector g = la::Vector::from({10.0f, -10.0f});
  opt.update(p, g);
  EXPECT_FLOAT_EQ(p[0], 0.0f);
  EXPECT_FLOAT_EQ(p[1], 3.0f);
}

TEST(Optimizer, LrDecaySchedule) {
  OptimizerConfig cfg;
  cfg.lr = 1.0f;
  cfg.lr_decay = 1.0f;
  Optimizer opt(cfg);
  EXPECT_FLOAT_EQ(opt.current_lr(), 1.0f);
  opt.end_step();
  EXPECT_FLOAT_EQ(opt.current_lr(), 0.5f);
  opt.end_step();
  EXPECT_NEAR(opt.current_lr(), 1.0f / 3.0f, 1e-6f);
}

TEST(Optimizer, MomentumAccumulates) {
  OptimizerConfig cfg;
  cfg.kind = OptimizerKind::kMomentum;
  cfg.lr = 0.1f;
  cfg.momentum = 0.5f;
  Optimizer opt(cfg);
  la::Vector p = la::Vector::from({0.0f});
  la::Vector g = la::Vector::from({1.0f});
  opt.update(p, g);  // v = -0.1, p = -0.1
  EXPECT_NEAR(p[0], -0.1f, 1e-6f);
  opt.update(p, g);  // v = -0.15, p = -0.25
  EXPECT_NEAR(p[0], -0.25f, 1e-6f);
}

TEST(Optimizer, AdagradShrinksEffectiveStep) {
  OptimizerConfig cfg;
  cfg.kind = OptimizerKind::kAdagrad;
  cfg.lr = 1.0f;
  Optimizer opt(cfg);
  la::Vector p = la::Vector::from({0.0f});
  la::Vector g = la::Vector::from({1.0f});
  opt.update(p, g);
  const float first = -p[0];  // ~1.0
  const float before = p[0];
  opt.update(p, g);
  const float second = before - p[0];
  EXPECT_GT(first, second);  // accumulated curvature shrinks steps
}

TEST(Optimizer, StatePerParameter) {
  OptimizerConfig cfg;
  cfg.kind = OptimizerKind::kMomentum;
  cfg.lr = 0.1f;
  cfg.momentum = 0.9f;
  Optimizer opt(cfg);
  la::Vector p1 = la::Vector::from({0.0f});
  la::Vector p2 = la::Vector::from({0.0f});
  la::Vector g = la::Vector::from({1.0f});
  opt.update(p1, g);
  opt.update(p2, g);
  EXPECT_FLOAT_EQ(p1[0], p2[0]);  // independent velocity per parameter
}

TEST(Optimizer, MatrixOverload) {
  Optimizer opt({OptimizerKind::kSgd, 0.5f});
  la::Matrix p = la::Matrix::constant(2, 2, 1.0f);
  la::Matrix g = la::Matrix::constant(2, 2, 1.0f);
  opt.update(p, g);
  EXPECT_TRUE(p.approx_equal(la::Matrix::constant(2, 2, 0.5f)));
}

TEST(Optimizer, RejectsBadConfig) {
  OptimizerConfig cfg;
  cfg.lr = 0.0f;
  EXPECT_THROW(Optimizer{cfg}, util::Error);
  OptimizerConfig cfg2;
  cfg2.momentum = 1.0f;
  EXPECT_THROW(Optimizer{cfg2}, util::Error);
}

TEST(Optimizer, ShapeMismatchThrows) {
  Optimizer opt({OptimizerKind::kSgd, 0.1f});
  la::Vector p(3), g(4);
  EXPECT_THROW(opt.update(p, g), util::Error);
}

TEST(Optimizer, DecayAppliesToMomentumToo) {
  OptimizerConfig cfg;
  cfg.kind = OptimizerKind::kMomentum;
  cfg.lr = 1.0f;
  cfg.lr_decay = 1.0f;
  cfg.momentum = 0.0f;  // isolate the schedule
  Optimizer opt(cfg);
  la::Vector p = la::Vector::from({0.0f});
  la::Vector g = la::Vector::from({1.0f});
  opt.update(p, g);  // lr 1.0
  opt.end_step();
  opt.update(p, g);  // lr 0.5
  EXPECT_NEAR(p[0], -1.5f, 1e-6f);
}

// --- batch optimizers ---

// Convex quadratic: f(x) = sum (x_i - i)^2.
double quadratic(const float* x, float* g, int n) {
  double f = 0;
  for (int i = 0; i < n; ++i) {
    const double d = x[i] - i;
    f += d * d;
    g[i] = static_cast<float>(2 * d);
  }
  return f;
}

TEST(Lbfgs, SolvesQuadratic) {
  const int n = 10;
  std::vector<float> x(n, 5.0f);
  auto obj = [n](const float* p, float* g) { return quadratic(p, g, n); };
  LbfgsConfig cfg;
  cfg.grad_tolerance = 1e-6;
  const auto report = lbfgs_minimize(obj, x, cfg);
  EXPECT_TRUE(report.converged);
  for (int i = 0; i < n; ++i) EXPECT_NEAR(x[i], i, 1e-3f);
  EXPECT_LT(report.final_cost, 1e-6);
}

TEST(Lbfgs, SolvesRosenbrock) {
  std::vector<float> x = {-1.2f, 1.0f};
  auto obj = [](const float* p, float* g) {
    const double a = 1 - p[0];
    const double b = p[1] - p[0] * p[0];
    g[0] = static_cast<float>(-2 * a - 400 * p[0] * b);
    g[1] = static_cast<float>(200 * b);
    return a * a + 100 * b * b;
  };
  LbfgsConfig cfg;
  // Armijo-only backtracking in float32 takes the long valley slowly.
  cfg.max_iterations = 2000;
  cfg.grad_tolerance = 1e-4;
  const auto report = lbfgs_minimize(obj, x, cfg);
  EXPECT_LT(report.final_cost, 1e-4);
  EXPECT_NEAR(x[0], 1.0f, 0.05f);
  EXPECT_NEAR(x[1], 1.0f, 0.05f);
}

TEST(Lbfgs, CostHistoryMonotone) {
  const int n = 5;
  std::vector<float> x(n, 3.0f);
  auto obj = [n](const float* p, float* g) { return quadratic(p, g, n); };
  const auto report = lbfgs_minimize(obj, x, LbfgsConfig{});
  for (std::size_t i = 1; i < report.cost_history.size(); ++i)
    EXPECT_LE(report.cost_history[i], report.cost_history[i - 1] + 1e-12);
}

TEST(Cg, SolvesQuadratic) {
  const int n = 10;
  std::vector<float> x(n, -2.0f);
  auto obj = [n](const float* p, float* g) { return quadratic(p, g, n); };
  CgConfig cfg;
  cfg.grad_tolerance = 1e-6;
  const auto report = cg_minimize(obj, x, cfg);
  EXPECT_TRUE(report.converged);
  for (int i = 0; i < n; ++i) EXPECT_NEAR(x[i], i, 1e-3f);
}

TEST(Cg, SolvesRosenbrock) {
  std::vector<float> x = {-1.2f, 1.0f};
  auto obj = [](const float* p, float* g) {
    const double a = 1 - p[0];
    const double b = p[1] - p[0] * p[0];
    g[0] = static_cast<float>(-2 * a - 400 * p[0] * b);
    g[1] = static_cast<float>(200 * b);
    return a * a + 100 * b * b;
  };
  CgConfig cfg;
  cfg.max_iterations = 2000;
  cfg.grad_tolerance = 1e-4;
  const auto report = cg_minimize(obj, x, cfg);
  EXPECT_LT(report.final_cost, 1e-2);
}

TEST(BatchOpt, LbfgsTrainsTinyAutoencoder) {
  SaeConfig cfg;
  cfg.visible = 16;
  cfg.hidden = 8;
  cfg.beta = 0.1f;
  SparseAutoencoder model(cfg, 3);
  data::Dataset patches = data::make_digit_patch_dataset(64, 4, 5);
  la::Matrix x(64, 16);
  patches.copy_batch(0, 64, x);

  SparseAutoencoder::Workspace ws;
  AeGradients grads;
  std::vector<float> params(static_cast<std::size_t>(model.param_count()));
  model.get_params(params.data());
  auto obj = [&](const float* p, float* g) {
    model.set_params(p);
    const double cost = model.gradient(x, ws, grads, true);
    SparseAutoencoder::flatten(grads, g);
    return cost;
  };
  LbfgsConfig lcfg;
  lcfg.max_iterations = 30;
  const auto report = lbfgs_minimize(obj, params, lcfg);
  EXPECT_LT(report.final_cost, report.initial_cost * 0.8);
}

TEST(LineSearch, StrongWolfeSatisfiesBothConditions) {
  // phi(a) along d = -grad from x=3 on f(x) = x^2: check Armijo + curvature.
  std::vector<float> x0 = {3.0f};
  std::vector<float> grad0 = {6.0f};
  std::vector<float> dir = {-6.0f};
  std::vector<float> x_out, g_out;
  auto obj = [](const float* p, float* g) {
    g[0] = 2 * p[0];
    return static_cast<double>(p[0]) * p[0];
  };
  LineSearchConfig cfg;
  cfg.strong_wolfe = true;
  const auto r = line_search(obj, x0, 9.0, grad0, dir, cfg, x_out, g_out);
  ASSERT_TRUE(r.success);
  const double dir_deriv = -36.0;
  EXPECT_LE(r.cost, 9.0 + cfg.armijo_c1 * r.step * dir_deriv);
  EXPECT_LE(std::fabs(static_cast<double>(g_out[0]) * dir[0]),
            -cfg.wolfe_c2 * dir_deriv);
}

TEST(LineSearch, WolfeConvergesLbfgsFasterThanArmijo) {
  auto rosenbrock = [](const float* p, float* g) {
    const double a = 1 - p[0];
    const double b = p[1] - static_cast<double>(p[0]) * p[0];
    g[0] = static_cast<float>(-2 * a - 400 * p[0] * b);
    g[1] = static_cast<float>(200 * b);
    return a * a + 100 * b * b;
  };
  auto solve = [&](bool wolfe) {
    std::vector<float> x = {-1.2f, 1.0f};
    LbfgsConfig cfg;
    cfg.max_iterations = 2000;
    cfg.grad_tolerance = 1e-4;
    cfg.line_search.strong_wolfe = wolfe;
    return lbfgs_minimize(rosenbrock, x, cfg).iterations;
  };
  EXPECT_LT(solve(true), solve(false) / 2);
}

TEST(LineSearch, RejectsAscentDirection) {
  std::vector<float> x = {1.0f};
  std::vector<float> grad = {2.0f};
  std::vector<float> dir = {1.0f};  // same sign as gradient: ascent
  std::vector<float> x_out, g_out;
  auto obj = [](const float* p, float* g) {
    g[0] = 2 * p[0];
    return static_cast<double>(p[0]) * p[0];
  };
  const auto result =
      line_search(obj, x, 1.0, grad, dir, LineSearchConfig{}, x_out, g_out);
  EXPECT_FALSE(result.success);
}

// --- Trainer ---

TrainerConfig quick_config(OptLevel level) {
  TrainerConfig cfg;
  cfg.batch_size = 16;
  cfg.chunk_examples = 64;
  cfg.epochs = 1;
  cfg.level = level;
  cfg.policy = ExecPolicy::kHost;
  cfg.optimizer.lr = 0.3f;
  return cfg;
}

TEST(Trainer, ChunkAndBatchStructure) {
  data::Dataset patches = data::make_digit_patch_dataset(150, 4, 7);
  SaeConfig mcfg;
  mcfg.visible = 16;
  mcfg.hidden = 8;
  SparseAutoencoder model(mcfg, 9);
  Trainer trainer(quick_config(OptLevel::kImproved));
  const TrainReport report = trainer.train(model, patches);
  // 150 examples, chunks of 64: 64+64+22 -> 3 chunks; batches 4+4+2 = 10.
  EXPECT_EQ(report.chunks, 3);
  EXPECT_EQ(report.batches, 10);
  EXPECT_EQ(report.chunk_mean_costs.size(), 3u);
  EXPECT_GT(report.stats.gemm_flops, 0.0);
  EXPECT_GT(report.stats.h2d_bytes, 0.0);
}

TEST(Trainer, SaeCostDecreasesOverChunks) {
  data::Dataset patches = data::make_digit_patch_dataset(1024, 4, 11);
  SaeConfig mcfg;
  mcfg.visible = 16;
  mcfg.hidden = 10;
  mcfg.beta = 0.3f;
  SparseAutoencoder model(mcfg, 13);
  TrainerConfig cfg = quick_config(OptLevel::kImproved);
  cfg.epochs = 4;
  Trainer trainer(cfg);
  const TrainReport report = trainer.train(model, patches);
  EXPECT_LT(report.chunk_mean_costs.back(), report.chunk_mean_costs.front());
}

TEST(Trainer, RbmReconDecreasesOverChunks) {
  data::Dataset patches = data::make_digit_patch_dataset(1024, 4, 17);
  RbmConfig mcfg;
  mcfg.visible = 16;
  mcfg.hidden = 10;
  Rbm model(mcfg, 19);
  TrainerConfig cfg = quick_config(OptLevel::kImproved);
  cfg.epochs = 4;
  Trainer trainer(cfg);
  const TrainReport report = trainer.train(model, patches);
  EXPECT_LT(report.chunk_mean_costs.back(), report.chunk_mean_costs.front());
}

TEST(Trainer, AllLevelsLearnEquivalently) {
  // The ladder levels are *performance* variants of the same algorithm: at
  // equal seeds the SAE (noise-free) must produce near-identical parameters.
  data::Dataset patches = data::make_digit_patch_dataset(128, 4, 23);
  std::vector<la::Matrix> final_w1;
  for (OptLevel level : {OptLevel::kBaseline, OptLevel::kOpenMp,
                         OptLevel::kOpenMpMkl, OptLevel::kImproved}) {
    SaeConfig mcfg;
    mcfg.visible = 16;
    mcfg.hidden = 8;
    SparseAutoencoder model(mcfg, 29);
    Trainer trainer(quick_config(level));
    trainer.train(model, patches);
    final_w1.push_back(model.w1());
  }
  for (std::size_t i = 1; i < final_w1.size(); ++i)
    EXPECT_TRUE(final_w1[0].approx_equal(final_w1[i], 5e-3f, 5e-5f))
        << "level index " << i;
}

TEST(Trainer, PhiOffloadPolicyMatchesHostPolicy) {
  data::Dataset patches = data::make_digit_patch_dataset(200, 4, 31);
  SaeConfig mcfg;
  mcfg.visible = 16;
  mcfg.hidden = 8;
  SparseAutoencoder host_model(mcfg, 37);
  SparseAutoencoder phi_model(mcfg, 37);
  TrainerConfig host_cfg = quick_config(OptLevel::kImproved);
  TrainerConfig phi_cfg = host_cfg;
  phi_cfg.policy = ExecPolicy::kPhiOffload;
  Trainer(host_cfg).train(host_model, patches);
  Trainer(phi_cfg).train(phi_model, patches);
  EXPECT_TRUE(host_model.w1().approx_equal(phi_model.w1(), 1e-6f, 1e-8f));
}

TEST(Trainer, RbmTaskGraphPolicyLearns) {
  data::Dataset patches = data::make_digit_patch_dataset(256, 4, 41);
  RbmConfig mcfg;
  mcfg.visible = 16;
  mcfg.hidden = 8;
  Rbm model(mcfg, 43);
  TrainerConfig cfg = quick_config(OptLevel::kImproved);
  cfg.use_taskgraph = true;
  cfg.epochs = 2;
  Trainer trainer(cfg);
  const TrainReport report = trainer.train(model, patches);
  EXPECT_LT(report.chunk_mean_costs.back(), report.chunk_mean_costs.front() * 1.2);
  EXPECT_GT(report.stats.gemm_flops, 0.0);
}

TEST(Trainer, RejectsBadConfig) {
  TrainerConfig cfg;
  cfg.batch_size = 100;
  cfg.chunk_examples = 50;  // chunk smaller than batch
  EXPECT_THROW(Trainer{cfg}, util::Error);
  TrainerConfig cfg2 = quick_config(OptLevel::kBaseline);
  cfg2.use_taskgraph = true;  // task graph needs matrix form
  EXPECT_THROW(Trainer{cfg2}, util::Error);
}

TEST(Trainer, PerChunkComputeStatsStripTransfers) {
  data::Dataset patches = data::make_digit_patch_dataset(128, 4, 47);
  SaeConfig mcfg;
  mcfg.visible = 16;
  mcfg.hidden = 8;
  SparseAutoencoder model(mcfg, 53);
  Trainer trainer(quick_config(OptLevel::kImproved));
  const TrainReport report = trainer.train(model, patches);
  const phi::KernelStats per_chunk = report.per_chunk_compute_stats();
  EXPECT_EQ(per_chunk.transfers, 0);
  EXPECT_DOUBLE_EQ(per_chunk.h2d_bytes, 0.0);
  EXPECT_NEAR(per_chunk.gemm_flops * report.chunks, report.stats.gemm_flops,
              report.stats.gemm_flops * 1e-9);
}

TEST(Trainer, SimulateProducesOrderedTimes) {
  data::Dataset patches = data::make_digit_patch_dataset(256, 4, 59);
  SaeConfig mcfg;
  mcfg.visible = 16;
  mcfg.hidden = 8;
  SparseAutoencoder model(mcfg, 61);
  Trainer trainer(quick_config(OptLevel::kImproved));
  const TrainReport report = trainer.train(model, patches);
  phi::Device device(phi::xeon_phi_5110p());
  const SimulatedTime sim = simulate(report, device);
  EXPECT_GT(sim.pipelined_s, 0.0);
  EXPECT_LE(sim.pipelined_s, sim.serialized_s + 1e-12);
}

// --- Stacked models ---

TEST(StackedAutoencoder, PretrainWorksUnderOffloadPolicy) {
  data::Dataset patches = data::make_digit_patch_dataset(256, 4, 401);
  SaeConfig proto;
  StackedAutoencoder stack({16, 8}, proto, 403);
  TrainerConfig cfg = quick_config(OptLevel::kImproved);
  cfg.policy = ExecPolicy::kPhiOffload;
  const auto reports = stack.pretrain(patches, cfg);
  ASSERT_EQ(reports.size(), 1u);
  EXPECT_GT(reports[0].stats.h2d_bytes, 0.0);
}


TEST(StackedAutoencoder, PretrainShrinksDimensions) {
  data::Dataset patches = data::make_digit_patch_dataset(256, 4, 67);
  SaeConfig proto;
  proto.beta = 0.1f;
  StackedAutoencoder stack({16, 10, 6}, proto, 71);
  EXPECT_EQ(stack.layers(), 2u);
  TrainerConfig cfg = quick_config(OptLevel::kImproved);
  const auto reports = stack.pretrain(patches, cfg);
  ASSERT_EQ(reports.size(), 2u);
  EXPECT_GT(reports[0].batches, 0);

  la::Matrix x(10, 16);
  patches.copy_batch(0, 10, x);
  la::Matrix code;
  stack.encode(x, code);
  EXPECT_EQ(code.rows(), 10);
  EXPECT_EQ(code.cols(), 6);
  for (la::Index i = 0; i < code.size(); ++i) {
    EXPECT_GT(code.data()[i], 0.0f);
    EXPECT_LT(code.data()[i], 1.0f);
  }
}

TEST(StackedAutoencoder, LayerSizesValidated) {
  SaeConfig proto;
  EXPECT_THROW(StackedAutoencoder({16}, proto, 1), util::Error);
}

TEST(StackedAutoencoder, PaperTableINetworkShape) {
  // The Table I network: 1024-512-256-128, three SAEs (tiny version checks
  // wiring at 1/16 scale: 64-32-16-8).
  SaeConfig proto;
  StackedAutoencoder stack({64, 32, 16, 8}, proto, 73);
  EXPECT_EQ(stack.layers(), 3u);
  EXPECT_EQ(stack.layer(0).visible(), 64);
  EXPECT_EQ(stack.layer(0).hidden(), 32);
  EXPECT_EQ(stack.layer(2).hidden(), 8);
}

TEST(Dbn, PretrainAndEncode) {
  data::Dataset patches = data::make_digit_patch_dataset(256, 4, 79);
  RbmConfig proto;
  Dbn dbn({16, 10, 6}, proto, 83);
  TrainerConfig cfg = quick_config(OptLevel::kImproved);
  const auto reports = dbn.pretrain(patches, cfg);
  ASSERT_EQ(reports.size(), 2u);

  la::Matrix x(5, 16);
  patches.copy_batch(0, 5, x);
  la::Matrix top;
  dbn.encode(x, top);
  EXPECT_EQ(top.cols(), 6);
  for (la::Index i = 0; i < top.size(); ++i) {
    EXPECT_GT(top.data()[i], 0.0f);
    EXPECT_LT(top.data()[i], 1.0f);
  }
}

TEST(Dbn, SecondLayerTrainsOnFirstLayerCodes) {
  data::Dataset patches = data::make_digit_patch_dataset(128, 4, 89);
  RbmConfig proto;
  Dbn dbn({16, 9, 5}, proto, 97);
  TrainerConfig cfg = quick_config(OptLevel::kImproved);
  const auto reports = dbn.pretrain(patches, cfg);
  // Layer 1's visible dimension is layer 0's hidden dimension.
  EXPECT_EQ(dbn.layer(1).visible(), 9);
  EXPECT_GT(reports[1].batches, 0);
}

// --- metrics ---

TEST(Metrics, ReconstructionErrorDropsWithTraining) {
  data::Dataset patches = data::make_digit_patch_dataset(512, 4, 101);
  SaeConfig mcfg;
  mcfg.visible = 16;
  mcfg.hidden = 10;
  mcfg.beta = 0.1f;
  SparseAutoencoder model(mcfg, 103);
  const double before = reconstruction_error(model, patches);
  TrainerConfig cfg = quick_config(OptLevel::kImproved);
  cfg.epochs = 4;
  Trainer(cfg).train(model, patches);
  const double after = reconstruction_error(model, patches);
  EXPECT_LT(after, before);
}

TEST(Metrics, RbmReconstructionError) {
  data::Dataset patches = data::make_digit_patch_dataset(64, 4, 107);
  RbmConfig mcfg;
  mcfg.visible = 16;
  mcfg.hidden = 8;
  Rbm model(mcfg, 109);
  EXPECT_GT(reconstruction_error(model, patches), 0.0);
}

TEST(Metrics, MeanHiddenActivationInUnitInterval) {
  data::Dataset patches = data::make_digit_patch_dataset(64, 4, 113);
  SaeConfig mcfg;
  mcfg.visible = 16;
  mcfg.hidden = 8;
  SparseAutoencoder model(mcfg, 127);
  const double act = mean_hidden_activation(model, patches);
  EXPECT_GT(act, 0.0);
  EXPECT_LT(act, 1.0);
}

TEST(Metrics, AsciiFilterShape) {
  la::Matrix w(3, 16);
  for (la::Index i = 0; i < w.size(); ++i)
    w.data()[i] = static_cast<float>(i % 7);
  const std::string art = ascii_filter(w, 1, 4);
  // 4 rows of 4 chars + newlines.
  EXPECT_EQ(art.size(), 4u * 5u);
  EXPECT_THROW(ascii_filter(w, 5, 4), util::Error);
  EXPECT_THROW(ascii_filter(w, 0, 5), util::Error);
}

TEST(Metrics, LocalizedFilterFraction) {
  // A one-hot filter is maximally localized; a flat filter is not.
  la::Matrix w(2, 16);
  w(0, 3) = 5.0f;                                   // localized
  for (la::Index c = 0; c < 16; ++c) w(1, c) = 1.0f;  // flat
  const double frac = localized_filter_fraction(w, 0.5);
  EXPECT_NEAR(frac, 0.5, 1e-9);
}


TEST(Trainer, StopsAtTargetCost) {
  data::Dataset patches = data::make_digit_patch_dataset(2048, 4, 301);
  SaeConfig mcfg;
  mcfg.visible = 16;
  mcfg.hidden = 10;
  mcfg.beta = 0.1f;
  SparseAutoencoder model(mcfg, 303);
  TrainerConfig cfg = quick_config(OptLevel::kImproved);
  cfg.epochs = 50;  // far more than needed
  cfg.target_cost = 1.0;
  const TrainReport report = Trainer(cfg).train(model, patches);
  // Stopped well before 50 epochs' worth of chunks (32 chunks/epoch).
  EXPECT_LT(report.chunks, 50 * 32);
  EXPECT_LE(report.chunk_mean_costs.back(), 1.0);
  for (std::size_t i = 0; i + 1 < report.chunk_mean_costs.size(); ++i)
    EXPECT_GT(report.chunk_mean_costs[i], 1.0);  // only the last one crossed
}

TEST(Trainer, StopsAtMaxBatches) {
  data::Dataset patches = data::make_digit_patch_dataset(512, 4, 307);
  SaeConfig mcfg;
  mcfg.visible = 16;
  mcfg.hidden = 8;
  SparseAutoencoder model(mcfg, 311);
  TrainerConfig cfg = quick_config(OptLevel::kImproved);
  cfg.epochs = 10;
  cfg.max_batches = 7;
  const TrainReport report = Trainer(cfg).train(model, patches);
  // Stops at the end of the chunk in which the cap was reached (chunk = 4
  // batches at these sizes).
  EXPECT_GE(report.batches, 7);
  EXPECT_LE(report.batches, 8);
}

TEST(MachineSpec, ModernServerDwarfsThePhi) {
  const phi::MachineSpec modern = phi::modern_avx512_server();
  const phi::MachineSpec old_phi = phi::xeon_phi_5110p();
  EXPECT_GT(modern.vector_peak_gflops(), 2 * old_phi.vector_peak_gflops());
  const phi::CostModel m_new(modern), m_old(old_phi);
  const phi::KernelStats work = phi::gemm_contribution(2048, 2048, 2048);
  EXPECT_LT(m_new.evaluate(work, 64).gemm_s, m_old.evaluate(work, 240).gemm_s);
}

// --- device-integrated training (Fig. 5 timeline on the 8 GB arena) ---

TEST(TrainerDevice, PopulatesTimelineOneEventPairPerChunk) {
  data::Dataset patches = data::make_digit_patch_dataset(200, 4, 211);
  SaeConfig mcfg;
  mcfg.visible = 16;
  mcfg.hidden = 8;
  SparseAutoencoder model(mcfg, 213);
  phi::Device device(phi::xeon_phi_5110p());
  TrainerConfig cfg = quick_config(OptLevel::kImproved);
  cfg.policy = ExecPolicy::kPhiOffload;
  cfg.device = &device;
  const TrainReport report = Trainer(cfg).train(model, patches);
  // One DMA + one compute event per chunk.
  EXPECT_EQ(device.trace().events().size(),
            2 * static_cast<std::size_t>(report.chunks));
  EXPECT_GT(device.elapsed_s(), 0.0);
  // All reservations released after the run.
  EXPECT_DOUBLE_EQ(device.used_bytes(), 0.0);
}

TEST(TrainerDevice, AsyncOverlapsSyncDoesNot) {
  data::Dataset patches = data::make_digit_patch_dataset(512, 4, 217);
  auto run = [&patches](ExecPolicy policy) {
    SaeConfig mcfg;
    mcfg.visible = 16;
    mcfg.hidden = 8;
    SparseAutoencoder model(mcfg, 219);
    // The paper-measured (slow) loading path makes overlap visible.
    phi::Device device(phi::xeon_phi_5110p_paper_loading());
    TrainerConfig cfg;
    cfg.batch_size = 16;
    cfg.chunk_examples = 64;
    cfg.policy = policy;
    cfg.device = &device;
    Trainer(cfg).train(model, patches);
    return std::pair<double, double>{device.elapsed_s(),
                                     device.trace().overlap_s()};
  };
  const auto [async_total, async_overlap] = run(ExecPolicy::kPhiOffload);
  const auto [sync_total, sync_overlap] = run(ExecPolicy::kHost);
  EXPECT_LE(async_total, sync_total + 1e-12);
  EXPECT_GT(async_overlap, 0.0);
  EXPECT_DOUBLE_EQ(sync_overlap, 0.0);
}

TEST(TrainerDevice, OomForImplausibleModel) {
  // A model too large for the 8 GB card: the arena must refuse.
  data::Dataset patches = data::make_digit_patch_dataset(64, 4, 221);
  SaeConfig mcfg;
  mcfg.visible = 16;
  mcfg.hidden = 8;
  SparseAutoencoder model(mcfg, 223);
  phi::Device device(phi::xeon_phi_5110p());
  device.alloc("pre-existing hog", 7.9e9);  // almost-full card
  TrainerConfig cfg = quick_config(OptLevel::kImproved);
  cfg.chunk_examples = 1000000;  // ring alone needs 4 x 64 MB > the free 100 MB
  cfg.device = &device;
  EXPECT_THROW(Trainer(cfg).train(model, patches), util::Error);
  // The failed reservation must not leak partial allocations.
  EXPECT_DOUBLE_EQ(device.used_bytes(), 7.9e9);
}

TEST(TrainerDevice, RbmRunAlsoMonitored) {
  data::Dataset patches = data::make_digit_patch_dataset(150, 4, 227);
  RbmConfig mcfg;
  mcfg.visible = 16;
  mcfg.hidden = 8;
  Rbm model(mcfg, 229);
  phi::Device device(phi::xeon_phi_5110p(), 60);
  TrainerConfig cfg = quick_config(OptLevel::kImproved);
  cfg.device = &device;
  const TrainReport report = Trainer(cfg).train(model, patches);
  EXPECT_EQ(device.trace().events().size(),
            2 * static_cast<std::size_t>(report.chunks));
}

}  // namespace
}  // namespace deepphi::core

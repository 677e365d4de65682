// Model-correctness tests: finite-difference gradient checks against the
// double-precision references, parity across the Table I ladder's code paths
// (loop-form vs matrix-form vs fused vs Fig. 6 task graph), and behavioural
// checks (costs decrease under updates, sparsity pressure works, free energy
// matches).
#include <gtest/gtest.h>

#include <cmath>
#include <vector>

#include "baseline/seq_autoencoder.hpp"
#include "baseline/seq_rbm.hpp"
#include "core/loop_form.hpp"
#include "core/rbm.hpp"
#include "core/rbm_taskgraph.hpp"
#include "core/sparse_autoencoder.hpp"
#include "la/pack_arena.hpp"
#include "la/reduce.hpp"
#include "data/patches.hpp"
#include "util/rng.hpp"

namespace deepphi::core {
namespace {

la::Matrix random_batch(la::Index rows, la::Index cols, std::uint64_t seed) {
  util::Rng rng(seed);
  la::Matrix m = la::Matrix::uninitialized(rows, cols);
  for (la::Index i = 0; i < m.size(); ++i)
    m.data()[i] = static_cast<float>(rng.uniform(0.1, 0.9));
  return m;
}

double max_abs_diff(const float* a, const std::vector<double>& b, la::Index n) {
  double worst = 0;
  for (la::Index i = 0; i < n; ++i)
    worst = std::max(worst, std::fabs(static_cast<double>(a[i]) - b[i]));
  return worst;
}

// --- Sparse Autoencoder ---

SaeConfig small_sae_config() {
  SaeConfig cfg;
  cfg.visible = 6;
  cfg.hidden = 4;
  cfg.lambda = 1e-3f;
  cfg.rho = 0.1f;
  cfg.beta = 0.5f;
  return cfg;
}

TEST(SaeGradient, ReferenceMatchesFiniteDifferences) {
  SparseAutoencoder model(small_sae_config(), 11);
  la::Matrix x = random_batch(5, 6, 1);
  baseline::SaeReference ref(model);
  std::vector<double> gw1, gb1, gw2, gb2;
  ref.gradient(x, gw1, gb1, gw2, gb2);

  // Central differences on each W1 entry through the reference cost.
  const double eps = 1e-5;
  for (std::size_t idx : {std::size_t{0}, std::size_t{7}, std::size_t{23}}) {
    baseline::SaeReference plus = ref, minus = ref;
    plus.w1[idx] += eps;
    minus.w1[idx] -= eps;
    const double numeric = (plus.cost(x) - minus.cost(x)) / (2 * eps);
    EXPECT_NEAR(numeric, gw1[idx], 1e-5) << "w1[" << idx << "]";
  }
  for (std::size_t idx : {std::size_t{0}, std::size_t{3}}) {
    baseline::SaeReference plus = ref, minus = ref;
    plus.b1[idx] += eps;
    minus.b1[idx] -= eps;
    EXPECT_NEAR((plus.cost(x) - minus.cost(x)) / (2 * eps), gb1[idx], 1e-5);
  }
  for (std::size_t idx : {std::size_t{1}, std::size_t{17}}) {
    baseline::SaeReference plus = ref, minus = ref;
    plus.w2[idx] += eps;
    minus.w2[idx] -= eps;
    EXPECT_NEAR((plus.cost(x) - minus.cost(x)) / (2 * eps), gw2[idx], 1e-5);
  }
  for (std::size_t idx : {std::size_t{0}, std::size_t{5}}) {
    baseline::SaeReference plus = ref, minus = ref;
    plus.b2[idx] += eps;
    minus.b2[idx] -= eps;
    EXPECT_NEAR((plus.cost(x) - minus.cost(x)) / (2 * eps), gb2[idx], 1e-5);
  }
}

TEST(SaeGradient, BatchedMatchesReference) {
  SparseAutoencoder model(small_sae_config(), 22);
  la::Matrix x = random_batch(8, 6, 2);
  SparseAutoencoder::Workspace ws;
  AeGradients grads;
  const double cost = model.gradient(x, ws, grads, /*fused=*/true);

  baseline::SaeReference ref(model);
  std::vector<double> gw1, gb1, gw2, gb2;
  const double ref_cost = ref.gradient(x, gw1, gb1, gw2, gb2);

  EXPECT_NEAR(cost, ref_cost, 1e-5 * std::fabs(ref_cost) + 1e-7);
  EXPECT_LT(max_abs_diff(grads.g_w1.data(), gw1, grads.g_w1.size()), 2e-6);
  EXPECT_LT(max_abs_diff(grads.g_b1.data(), gb1, grads.g_b1.size()), 2e-6);
  EXPECT_LT(max_abs_diff(grads.g_w2.data(), gw2, grads.g_w2.size()), 2e-6);
  EXPECT_LT(max_abs_diff(grads.g_b2.data(), gb2, grads.g_b2.size()), 2e-6);
}

TEST(SaeGradient, SteadyStateStepAllocatesNothingInGemm) {
  // Once the model workspace and the per-thread packing arenas are warm, a
  // full fused training step must perform zero heap allocations inside
  // gemm_blocked (the arenas are persistent and merely reused).
  SparseAutoencoder model(small_sae_config(), 23);
  la::Matrix x = random_batch(32, 6, 5);
  SparseAutoencoder::Workspace ws;
  AeGradients grads;
  model.gradient(x, ws, grads, /*fused=*/true);  // warm-up
  const std::uint64_t allocs = la::pack_arena_allocations();
  for (int step = 0; step < 3; ++step)
    model.gradient(x, ws, grads, /*fused=*/true);
  EXPECT_EQ(la::pack_arena_allocations(), allocs);
}

struct SaeShapeCase {
  la::Index batch, visible, hidden;
};

class SaeParity : public ::testing::TestWithParam<SaeShapeCase> {};

TEST_P(SaeParity, FusedEqualsUnfused) {
  const auto& p = GetParam();
  SaeConfig cfg = small_sae_config();
  cfg.visible = p.visible;
  cfg.hidden = p.hidden;
  SparseAutoencoder model(cfg, 33);
  la::Matrix x = random_batch(p.batch, p.visible, 3);
  SparseAutoencoder::Workspace ws1, ws2;
  AeGradients g1, g2;
  const double c1 = model.gradient(x, ws1, g1, true);
  const double c2 = model.gradient(x, ws2, g2, false);
  EXPECT_NEAR(c1, c2, 1e-6 * std::fabs(c1) + 1e-9);
  EXPECT_TRUE(g1.g_w1.approx_equal(g2.g_w1, 1e-5f, 1e-7f));
  EXPECT_TRUE(g1.g_w2.approx_equal(g2.g_w2, 1e-5f, 1e-7f));
  EXPECT_TRUE(g1.g_b1.approx_equal(g2.g_b1, 1e-5f, 1e-7f));
  EXPECT_TRUE(g1.g_b2.approx_equal(g2.g_b2, 1e-5f, 1e-7f));
}

TEST_P(SaeParity, LoopFormEqualsMatrixForm) {
  const auto& p = GetParam();
  SaeConfig cfg = small_sae_config();
  cfg.visible = p.visible;
  cfg.hidden = p.hidden;
  SparseAutoencoder model(cfg, 44);
  la::Matrix x = random_batch(p.batch, p.visible, 4);
  SparseAutoencoder::Workspace ws1, ws2;
  AeGradients g_mat, g_loop;
  const double c_mat = model.gradient(x, ws1, g_mat, true);
  const double c_loop = sae_gradient_loops(model, x, ws2, g_loop, false);
  EXPECT_NEAR(c_mat, c_loop, 1e-5 * std::fabs(c_mat) + 1e-7);
  EXPECT_TRUE(g_mat.g_w1.approx_equal(g_loop.g_w1, 1e-4f, 1e-6f));
  EXPECT_TRUE(g_mat.g_w2.approx_equal(g_loop.g_w2, 1e-4f, 1e-6f));
  EXPECT_TRUE(g_mat.g_b1.approx_equal(g_loop.g_b1, 1e-4f, 1e-6f));
  EXPECT_TRUE(g_mat.g_b2.approx_equal(g_loop.g_b2, 1e-4f, 1e-6f));
}

TEST_P(SaeParity, ParallelLoopsEqualSequentialLoops) {
  const auto& p = GetParam();
  SaeConfig cfg = small_sae_config();
  cfg.visible = p.visible;
  cfg.hidden = p.hidden;
  SparseAutoencoder model(cfg, 55);
  la::Matrix x = random_batch(p.batch, p.visible, 5);
  SparseAutoencoder::Workspace ws1, ws2;
  AeGradients g_seq, g_par;
  sae_gradient_loops(model, x, ws1, g_seq, false);
  sae_gradient_loops(model, x, ws2, g_par, true);
  EXPECT_TRUE(g_seq.g_w1.approx_equal(g_par.g_w1, 1e-6f, 1e-8f));
  EXPECT_TRUE(g_seq.g_w2.approx_equal(g_par.g_w2, 1e-6f, 1e-8f));
}

INSTANTIATE_TEST_SUITE_P(Shapes, SaeParity,
                         ::testing::Values(SaeShapeCase{1, 6, 4},
                                           SaeShapeCase{5, 6, 4},
                                           SaeShapeCase{17, 12, 9},
                                           SaeShapeCase{32, 25, 49},
                                           SaeShapeCase{64, 64, 25}));

TEST(Sae, EncodeMatchesForwardHidden) {
  SparseAutoencoder model(small_sae_config(), 66);
  la::Matrix x = random_batch(7, 6, 6);
  SparseAutoencoder::Workspace ws;
  model.forward(x, ws, true);
  la::Matrix y;
  model.encode(x, y);
  EXPECT_TRUE(y.approx_equal(ws.y, 1e-6f, 1e-8f));
}

TEST(Sae, CostMatchesGradientReturn) {
  SparseAutoencoder model(small_sae_config(), 77);
  la::Matrix x = random_batch(9, 6, 7);
  SparseAutoencoder::Workspace ws1, ws2;
  AeGradients g;
  const double via_gradient = model.gradient(x, ws1, g, true);
  model.forward(x, ws2, true);
  const double via_cost = model.cost(x, ws2);
  EXPECT_NEAR(via_gradient, via_cost, 1e-6 * std::fabs(via_cost) + 1e-9);
}

TEST(Sae, GradientStepDecreasesCost) {
  SparseAutoencoder model(small_sae_config(), 88);
  la::Matrix x = random_batch(20, 6, 8);
  SparseAutoencoder::Workspace ws;
  AeGradients g;
  const double before = model.gradient(x, ws, g, true);
  model.apply_update(g, 0.5f);
  const double after = model.gradient(x, ws, g, true);
  EXPECT_LT(after, before);
}

TEST(Sae, LoopFormUpdateMatchesMatrixUpdate) {
  SparseAutoencoder m1(small_sae_config(), 99);
  SparseAutoencoder m2(small_sae_config(), 99);
  la::Matrix x = random_batch(10, 6, 9);
  SparseAutoencoder::Workspace ws;
  AeGradients g;
  m1.gradient(x, ws, g, true);
  m2.apply_update(g, 0.1f);
  sae_apply_update_loops(m1, g, 0.1f, false);
  EXPECT_TRUE(m1.w1().approx_equal(m2.w1(), 1e-6f, 1e-8f));
  EXPECT_TRUE(m1.b2().approx_equal(m2.b2(), 1e-6f, 1e-8f));
}

TEST(Sae, SparsityPenaltyDrivesActivationsDown) {
  // With a strong beta and high rho_hat, training pushes mean activation
  // toward rho.
  SaeConfig cfg = small_sae_config();
  cfg.beta = 3.0f;
  cfg.rho = 0.05f;
  SparseAutoencoder model(cfg, 111);
  la::Matrix x = random_batch(50, 6, 10);
  SparseAutoencoder::Workspace ws;
  AeGradients g;
  model.forward(x, ws, true);
  la::Vector rho0(cfg.hidden);
  la::col_mean(ws.y, rho0);
  double before = 0;
  for (la::Index i = 0; i < cfg.hidden; ++i) before += rho0[i];
  for (int it = 0; it < 50; ++it) {
    model.gradient(x, ws, g, true);
    model.apply_update(g, 0.3f);
  }
  model.forward(x, ws, true);
  la::col_mean(ws.y, rho0);
  double after = 0;
  for (la::Index i = 0; i < cfg.hidden; ++i) after += rho0[i];
  EXPECT_LT(std::fabs(after / cfg.hidden - cfg.rho),
            std::fabs(before / cfg.hidden - cfg.rho));
}

TEST(Sae, ParamRoundTrip) {
  SparseAutoencoder model(small_sae_config(), 121);
  std::vector<float> params(static_cast<std::size_t>(model.param_count()));
  model.get_params(params.data());
  SparseAutoencoder other(small_sae_config(), 999);
  other.set_params(params.data());
  EXPECT_TRUE(other.w1().approx_equal(model.w1(), 0.0f, 0.0f));
  EXPECT_TRUE(other.b2().approx_equal(model.b2(), 0.0f, 0.0f));
}

TEST(Sae, RejectsBadConfig) {
  SaeConfig cfg;
  cfg.visible = 0;
  cfg.hidden = 4;
  EXPECT_THROW(SparseAutoencoder(cfg, 1), util::Error);
}

TEST(Sae, RejectsWrongInputDim) {
  SparseAutoencoder model(small_sae_config(), 1);
  la::Matrix x = random_batch(3, 7, 1);
  SparseAutoencoder::Workspace ws;
  EXPECT_THROW(model.forward(x, ws, true), util::Error);
}

// --- RBM ---

RbmConfig small_rbm_config() {
  RbmConfig cfg;
  cfg.visible = 6;
  cfg.hidden = 5;
  return cfg;
}

TEST(RbmGradient, BatchedMatchesReference) {
  Rbm model(small_rbm_config(), 13);
  la::Matrix v1 = random_batch(8, 6, 12);
  Rbm::Workspace ws;
  RbmGradients grads;
  util::Rng rng(555);
  const double recon = model.gradient(v1, ws, grads, rng, true);

  baseline::RbmReference ref(model);
  std::vector<double> gw, gb, gc;
  const double ref_recon = ref.gradient(v1, rng, gw, gb, gc);

  EXPECT_NEAR(recon, ref_recon, 1e-5 * std::fabs(ref_recon) + 1e-6);
  EXPECT_LT(max_abs_diff(grads.g_w.data(), gw, grads.g_w.size()), 5e-6);
  EXPECT_LT(max_abs_diff(grads.g_b.data(), gb, grads.g_b.size()), 5e-6);
  EXPECT_LT(max_abs_diff(grads.g_c.data(), gc, grads.g_c.size()), 5e-6);
}

struct RbmShapeCase {
  la::Index batch, visible, hidden;
};

class RbmParity : public ::testing::TestWithParam<RbmShapeCase> {};

TEST_P(RbmParity, FusedEqualsUnfused) {
  const auto& p = GetParam();
  RbmConfig cfg;
  cfg.visible = p.visible;
  cfg.hidden = p.hidden;
  Rbm model(cfg, 14);
  la::Matrix v1 = random_batch(p.batch, p.visible, 13);
  Rbm::Workspace ws1, ws2;
  RbmGradients g1, g2;
  util::Rng rng(777);
  const double r1 = model.gradient(v1, ws1, g1, rng, true);
  const double r2 = model.gradient(v1, ws2, g2, rng, false);
  EXPECT_NEAR(r1, r2, 1e-5 * std::fabs(r1) + 1e-7);
  EXPECT_TRUE(g1.g_w.approx_equal(g2.g_w, 1e-4f, 1e-6f));
  EXPECT_TRUE(g1.g_b.approx_equal(g2.g_b, 1e-4f, 1e-6f));
  EXPECT_TRUE(g1.g_c.approx_equal(g2.g_c, 1e-4f, 1e-6f));
}

TEST_P(RbmParity, LoopFormEqualsMatrixForm) {
  const auto& p = GetParam();
  RbmConfig cfg;
  cfg.visible = p.visible;
  cfg.hidden = p.hidden;
  Rbm model(cfg, 15);
  la::Matrix v1 = random_batch(p.batch, p.visible, 14);
  Rbm::Workspace ws1, ws2;
  RbmGradients g_mat, g_loop;
  util::Rng rng(888);
  const double r_mat = model.gradient(v1, ws1, g_mat, rng, true);
  const double r_loop = rbm_gradient_loops(model, v1, ws2, g_loop, rng, false);
  EXPECT_NEAR(r_mat, r_loop, 1e-4 * std::fabs(r_mat) + 1e-6);
  EXPECT_TRUE(g_mat.g_w.approx_equal(g_loop.g_w, 1e-3f, 1e-6f));
  EXPECT_TRUE(g_mat.g_b.approx_equal(g_loop.g_b, 1e-3f, 1e-6f));
  EXPECT_TRUE(g_mat.g_c.approx_equal(g_loop.g_c, 1e-3f, 1e-6f));
}

TEST_P(RbmParity, TaskGraphEqualsDirect) {
  const auto& p = GetParam();
  RbmConfig cfg;
  cfg.visible = p.visible;
  cfg.hidden = p.hidden;
  Rbm model(cfg, 16);
  la::Matrix v1 = random_batch(p.batch, p.visible, 15);
  Rbm::Workspace ws1, ws2;
  RbmGradients g_direct, g_graph;
  util::Rng rng(999);
  const double r_direct = model.gradient(v1, ws1, g_direct, rng, true);

  par::ThreadPool pool(4);
  RbmTaskGraphStep step(model, pool);
  const double r_graph = step.run(v1, ws2, g_graph, rng);

  EXPECT_NEAR(r_direct, r_graph, 1e-5 * std::fabs(r_direct) + 1e-7);
  EXPECT_TRUE(g_direct.g_w.approx_equal(g_graph.g_w, 1e-4f, 1e-6f));
  EXPECT_TRUE(g_direct.g_b.approx_equal(g_graph.g_b, 1e-4f, 1e-6f));
  EXPECT_TRUE(g_direct.g_c.approx_equal(g_graph.g_c, 1e-4f, 1e-6f));
}

INSTANTIATE_TEST_SUITE_P(Shapes, RbmParity,
                         ::testing::Values(RbmShapeCase{1, 6, 5},
                                           RbmShapeCase{8, 6, 5},
                                           RbmShapeCase{16, 12, 7},
                                           RbmShapeCase{32, 30, 20}));

TEST(Rbm, SamplingIsDeterministicGivenRng) {
  Rbm model(small_rbm_config(), 17);
  la::Matrix v1 = random_batch(6, 6, 16);
  Rbm::Workspace ws1, ws2;
  RbmGradients g1, g2;
  model.gradient(v1, ws1, g1, util::Rng(4242), true);
  model.gradient(v1, ws2, g2, util::Rng(4242), true);
  EXPECT_TRUE(g1.g_w.approx_equal(g2.g_w, 0.0f, 0.0f));
  EXPECT_TRUE(ws1.h1_sample.approx_equal(ws2.h1_sample, 0.0f, 0.0f));
}

TEST(Rbm, TrainingReducesReconstructionError) {
  RbmConfig cfg;
  cfg.visible = 16;
  cfg.hidden = 12;
  Rbm model(cfg, 18);
  la::Matrix v1 = random_batch(40, 16, 17);
  Rbm::Workspace ws;
  RbmGradients g;
  util::Rng rng(31);
  double first = 0, last = 0;
  for (int it = 0; it < 60; ++it) {
    const double recon = model.gradient(v1, ws, g, rng.split(it), true);
    if (it == 0) first = recon;
    last = recon;
    model.apply_update(g, 0.5f);
  }
  EXPECT_LT(last, first);
}

TEST(Rbm, CdKGreaterThanOneRuns) {
  RbmConfig cfg = small_rbm_config();
  cfg.cd_k = 3;
  Rbm model(cfg, 19);
  la::Matrix v1 = random_batch(10, 6, 18);
  Rbm::Workspace ws;
  RbmGradients g;
  const double recon = model.gradient(v1, ws, g, util::Rng(1), true);
  EXPECT_GT(recon, 0.0);
  EXPECT_TRUE(std::isfinite(recon));
}

TEST(Rbm, CdKLoopFormMatchesReference) {
  RbmConfig cfg = small_rbm_config();
  cfg.cd_k = 2;
  Rbm model(cfg, 20);
  la::Matrix v1 = random_batch(6, 6, 19);
  Rbm::Workspace ws;
  RbmGradients g;
  util::Rng rng(2020);
  const double recon = rbm_gradient_loops(model, v1, ws, g, rng, false);

  baseline::RbmReference ref(model);
  std::vector<double> gw, gb, gc;
  const double ref_recon = ref.gradient(v1, rng, gw, gb, gc);
  EXPECT_NEAR(recon, ref_recon, 1e-4 * std::fabs(ref_recon) + 1e-6);
  EXPECT_LT(max_abs_diff(g.g_w.data(), gw, g.g_w.size()), 1e-5);
}

TEST(Rbm, SampleVisiblePathRuns) {
  RbmConfig cfg = small_rbm_config();
  cfg.sample_visible = true;
  Rbm model(cfg, 21);
  la::Matrix v1 = random_batch(10, 6, 20);
  Rbm::Workspace ws;
  RbmGradients g;
  model.gradient(v1, ws, g, util::Rng(3), true);
  // A sampled v2 is binary.
  for (la::Index i = 0; i < ws.v2.size(); ++i)
    EXPECT_TRUE(ws.v2.data()[i] == 0.0f || ws.v2.data()[i] == 1.0f);
}

TEST(Rbm, FreeEnergyMatchesReference) {
  Rbm model(small_rbm_config(), 23);
  la::Matrix v = random_batch(7, 6, 22);
  Rbm::Workspace ws;
  const double fe = model.free_energy(v, ws);
  baseline::RbmReference ref(model);
  EXPECT_NEAR(fe, ref.free_energy(v), 1e-4 * std::fabs(fe) + 1e-5);
}

TEST(Rbm, TrainedModelPrefersDataOverNoise) {
  // Absolute free energy can drift with the partition function, so the
  // meaningful check is relative: after training, the data must have lower
  // free energy (higher probability) than unrelated noise of the same shape.
  Rbm model(small_rbm_config(), 24);
  // Binary-ish structured data: two repeated prototype patterns.
  la::Matrix v1(30, 6);
  for (la::Index r = 0; r < v1.rows(); ++r)
    for (la::Index c = 0; c < 6; ++c)
      v1(r, c) = (r % 2 == 0) ? (c < 3 ? 0.95f : 0.05f)
                              : (c < 3 ? 0.05f : 0.95f);
  Rbm::Workspace ws;
  RbmGradients g;
  util::Rng rng(7);
  for (int it = 0; it < 200; ++it) {
    model.gradient(v1, ws, g, rng.split(it), true);
    model.apply_update(g, 0.3f);
  }
  la::Matrix noise = random_batch(30, 6, 23);
  const double fe_data = model.free_energy(v1, ws);
  const double fe_noise = model.free_energy(noise, ws);
  EXPECT_LT(fe_data, fe_noise);
}

TEST(Rbm, HiddenVisibleMeanShapes) {
  Rbm model(small_rbm_config(), 25);
  la::Matrix v = random_batch(4, 6, 24);
  la::Matrix h, v2;
  model.hidden_mean(v, h);
  EXPECT_EQ(h.rows(), 4);
  EXPECT_EQ(h.cols(), 5);
  model.visible_mean(h, v2);
  EXPECT_EQ(v2.cols(), 6);
  for (la::Index i = 0; i < h.size(); ++i) {
    EXPECT_GT(h.data()[i], 0.0f);
    EXPECT_LT(h.data()[i], 1.0f);
  }
}

TEST(Rbm, TaskGraphRequiresCd1) {
  RbmConfig cfg = small_rbm_config();
  cfg.cd_k = 2;
  Rbm model(cfg, 26);
  par::ThreadPool pool(2);
  EXPECT_THROW(RbmTaskGraphStep(model, pool), util::Error);
}

TEST(Rbm, TaskGraphReportsNodes) {
  Rbm model(small_rbm_config(), 27);
  par::ThreadPool pool(2);
  RbmTaskGraphStep step(model, pool);
  la::Matrix v1 = random_batch(8, 6, 26);
  Rbm::Workspace ws;
  RbmGradients g;
  step.run(v1, ws, g, util::Rng(9));
  const auto reports = step.node_reports();
  EXPECT_EQ(reports.size(), 11u);
  // The combine node is the deepest.
  std::size_t max_level = 0;
  for (const auto& r : reports) max_level = std::max(max_level, r.level);
  EXPECT_EQ(max_level, 4u);
  // Every gemm-bearing node recorded work.
  double total_gemm = 0;
  for (const auto& r : reports) total_gemm += r.stats.gemm_flops;
  EXPECT_GT(total_gemm, 0.0);
}

TEST(Rbm, RejectsBadConfig) {
  RbmConfig cfg;
  cfg.visible = 4;
  cfg.hidden = 3;
  cfg.cd_k = 0;
  EXPECT_THROW(Rbm(cfg, 1), util::Error);
}

TEST(Rbm, WorkspaceReusableAcrossBatchSizes) {
  Rbm model(small_rbm_config(), 28);
  Rbm::Workspace ws;
  RbmGradients g;
  la::Matrix big = random_batch(16, 6, 27);
  la::Matrix small = random_batch(4, 6, 28);
  EXPECT_NO_THROW(model.gradient(big, ws, g, util::Rng(1), true));
  EXPECT_NO_THROW(model.gradient(small, ws, g, util::Rng(2), true));
  EXPECT_EQ(ws.v2.rows(), 4);
}

}  // namespace
}  // namespace deepphi::core

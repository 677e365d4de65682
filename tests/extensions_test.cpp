// Tests for the extension modules: model checkpointing, Gaussian-visible
// RBMs, the denoising autoencoder, deep-autoencoder fine-tuning, online SGD,
// IDX (MNIST-format) I/O, thread/hybrid tuning, and Chrome trace export.
#include <gtest/gtest.h>

#include <cmath>
#include <cstdio>
#include <fstream>

#include "baseline/seq_rbm.hpp"
#include "core/deep_autoencoder.hpp"
#include "core/denoising.hpp"
#include "core/metrics.hpp"
#include "core/model_io.hpp"
#include "la/reduce.hpp"
#include "la/transpose.hpp"
#include "core/online_sgd.hpp"
#include "core/loop_form.hpp"
#include "core/rbm_taskgraph.hpp"
#include "core/trainer.hpp"
#include "data/digits.hpp"
#include "data/idx_io.hpp"
#include "data/patches.hpp"
#include "phi/tuning.hpp"
#include "util/rng.hpp"

namespace deepphi::core {
namespace {

la::Matrix random_batch(la::Index rows, la::Index cols, std::uint64_t seed,
                        double lo = 0.1, double hi = 0.9) {
  util::Rng rng(seed);
  la::Matrix m = la::Matrix::uninitialized(rows, cols);
  for (la::Index i = 0; i < m.size(); ++i)
    m.data()[i] = static_cast<float>(rng.uniform(lo, hi));
  return m;
}

std::string tmp_path(const std::string& name) {
  return testing::TempDir() + "/" + name;
}

// --- model_io ---

TEST(ModelIo, SaeRoundTrip) {
  SaeConfig cfg;
  cfg.visible = 12;
  cfg.hidden = 7;
  cfg.beta = 2.5f;
  SparseAutoencoder model(cfg, 3);
  const std::string path = tmp_path("sae.dpae");
  save_model(model, path);
  SparseAutoencoder loaded = load_sae(path);
  EXPECT_EQ(loaded.visible(), 12);
  EXPECT_EQ(loaded.config().beta, 2.5f);
  EXPECT_TRUE(loaded.w1().approx_equal(model.w1(), 0.0f, 0.0f));
  EXPECT_TRUE(loaded.b2().approx_equal(model.b2(), 0.0f, 0.0f));
  std::remove(path.c_str());
}

TEST(ModelIo, RbmRoundTripPreservesConfig) {
  RbmConfig cfg;
  cfg.visible = 9;
  cfg.hidden = 5;
  cfg.cd_k = 3;
  cfg.sample_visible = true;
  cfg.visible_type = VisibleType::kGaussian;
  Rbm model(cfg, 4);
  const std::string path = tmp_path("rbm.dprb");
  save_model(model, path);
  Rbm loaded = load_rbm(path);
  EXPECT_EQ(loaded.config().cd_k, 3);
  EXPECT_TRUE(loaded.config().sample_visible);
  EXPECT_EQ(loaded.config().visible_type, VisibleType::kGaussian);
  EXPECT_TRUE(loaded.w().approx_equal(model.w(), 0.0f, 0.0f));
  std::remove(path.c_str());
}

TEST(ModelIo, StackRoundTrip) {
  SaeConfig proto;
  StackedAutoencoder model({16, 9, 4}, proto, 5);
  model.layer(1).w1()(0, 0) = 42.0f;
  const std::string path = tmp_path("stack.dpsa");
  save_model(model, path);
  StackedAutoencoder loaded = load_stacked_sae(path);
  EXPECT_EQ(loaded.layers(), 2u);
  EXPECT_EQ(loaded.layer_sizes(), (std::vector<la::Index>{16, 9, 4}));
  EXPECT_EQ(loaded.layer(1).w1()(0, 0), 42.0f);
  std::remove(path.c_str());
}

TEST(ModelIo, DbnRoundTrip) {
  RbmConfig proto;
  Dbn model({16, 9, 4}, proto, 6);
  const std::string path = tmp_path("dbn.dpdb");
  save_model(model, path);
  Dbn loaded = load_dbn(path);
  EXPECT_EQ(loaded.layers(), 2u);
  EXPECT_TRUE(loaded.layer(0).w().approx_equal(model.layer(0).w(), 0.0f, 0.0f));
  std::remove(path.c_str());
}

TEST(ModelIo, WrongMagicRejected) {
  SaeConfig cfg;
  cfg.visible = 4;
  cfg.hidden = 3;
  SparseAutoencoder model(cfg, 7);
  const std::string path = tmp_path("sae_as_rbm.dpae");
  save_model(model, path);
  EXPECT_THROW(load_rbm(path), util::Error);
  std::remove(path.c_str());
}

TEST(ModelIo, TruncatedCheckpointRejected) {
  RbmConfig cfg;
  cfg.visible = 30;
  cfg.hidden = 20;
  Rbm model(cfg, 8);
  const std::string path = tmp_path("trunc.dprb");
  save_model(model, path);
  {
    std::ifstream in(path, std::ios::binary);
    std::string contents((std::istreambuf_iterator<char>(in)),
                         std::istreambuf_iterator<char>());
    std::ofstream out(path, std::ios::binary | std::ios::trunc);
    out.write(contents.data(), static_cast<std::streamsize>(contents.size() / 3));
  }
  EXPECT_THROW(load_rbm(path), util::Error);
  std::remove(path.c_str());
}

TEST(ModelIo, MissingFileRejected) {
  EXPECT_THROW(load_sae("/nonexistent/model.dpae"), util::Error);
}

// Hostile headers: a checkpoint whose header declares more payload than the
// file holds must fail with a typed error before any model is built.

/// Writes `magic`, version 1, the raw `fields`, then `payload_bytes` zeros.
template <typename... Fields>
std::string write_checkpoint(const std::string& name, const char magic[4],
                             std::size_t payload_bytes, Fields... fields) {
  const std::string path = tmp_path(name);
  std::ofstream out(path, std::ios::binary);
  out.write(magic, 4);
  const std::uint32_t version = 1;
  out.write(reinterpret_cast<const char*>(&version), sizeof(version));
  (out.write(reinterpret_cast<const char*>(&fields), sizeof(fields)), ...);
  out << std::string(payload_bytes, '\0');
  return path;
}

/// The util::Error message model_io::load_any throws for `path`.
std::string load_error(const std::string& path) {
  try {
    model_io::load_any(path);
  } catch (const util::Error& e) {
    return e.what();
  }
  ADD_FAILURE() << "'" << path << "' loaded";
  return "";
}

std::string sae_lie(const std::string& name, std::int64_t visible,
                    std::int64_t hidden) {
  // 40 header bytes + 8 payload bytes = a 48-byte file.
  return write_checkpoint(name, "DPAE", 8, visible, hidden, 1e-4f, 0.05f,
                          3.0f, std::int32_t{0});
}

TEST(ModelIo, SaeHeaderLargerThanTheFileIsRejected) {
  const std::string what = load_error(sae_lie("lie_8192.dpae", 8192, 8192));
  // w1, b1, w2, b2: 4 * (2 * 8192^2 + 2 * 8192) bytes.
  EXPECT_NE(what.find("declares 536936448 payload bytes"), std::string::npos)
      << what;
  EXPECT_NE(what.find("only 8 are left"), std::string::npos) << what;
}

TEST(ModelIo, SaeHeaderClaimingTerabytesIsRejectedBeforeAllocating) {
  const std::string what =
      load_error(sae_lie("lie_2p20.dpae", 1 << 20, 1 << 20));
  EXPECT_NE(what.find("declares 8796101410816 payload bytes"),
            std::string::npos)
      << what;
  EXPECT_NE(what.find("only 8 are left"), std::string::npos) << what;
}

TEST(ModelIo, RbmWithUnknownVisibleTypeIsRejected) {
  // A 4x3 RBM with its full 76-byte payload, but visible_type 77.
  const std::string what = load_error(write_checkpoint(
      "vtype77.dprb", "DPRB", 4 * (4 * 3 + 4 + 3), std::int64_t{4},
      std::int64_t{3}, std::int32_t{1}, std::int32_t{0}, std::int32_t{77},
      0.01f));
  EXPECT_NE(what.find("unknown visible_type 77"), std::string::npos) << what;
}

// --- Gaussian-visible RBM ---

RbmConfig gaussian_config() {
  RbmConfig cfg;
  cfg.visible = 8;
  cfg.hidden = 6;
  cfg.visible_type = VisibleType::kGaussian;
  return cfg;
}

TEST(GaussianRbm, GradientMatchesReference) {
  Rbm model(gaussian_config(), 11);
  la::Matrix v1 = random_batch(10, 8, 12, -1.0, 1.0);
  Rbm::Workspace ws;
  RbmGradients grads;
  util::Rng rng(13);
  const double recon = model.gradient(v1, ws, grads, rng, true);

  baseline::RbmReference ref(model);
  std::vector<double> gw, gb, gc;
  const double ref_recon = ref.gradient(v1, rng, gw, gb, gc);
  EXPECT_NEAR(recon, ref_recon, 1e-4 * std::fabs(ref_recon) + 1e-6);
  double worst = 0;
  for (la::Index i = 0; i < model.w().size(); ++i)
    worst = std::max(worst, std::fabs(grads.g_w.data()[i] - gw[i]));
  EXPECT_LT(worst, 1e-5);
}

TEST(GaussianRbm, VisibleReconstructionIsLinear) {
  Rbm model(gaussian_config(), 14);
  // With zero weights the visible mean equals the bias (no squashing).
  model.w().zero();
  model.b().fill(2.5f);
  la::Matrix h = random_batch(4, 6, 15, 0.0, 1.0);
  la::Matrix v;
  model.visible_mean(h, v);
  for (la::Index i = 0; i < v.size(); ++i) EXPECT_FLOAT_EQ(v.data()[i], 2.5f);
}

TEST(GaussianRbm, SampledVisiblesCarryNoise) {
  RbmConfig cfg = gaussian_config();
  cfg.sample_visible = true;
  Rbm model(cfg, 16);
  la::Matrix v1 = random_batch(32, 8, 17, -1.0, 1.0);
  Rbm::Workspace ws;
  RbmGradients grads;
  model.gradient(v1, ws, grads, util::Rng(18), true);
  // Sampled reconstructions must not all be in (0,1) — they're unbounded.
  float lo = 1e9f, hi = -1e9f;
  for (la::Index i = 0; i < ws.v2.size(); ++i) {
    lo = std::min(lo, ws.v2.data()[i]);
    hi = std::max(hi, ws.v2.data()[i]);
  }
  EXPECT_LT(lo, 0.0f);
  EXPECT_GT(hi, 1.0f);
}

TEST(GaussianRbm, TrainingReducesReconError) {
  RbmConfig cfg;
  cfg.visible = 16;
  cfg.hidden = 12;
  cfg.visible_type = VisibleType::kGaussian;
  Rbm model(cfg, 19);
  // Continuous data with structure: two prototype patterns + noise.
  la::Matrix v1(40, 16);
  util::Rng rng(20);
  for (la::Index r = 0; r < 40; ++r)
    for (la::Index c = 0; c < 16; ++c)
      v1(r, c) = (r % 2 == 0 ? (c < 8 ? 0.8f : -0.8f) : (c < 8 ? -0.8f : 0.8f)) +
                 0.1f * static_cast<float>(rng.normal());
  Rbm::Workspace ws;
  RbmGradients g;
  double first = 0, last = 0;
  for (int it = 0; it < 80; ++it) {
    const double recon = model.gradient(v1, ws, g, rng.split(it), true);
    if (it == 0) first = recon;
    last = recon;
    model.apply_update(g, 0.05f);
  }
  EXPECT_LT(last, first);
}

TEST(GaussianRbm, FreeEnergyMatchesReference) {
  Rbm model(gaussian_config(), 21);
  la::Matrix v = random_batch(6, 8, 22, -1.0, 1.0);
  Rbm::Workspace ws;
  baseline::RbmReference ref(model);
  EXPECT_NEAR(model.free_energy(v, ws), ref.free_energy(v), 1e-4);
}

TEST(GaussianRbm, LoopFormRejected) {
  Rbm model(gaussian_config(), 23);
  la::Matrix v1 = random_batch(4, 8, 24);
  Rbm::Workspace ws;
  RbmGradients g;
  EXPECT_THROW(rbm_gradient_loops(model, v1, ws, g, util::Rng(1), false),
               util::Error);
}

TEST(GaussianRbm, TaskGraphRejected) {
  Rbm model(gaussian_config(), 25);
  par::ThreadPool pool(1);
  EXPECT_THROW(RbmTaskGraphStep(model, pool), util::Error);
}

TEST(GaussianRbm, AccountingModelEqualsMeasure) {
  RbmConfig cfg = gaussian_config();
  cfg.sample_visible = true;
  // One gradient + update; run on real data, then dry on a shape-only batch.
  auto step = [&cfg](const la::Matrix& v1) {
    Rbm model(cfg, 26);
    Rbm::Workspace ws;
    RbmGradients grads;
    Optimizer opt(OptimizerConfig{});
    phi::KernelStats stats;
    phi::StatsScope scope(stats);
    model.gradient(v1, ws, grads, util::Rng(28), true);
    opt.update(model.w(), grads.g_w);
    opt.update(model.b(), grads.g_b);
    opt.update(model.c(), grads.g_c);
    return stats;
  };
  const phi::KernelStats measured = step(random_batch(7, 8, 27));
  phi::DryRun dry;
  const phi::KernelStats modeled = step(la::Matrix(7, 8));
  EXPECT_TRUE(measured == modeled) << "measured: " << measured.to_string()
                                   << "\nmodeled:  " << modeled.to_string();
}

TEST(GaussianRbm, DbnAppliesGaussianToBottomOnly) {
  RbmConfig proto = gaussian_config();
  Dbn dbn({8, 6, 4}, proto, 29);
  EXPECT_EQ(dbn.layer(0).config().visible_type, VisibleType::kGaussian);
  EXPECT_EQ(dbn.layer(1).config().visible_type, VisibleType::kBernoulli);
}

// --- tied weights ---

SaeConfig tied_config() {
  SaeConfig cfg;
  cfg.visible = 10;
  cfg.hidden = 6;
  cfg.lambda = 1e-3f;
  cfg.beta = 0.3f;
  cfg.rho = 0.1f;
  cfg.tied_weights = true;
  return cfg;
}

TEST(TiedWeights, InitializationIsTied) {
  SparseAutoencoder model(tied_config(), 61);
  EXPECT_TRUE(model.w2().approx_equal(la::transposed(model.w1()), 0.0f, 0.0f));
}

TEST(TiedWeights, GradientBuffersStayConsistent) {
  SparseAutoencoder model(tied_config(), 62);
  la::Matrix x = random_batch(8, 10, 63);
  SparseAutoencoder::Workspace ws;
  AeGradients g;
  model.gradient(x, ws, g, true);
  EXPECT_TRUE(g.g_w2.approx_equal(la::transposed(g.g_w1), 0.0f, 0.0f));
}

TEST(TiedWeights, TieSurvivesTrainingUnderEveryOptimizer) {
  data::Dataset patches = data::make_digit_patch_dataset(256, 4, 64);
  for (OptimizerKind kind :
       {OptimizerKind::kSgd, OptimizerKind::kMomentum, OptimizerKind::kAdagrad}) {
    SaeConfig cfg = tied_config();
    cfg.visible = 16;
    cfg.hidden = 8;
    SparseAutoencoder model(cfg, 65);
    TrainerConfig tcfg;
    tcfg.batch_size = 32;
    tcfg.chunk_examples = 128;
    tcfg.epochs = 2;
    tcfg.policy = ExecPolicy::kHost;
    tcfg.optimizer.kind = kind;
    tcfg.optimizer.lr = 0.1f;
    Trainer(tcfg).train(model, patches);
    EXPECT_TRUE(
        model.w2().approx_equal(la::transposed(model.w1()), 1e-6f, 1e-8f))
        << to_string(kind);
  }
}

TEST(TiedWeights, CombinedGradientMatchesPairedFiniteDifference) {
  SparseAutoencoder model(tied_config(), 66);
  la::Matrix x = random_batch(6, 10, 67);
  SparseAutoencoder::Workspace ws;
  AeGradients g;
  model.gradient(x, ws, g, true);

  // The free parameter is the shared W: perturb w1(i,j) and w2(j,i) together.
  const float eps = 1e-3f;
  for (const auto& idx : {std::pair<la::Index, la::Index>{0, 0},
                          std::pair<la::Index, la::Index>{3, 7}}) {
    auto cost_at = [&](float delta) {
      SparseAutoencoder probe(tied_config(), 66);
      probe.w1().copy_from(model.w1());
      probe.b1().copy_from(model.b1());
      probe.w2().copy_from(model.w2());
      probe.b2().copy_from(model.b2());
      probe.w1()(idx.first, idx.second) += delta;
      probe.w2()(idx.second, idx.first) += delta;
      SparseAutoencoder::Workspace tmp;
      AeGradients unused;
      return probe.gradient(x, tmp, unused, true);
    };
    const double numeric = (cost_at(eps) - cost_at(-eps)) / (2.0 * eps);
    EXPECT_NEAR(numeric, g.g_w1(idx.first, idx.second), 5e-3);
  }
}

TEST(TiedWeights, FusedEqualsUnfused) {
  SparseAutoencoder model(tied_config(), 75);
  la::Matrix x = random_batch(12, 10, 76);
  SparseAutoencoder::Workspace ws1, ws2;
  AeGradients g1, g2;
  const double c1 = model.gradient(x, ws1, g1, true);
  const double c2 = model.gradient(x, ws2, g2, false);
  EXPECT_NEAR(c1, c2, 1e-6 * std::fabs(c1) + 1e-9);
  EXPECT_TRUE(g1.g_w1.approx_equal(g2.g_w1, 1e-5f, 1e-7f));
  EXPECT_TRUE(g1.g_w2.approx_equal(g2.g_w2, 1e-5f, 1e-7f));
}

TEST(TiedWeights, TrainingLearns) {
  data::Dataset patches = data::make_digit_patch_dataset(512, 4, 68);
  SaeConfig cfg = tied_config();
  cfg.visible = 16;
  cfg.hidden = 10;
  SparseAutoencoder model(cfg, 69);
  TrainerConfig tcfg;
  tcfg.batch_size = 64;
  tcfg.chunk_examples = 256;
  tcfg.epochs = 4;
  tcfg.policy = ExecPolicy::kHost;
  tcfg.optimizer.lr = 0.5f;
  const TrainReport report = Trainer(tcfg).train(model, patches);
  EXPECT_LT(report.chunk_mean_costs.back(), report.chunk_mean_costs.front());
}

TEST(TiedWeights, LoopFormRejected) {
  SparseAutoencoder model(tied_config(), 70);
  la::Matrix x = random_batch(4, 10, 71);
  SparseAutoencoder::Workspace ws;
  AeGradients g;
  EXPECT_THROW(sae_gradient_loops(model, x, ws, g, false), util::Error);
}

TEST(TiedWeights, AccountingModelEqualsMeasure) {
  // One gradient + update; run on real data, then dry on a shape-only batch.
  auto step = [](const la::Matrix& x) {
    SparseAutoencoder model(tied_config(), 72);
    SparseAutoencoder::Workspace ws;
    AeGradients grads;
    Optimizer opt(OptimizerConfig{});
    phi::KernelStats stats;
    phi::StatsScope scope(stats);
    model.gradient(x, ws, grads, true);
    opt.update(model.w1(), grads.g_w1);
    opt.update(model.b1(), grads.g_b1);
    opt.update(model.w2(), grads.g_w2);
    opt.update(model.b2(), grads.g_b2);
    return stats;
  };
  const phi::KernelStats measured = step(random_batch(9, 10, 73));
  phi::DryRun dry;
  const phi::KernelStats modeled = step(la::Matrix(9, 10));
  EXPECT_TRUE(measured == modeled) << "measured: " << measured.to_string()
                                   << "\nmodeled:  " << modeled.to_string();
}

TEST(TiedWeights, CheckpointRoundTrip) {
  SparseAutoencoder model(tied_config(), 74);
  const std::string path = tmp_path("tied.dpae");
  save_model(model, path);
  SparseAutoencoder loaded = load_sae(path);
  EXPECT_TRUE(loaded.config().tied_weights);
  EXPECT_TRUE(loaded.w2().approx_equal(la::transposed(loaded.w1()), 0.0f, 0.0f));
  std::remove(path.c_str());
}

// --- denoising ---

TEST(Denoising, MaskCorruptZeroesExpectedFraction) {
  la::Matrix clean = la::Matrix::constant(100, 50, 1.0f);
  la::Matrix corrupted;
  mask_corrupt(clean, corrupted, 0.3f, util::Rng(31));
  la::Index zeros = 0;
  for (la::Index i = 0; i < corrupted.size(); ++i)
    if (corrupted.data()[i] == 0.0f) ++zeros;
  EXPECT_NEAR(static_cast<double>(zeros) / corrupted.size(), 0.3, 0.02);
}

TEST(Denoising, MaskCorruptIsDeterministic) {
  la::Matrix clean = random_batch(10, 8, 32);
  la::Matrix a, b;
  mask_corrupt(clean, a, 0.5f, util::Rng(33));
  mask_corrupt(clean, b, 0.5f, util::Rng(33));
  EXPECT_TRUE(a.approx_equal(b, 0.0f, 0.0f));
}

TEST(Denoising, ZeroMaskIsIdentity) {
  la::Matrix clean = random_batch(5, 6, 34);
  la::Matrix corrupted;
  mask_corrupt(clean, corrupted, 0.0f, util::Rng(35));
  EXPECT_TRUE(corrupted.approx_equal(clean, 0.0f, 0.0f));
}

TEST(Denoising, RejectsFullMask) {
  la::Matrix clean(2, 2), corrupted;
  EXPECT_THROW(mask_corrupt(clean, corrupted, 1.0f, util::Rng(1)), util::Error);
}

TEST(Denoising, GradientEqualsPlainWhenUncorrupted) {
  SaeConfig cfg;
  cfg.visible = 10;
  cfg.hidden = 6;
  SparseAutoencoder model(cfg, 36);
  la::Matrix clean = random_batch(8, 10, 37);
  la::Matrix corrupted;
  SparseAutoencoder::Workspace ws1, ws2;
  AeGradients g1, g2;
  const double c1 = sae_denoising_gradient(model, clean, corrupted, ws1, g1,
                                           0.0f, util::Rng(38));
  const double c2 = model.gradient(clean, ws2, g2, true);
  EXPECT_NEAR(c1, c2, 1e-9);
  EXPECT_TRUE(g1.g_w1.approx_equal(g2.g_w1, 0.0f, 0.0f));
}

TEST(Denoising, TrainingLearnsToDenoise) {
  data::Dataset patches = data::make_digit_patch_dataset(512, 4, 39);
  SaeConfig cfg;
  cfg.visible = 16;
  cfg.hidden = 12;
  cfg.beta = 0.1f;
  SparseAutoencoder model(cfg, 40);
  la::Matrix clean(128, 16), corrupted;
  patches.copy_batch(0, 128, clean);
  SparseAutoencoder::Workspace ws;
  AeGradients g;
  util::Rng rng(41);
  double first = 0, last = 0;
  for (int it = 0; it < 120; ++it) {
    const double cost = sae_denoising_gradient(model, clean, corrupted, ws, g,
                                               0.25f, rng.split(it));
    if (it == 0) first = cost;
    last = cost;
    model.apply_update(g, 0.5f);
  }
  EXPECT_LT(last, first * 0.9);
}

// --- deep autoencoder fine-tuning ---

TEST(DeepAutoencoder, UnrollFromStackMatchesSingleLayerSae) {
  // A 1-layer stack unrolls to exactly the SAE's encoder/decoder; with
  // beta = 0 the deep gradient must equal the SAE gradient at equal lambda.
  SaeConfig cfg;
  cfg.visible = 10;
  cfg.hidden = 6;
  cfg.beta = 0.0f;
  cfg.lambda = 1e-3f;
  StackedAutoencoder stack({10, 6}, cfg, 42);
  DeepAutoencoder deep(stack);
  EXPECT_EQ(deep.layers(), 2u);
  EXPECT_EQ(deep.input_dim(), 10);
  EXPECT_EQ(deep.code_dim(), 6);

  la::Matrix x = random_batch(9, 10, 43);
  DeepAutoencoder::Workspace dws;
  DeepAutoencoder::Gradients dgrads;
  const double deep_cost = deep.gradient(x, dws, dgrads, cfg.lambda);

  SparseAutoencoder::Workspace sws;
  AeGradients sgrads;
  const double sae_cost = stack.layer(0).gradient(x, sws, sgrads, true);

  EXPECT_NEAR(deep_cost, sae_cost, 1e-5 * std::fabs(sae_cost) + 1e-8);
  EXPECT_TRUE(dgrads.g_w[0].approx_equal(sgrads.g_w1, 1e-5f, 1e-7f));
  EXPECT_TRUE(dgrads.g_w[1].approx_equal(sgrads.g_w2, 1e-5f, 1e-7f));
  EXPECT_TRUE(dgrads.g_b[0].approx_equal(sgrads.g_b1, 1e-5f, 1e-7f));
  EXPECT_TRUE(dgrads.g_b[1].approx_equal(sgrads.g_b2, 1e-5f, 1e-7f));
}

TEST(DeepAutoencoder, GradientMatchesFiniteDifferences) {
  SaeConfig cfg;
  cfg.visible = 6;
  cfg.hidden = 4;
  StackedAutoencoder stack({6, 4, 3}, cfg, 44);
  DeepAutoencoder deep(stack);
  la::Matrix x = random_batch(5, 6, 45);
  DeepAutoencoder::Workspace ws;
  DeepAutoencoder::Gradients grads;
  deep.gradient(x, ws, grads, 0.0f);

  // Central differences on a few weights of layer 1 (float model: coarse
  // eps, loose tolerance).
  const float eps = 1e-2f;
  for (const auto& idx : {std::pair<la::Index, la::Index>{0, 0},
                         std::pair<la::Index, la::Index>{2, 3}}) {
    DeepAutoencoder::Workspace tmp;
    DeepAutoencoder::Gradients unused;
    float& wref = deep.layer(1).w(idx.first, idx.second);
    const float original = wref;
    wref = original + eps;
    const double plus = deep.gradient(x, tmp, unused, 0.0f);
    wref = original - eps;
    const double minus = deep.gradient(x, tmp, unused, 0.0f);
    wref = original;
    const double numeric = (plus - minus) / (2.0 * eps);
    EXPECT_NEAR(numeric, grads.g_w[1](idx.first, idx.second), 5e-3)
        << "w[1](" << idx.first << "," << idx.second << ")";
  }
}

TEST(DeepAutoencoder, FinetuningImprovesReconstruction) {
  data::Dataset patches = data::make_digit_patch_dataset(1024, 4, 46);
  SaeConfig proto;
  proto.beta = 0.1f;
  StackedAutoencoder stack({16, 10, 6}, proto, 47);
  TrainerConfig tcfg;
  tcfg.batch_size = 128;
  tcfg.chunk_examples = 1024;
  tcfg.epochs = 3;
  tcfg.policy = ExecPolicy::kHost;
  tcfg.optimizer.lr = 0.5f;
  stack.pretrain(patches, tcfg);

  DeepAutoencoder deep(stack);
  la::Matrix x(256, 16), before, after;
  patches.copy_batch(0, 256, x);
  deep.reconstruct(x, before);
  const double err_before = la::sum_sq_diff(before, x) / 256.0;

  DeepAutoencoder::FinetuneConfig fcfg;
  fcfg.batch_size = 128;
  fcfg.epochs = 8;
  fcfg.optimizer.lr = 0.5f;
  const auto report = deep.finetune(patches, fcfg);
  EXPECT_LT(report.epoch_costs.back(), report.epoch_costs.front());

  deep.reconstruct(x, after);
  const double err_after = la::sum_sq_diff(after, x) / 256.0;
  EXPECT_LT(err_after, err_before);
}

TEST(DeepAutoencoder, UnrollFromDbnShapes) {
  RbmConfig proto;
  Dbn dbn({12, 8, 5}, proto, 48);
  DeepAutoencoder deep(dbn);
  EXPECT_EQ(deep.layers(), 4u);
  EXPECT_EQ(deep.input_dim(), 12);
  EXPECT_EQ(deep.code_dim(), 5);
  // Decoder layer 2 is the transpose of encoder layer 1's weights.
  EXPECT_EQ(deep.layer(2).w.rows(), 8);
  EXPECT_EQ(deep.layer(2).w.cols(), 5);
  la::Matrix x = random_batch(3, 12, 49);
  la::Matrix recon;
  deep.reconstruct(x, recon);
  EXPECT_EQ(recon.rows(), 3);
  EXPECT_EQ(recon.cols(), 12);
}

TEST(DeepAutoencoder, EncodeMatchesStackEncode) {
  SaeConfig proto;
  StackedAutoencoder stack({10, 7, 4}, proto, 50);
  DeepAutoencoder deep(stack);
  la::Matrix x = random_batch(6, 10, 51);
  la::Matrix stack_code, deep_code;
  stack.encode(x, stack_code);
  deep.encode(x, deep_code);
  EXPECT_TRUE(deep_code.approx_equal(stack_code, 1e-6f, 1e-8f));
}

// --- online SGD ---

TEST(OnlineSgd, StepChangesParametersAndReturnsError) {
  SaeConfig cfg;
  cfg.visible = 8;
  cfg.hidden = 5;
  SparseAutoencoder model(cfg, 52);
  const la::Matrix w1_before = model.w1();
  OnlineSaeTrainer online(model, {0.2f, 0.99f});
  la::Matrix x = random_batch(1, 8, 53);
  const double err = online.step(x.row(0));
  EXPECT_GT(err, 0.0);
  EXPECT_FALSE(model.w1().approx_equal(w1_before, 0.0f, 0.0f));
}

TEST(OnlineSgd, EpochReducesError) {
  data::Dataset patches = data::make_digit_patch_dataset(1024, 4, 54);
  SaeConfig cfg;
  cfg.visible = 16;
  cfg.hidden = 10;
  cfg.beta = 0.3f;
  SparseAutoencoder model(cfg, 55);
  OnlineSaeTrainer online(model, {0.1f, 0.995f});
  const double e1 = online.train_epoch(patches);
  double e_last = e1;
  for (int epoch = 0; epoch < 3; ++epoch) e_last = online.train_epoch(patches);
  EXPECT_LT(e_last, e1);
}

TEST(OnlineSgd, RunningRhoHatTracksActivity) {
  SaeConfig cfg;
  cfg.visible = 8;
  cfg.hidden = 5;
  cfg.rho = 0.05f;
  SparseAutoencoder model(cfg, 56);
  OnlineSaeTrainer online(model, {0.05f, 0.9f});
  // Before any step the estimate sits at the target.
  for (la::Index i = 0; i < 5; ++i) EXPECT_FLOAT_EQ(online.rho_hat()[i], 0.05f);
  la::Matrix x = random_batch(1, 8, 57);
  online.step(x.row(0));
  // After one step it has moved toward the actual activations (~0.5).
  double mean = 0;
  for (la::Index i = 0; i < 5; ++i) mean += online.rho_hat()[i];
  EXPECT_GT(mean / 5, 0.05);
}

TEST(OnlineSgd, MatchesBatchOneGradientDirectionally) {
  // One online step ≈ one batch-1 mini-batch step (the sparsity estimate
  // differs — running vs batch — so compare reconstruction improvement).
  SaeConfig cfg;
  cfg.visible = 8;
  cfg.hidden = 5;
  cfg.beta = 0.0f;  // remove the sparsity difference
  cfg.lambda = 0.0f;
  SparseAutoencoder online_model(cfg, 58);
  SparseAutoencoder batch_model(cfg, 58);
  la::Matrix x = random_batch(1, 8, 59);

  OnlineSaeTrainer online(online_model, {0.3f, 0.99f});
  online.step(x.row(0));

  SparseAutoencoder::Workspace ws;
  AeGradients g;
  batch_model.gradient(x, ws, g, true);
  batch_model.apply_update(g, 0.3f);

  EXPECT_TRUE(online_model.w1().approx_equal(batch_model.w1(), 1e-3f, 1e-5f));
  EXPECT_TRUE(online_model.b2().approx_equal(batch_model.b2(), 1e-3f, 1e-5f));
}

// --- IDX I/O ---

TEST(IdxIo, ImageRoundTrip) {
  data::DigitConfig dc;
  dc.image_size = 16;
  data::Dataset images = data::make_digit_images(10, dc, 60);
  const std::string path = tmp_path("images.idx3");
  data::save_idx_images(images, 16, path);
  la::Index rows = 0, cols = 0;
  data::Dataset loaded = data::load_idx_images(path, &rows, &cols);
  EXPECT_EQ(rows, 16);
  EXPECT_EQ(cols, 16);
  EXPECT_EQ(loaded.size(), 10);
  EXPECT_EQ(loaded.dim(), 256);
  // u8 quantization: within 1/255.
  EXPECT_TRUE(loaded.matrix().approx_equal(images.matrix(), 0.0f, 1.0f / 254.0f));
  std::remove(path.c_str());
}

TEST(IdxIo, LabelRoundTrip) {
  const std::vector<int> labels = {0, 5, 9, 3, 255};
  const std::string path = tmp_path("labels.idx1");
  data::save_idx_labels(labels, path);
  EXPECT_EQ(data::load_idx_labels(path), labels);
  std::remove(path.c_str());
}

TEST(IdxIo, WrongMagicRejected) {
  const std::string path = tmp_path("bogus.idx");
  {
    std::ofstream out(path, std::ios::binary);
    out << "not an idx file at all";
  }
  EXPECT_THROW(data::load_idx_images(path), util::Error);
  EXPECT_THROW(data::load_idx_labels(path), util::Error);
  std::remove(path.c_str());
}

TEST(IdxIo, TruncatedImagesRejected) {
  data::Dataset images(4, 16);
  const std::string path = tmp_path("trunc.idx3");
  data::save_idx_images(images, 4, path);
  {
    std::ifstream in(path, std::ios::binary);
    std::string contents((std::istreambuf_iterator<char>(in)),
                         std::istreambuf_iterator<char>());
    std::ofstream out(path, std::ios::binary | std::ios::trunc);
    out.write(contents.data(), static_cast<std::streamsize>(contents.size() - 10));
  }
  EXPECT_THROW(data::load_idx_images(path), util::Error);
  std::remove(path.c_str());
}

TEST(IdxIo, OutOfRangeLabelRejected) {
  EXPECT_THROW(data::save_idx_labels({300}, tmp_path("bad.idx1")), util::Error);
}

// --- tuning ---

TEST(Tuning, SmallWorkloadPrefersFewerThreads) {
  const phi::CostModel model(phi::xeon_phi_5110p());
  // Launch-heavy, compute-light: sync dominates.
  phi::KernelStats tiny;
  tiny.kernel_launches = 1000;
  tiny.gemm_flops = 1e6;
  tiny.gemm_flops_bucket[0] = 1e6;
  const auto result = phi::tune_threads(model, tiny);
  EXPECT_LT(result.best_threads, 240);
}

TEST(Tuning, LargeWorkloadUsesManyThreads) {
  const phi::CostModel model(phi::xeon_phi_5110p());
  const phi::KernelStats big = phi::gemm_contribution(10000, 4096, 4096);
  const auto result = phi::tune_threads(model, big);
  EXPECT_GE(result.best_threads, 120);
}

TEST(Tuning, BestIsMinimumOfCurve) {
  const phi::CostModel model(phi::xeon_phi_5110p());
  const phi::KernelStats work = phi::gemm_contribution(512, 512, 512);
  const auto result = phi::tune_threads(model, work);
  for (const auto& [threads, time] : result.curve)
    EXPECT_LE(result.best_time_s, time) << "threads=" << threads;
}

TEST(Tuning, ExplicitCandidatesRespected) {
  const phi::CostModel model(phi::xeon_phi_5110p());
  const auto result = phi::tune_threads(
      model, phi::gemm_contribution(64, 64, 64), {7, 13});
  EXPECT_TRUE(result.best_threads == 7 || result.best_threads == 13);
  EXPECT_EQ(result.curve.size(), 2u);
}

// One Improved-level SAE step on `rows` examples, from a dry run.
phi::KernelStats sae_step(la::Index rows, la::Index visible, la::Index hidden) {
  return dry_train(SaeConfig{visible, hidden},
                   {.batch_size = rows, .chunk_examples = rows}, rows)
      .per_chunk_compute_stats();
}

TEST(Tuning, HybridNeverWorseThanEitherAlone) {
  const phi::CostModel phi_model(phi::xeon_phi_5110p());
  const phi::CostModel host_model(phi::xeon_e5620());
  auto batch_stats = [](long long rows) { return sae_step(rows, 256, 512); };
  const auto result = phi::tune_hybrid_split(phi_model, 240, host_model, 8,
                                             batch_stats, 1000, 1e6);
  EXPECT_LE(result.best_time_s, result.phi_only_s + 1e-12);
  EXPECT_LE(result.best_time_s, result.host_only_s + 1e-12);
  EXPECT_GT(result.curve.size(), 10u);
}

TEST(Tuning, HybridDegeneratesToPhiWhenHostUseless) {
  // Make the host absurdly slow: the tuner should send everything to the Phi.
  phi::MachineSpec weak = phi::xeon_e5620_single_core();
  weak.scalar_flops_per_cycle = 1e-6;
  weak.gemm_efficiency = 1e-6;
  weak.loop_efficiency = 1e-6;
  const phi::CostModel phi_model(phi::xeon_phi_5110p());
  const phi::CostModel host_model(weak);
  auto batch_stats = [](long long rows) { return sae_step(rows, 64, 128); };
  const auto result = phi::tune_hybrid_split(phi_model, 240, host_model, 1,
                                             batch_stats, 1000, 1e6);
  EXPECT_DOUBLE_EQ(result.best_fraction, 1.0);
}

// --- Chrome trace export ---

TEST(TraceJson, ContainsEventsAndTracks) {
  phi::Trace trace;
  trace.add({"kernel-a", phi::TraceEvent::Resource::kCompute, 0.0, 0.5});
  trace.add({"dma-b", phi::TraceEvent::Resource::kDma, 0.1, 0.3});
  const std::string json = trace.to_chrome_json();
  EXPECT_NE(json.find("\"kernel-a\""), std::string::npos);
  EXPECT_NE(json.find("\"dma-b\""), std::string::npos);
  EXPECT_NE(json.find("\"compute\""), std::string::npos);
  EXPECT_NE(json.find("\"dma\""), std::string::npos);
  EXPECT_EQ(json.front(), '[');
  EXPECT_EQ(json.back(), ']');
}

TEST(TraceJson, EmptyTraceIsValid) {
  phi::Trace trace;
  EXPECT_EQ(trace.to_chrome_json(), "[]");
}

TEST(TraceJson, WritesFile) {
  phi::Trace trace;
  trace.add({"x", phi::TraceEvent::Resource::kCompute, 0.0, 1.0});
  const std::string path = tmp_path("trace.json");
  trace.write_chrome_json(path);
  std::ifstream in(path);
  std::string contents((std::istreambuf_iterator<char>(in)),
                       std::istreambuf_iterator<char>());
  EXPECT_NE(contents.find("\"x\""), std::string::npos);
  std::remove(path.c_str());
}

}  // namespace
}  // namespace deepphi::core

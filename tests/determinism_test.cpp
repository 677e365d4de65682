// Determinism guarantees: the library promises bit-identical results across
// thread counts (GEMM slices rows; sampling uses per-row streams), across
// execution policies (foreground vs background loading), and across repeated
// runs at equal seeds. These properties are what make the Table I ladder a
// performance comparison rather than four different algorithms.
#include <gtest/gtest.h>

#ifdef _OPENMP
#include <omp.h>
#endif

#include <algorithm>
#include <array>

#include "core/rbm.hpp"
#include "core/trainer.hpp"
#include "data/patches.hpp"
#include "la/blas1.hpp"
#include "la/elementwise.hpp"
#include "la/gemm.hpp"
#include "la/reduce.hpp"
#include "util/rng.hpp"

namespace deepphi {
namespace {

la::Matrix random_matrix(la::Index rows, la::Index cols, std::uint64_t seed) {
  util::Rng rng(seed);
  la::Matrix m = la::Matrix::uninitialized(rows, cols);
  for (la::Index i = 0; i < m.size(); ++i)
    m.data()[i] = static_cast<float>(rng.uniform(-1.0, 1.0));
  return m;
}

#ifdef _OPENMP
class OmpThreadGuard {
 public:
  explicit OmpThreadGuard(int threads) : prev_(omp_get_max_threads()) {
    omp_set_num_threads(threads);
  }
  ~OmpThreadGuard() { omp_set_num_threads(prev_); }

 private:
  int prev_;
};

TEST(Determinism, GemmBitIdenticalAcrossThreadCounts) {
  la::Matrix a = random_matrix(130, 90, 1);
  la::Matrix b = random_matrix(90, 70, 2);
  la::Matrix c1(130, 70), c4(130, 70), c7(130, 70);
  {
    OmpThreadGuard guard(1);
    la::gemm_nn(1.0f, a, b, 0.0f, c1);
  }
  {
    OmpThreadGuard guard(4);
    la::gemm_nn(1.0f, a, b, 0.0f, c4);
  }
  {
    OmpThreadGuard guard(7);
    la::gemm_nn(1.0f, a, b, 0.0f, c7);
  }
  EXPECT_TRUE(c1.approx_equal(c4, 0.0f, 0.0f));
  EXPECT_TRUE(c1.approx_equal(c7, 0.0f, 0.0f));
}

TEST(Determinism, SamplingBitIdenticalAcrossThreadCounts) {
  la::Matrix mean = random_matrix(64, 48, 3);
  for (la::Index i = 0; i < mean.size(); ++i)
    mean.data()[i] = 0.5f + 0.4f * mean.data()[i];
  la::Matrix s1(64, 48), s4(64, 48);
  {
    OmpThreadGuard guard(1);
    la::sample_bernoulli(mean, s1, util::Rng(9));
  }
  {
    OmpThreadGuard guard(4);
    la::sample_bernoulli(mean, s4, util::Rng(9));
  }
  EXPECT_TRUE(s1.approx_equal(s4, 0.0f, 0.0f));
}

TEST(Determinism, RbmGradientAcrossThreadCounts) {
  core::RbmConfig cfg;
  cfg.visible = 24;
  cfg.hidden = 16;
  core::Rbm model(cfg, 4);
  la::Matrix v1 = random_matrix(32, 24, 5);
  for (la::Index i = 0; i < v1.size(); ++i)
    v1.data()[i] = 0.5f + 0.4f * v1.data()[i];
  core::Rbm::Workspace ws1, ws4;
  core::RbmGradients g1, g4;
  {
    OmpThreadGuard guard(1);
    model.gradient(v1, ws1, g1, util::Rng(6), true);
  }
  {
    OmpThreadGuard guard(4);
    model.gradient(v1, ws4, g4, util::Rng(6), true);
  }
  EXPECT_TRUE(g1.g_w.approx_equal(g4.g_w, 0.0f, 0.0f));
  EXPECT_TRUE(g1.g_b.approx_equal(g4.g_b, 0.0f, 0.0f));
}

TEST(Determinism, ReductionsBitIdenticalAcrossThreadCounts) {
  // A 1000×576 batch (Fig. 7's first network) spans many reduction chunks.
  const la::Matrix a = random_matrix(1000, 576, 10);
  const la::Matrix b = random_matrix(1000, 576, 11);
  la::Vector v = la::Vector::uninitialized(a.size());
  std::copy(a.data(), a.data() + a.size(), v.data());
  auto reduce = [&](int threads) {
    OmpThreadGuard guard(threads);
    return std::array<double, 3>{la::sum(a), la::sum_sq_diff(a, b),
                                 la::asum(v)};
  };
  EXPECT_EQ(reduce(1), reduce(4));
}

TEST(Determinism, ChunkMeanCostsBitIdenticalAcrossThreadCounts) {
  // Batches of 1024 × 64 = 65536 elements: each cost reduction spans chunks.
  const data::Dataset patches = data::make_digit_patch_dataset(4096, 8, 12);
  auto costs = [&patches](int threads) {
    OmpThreadGuard guard(threads);
    core::SparseAutoencoder model(core::SaeConfig{patches.dim(), 32}, 13);
    core::TrainerConfig tcfg;
    tcfg.batch_size = 1024;
    tcfg.chunk_examples = 2048;
    tcfg.policy = core::ExecPolicy::kHost;
    return core::Trainer(tcfg).train(model, patches).chunk_mean_costs;
  };
  EXPECT_EQ(costs(1), costs(4));
}
#endif  // _OPENMP

TEST(Determinism, TrainerRunsAreReproducible) {
  data::Dataset patches = data::make_digit_patch_dataset(300, 4, 7);
  auto run = [&patches] {
    core::SaeConfig mcfg;
    mcfg.visible = 16;
    mcfg.hidden = 8;
    core::SparseAutoencoder model(mcfg, 11);
    core::TrainerConfig tcfg;
    tcfg.batch_size = 32;
    tcfg.chunk_examples = 100;
    tcfg.epochs = 2;
    tcfg.policy = core::ExecPolicy::kPhiOffload;  // background loading thread
    core::Trainer(tcfg).train(model, patches);
    return model.w1();
  };
  const la::Matrix first = run();
  const la::Matrix second = run();
  EXPECT_TRUE(first.approx_equal(second, 0.0f, 0.0f));
}

TEST(Determinism, RbmTrainerReproducibleWithSampling) {
  data::Dataset patches = data::make_digit_patch_dataset(300, 4, 8);
  auto run = [&patches] {
    core::RbmConfig mcfg;
    mcfg.visible = 16;
    mcfg.hidden = 8;
    core::Rbm model(mcfg, 13);
    core::TrainerConfig tcfg;
    tcfg.batch_size = 32;
    tcfg.chunk_examples = 100;
    tcfg.epochs = 2;
    tcfg.seed = 99;  // drives the Gibbs noise
    core::Trainer(tcfg).train(model, patches);
    return model.w();
  };
  EXPECT_TRUE(run().approx_equal(run(), 0.0f, 0.0f));
}

TEST(Determinism, StatsIdenticalAcrossPolicies) {
  // The recorded work must not depend on whether loading is backgrounded.
  data::Dataset patches = data::make_digit_patch_dataset(256, 4, 9);
  auto run = [&patches](core::ExecPolicy policy) {
    core::SaeConfig mcfg;
    mcfg.visible = 16;
    mcfg.hidden = 8;
    core::SparseAutoencoder model(mcfg, 15);
    core::TrainerConfig tcfg;
    tcfg.batch_size = 32;
    tcfg.chunk_examples = 64;
    tcfg.policy = policy;
    return core::Trainer(tcfg).train(model, patches).stats;
  };
  const phi::KernelStats host = run(core::ExecPolicy::kHost);
  const phi::KernelStats offload = run(core::ExecPolicy::kPhiOffload);
  EXPECT_TRUE(host.approx_equal(offload, 1e-9));
}

}  // namespace
}  // namespace deepphi

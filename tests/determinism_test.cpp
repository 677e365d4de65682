// Determinism guarantees: the library promises bit-identical results across
// thread counts (GEMM slices rows; sampling uses per-row streams), across
// execution policies (foreground vs background loading), and across repeated
// runs at equal seeds. These properties are what make the Table I ladder a
// performance comparison rather than four different algorithms.
#include <gtest/gtest.h>

#include <algorithm>
#include <array>
#include <cstdint>
#include <cstring>
#include <filesystem>
#include <memory>
#include <string>
#include <utility>
#include <vector>

#include "core/layer_stack.hpp"
#include "core/packed_encoder.hpp"
#include "core/rbm.hpp"
#include "core/sparse_autoencoder.hpp"
#include "core/trainer.hpp"
#include "data/dataset.hpp"
#include "data/patches.hpp"
#include "data/sharded_dataset.hpp"
#include "la/blas1.hpp"
#include "la/elementwise.hpp"
#include "la/gemm.hpp"
#include "la/reduce.hpp"
#include "la/simd/dispatch.hpp"
#include "pinned_hash.hpp"
#include "scratch_dir.hpp"
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
using test::OmpThreadGuard;

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
  // Batches of 1024 × 64 = 65536 elements: each cost reduction spans chunks,
  // on the loop-form OpenMP rung as on the matrix-form one.
  const data::Dataset patches = data::make_digit_patch_dataset(4096, 8, 12);
  auto costs = [&patches](bool rbm, core::OptLevel level, int threads) {
    OmpThreadGuard guard(threads);
    core::TrainerConfig tcfg;
    tcfg.batch_size = 1024;
    tcfg.chunk_examples = 2048;
    tcfg.level = level;
    tcfg.policy = core::ExecPolicy::kHost;
    if (rbm) {
      core::Rbm model(core::RbmConfig{patches.dim(), 32}, 13);
      return core::Trainer(tcfg).train(model, patches).chunk_mean_costs;
    }
    core::SparseAutoencoder model(core::SaeConfig{patches.dim(), 32}, 13);
    return core::Trainer(tcfg).train(model, patches).chunk_mean_costs;
  };
  for (const core::OptLevel level :
       {core::OptLevel::kOpenMp, core::OptLevel::kImproved}) {
    for (const bool rbm : {false, true}) {
      EXPECT_EQ(costs(rbm, level, 1), costs(rbm, level, 4))
          << (rbm ? "RBM" : "SAE") << " at " << core::to_string(level);
    }
  }
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

// --- Results pinned across versions ---
//
// Every other bitwise test here compares tiers or thread counts with each
// other, so a change that moves all of them the same way (a different kc,
// say) would pass. This one pins FNV-1a hashes of actual results: a GEMM
// sweep, and the parameters after short SAE and RBM training runs. The sweep
// and the two improved-level runs were recorded with the 4×16-tile GEMM that
// preceded the per-tier register tiles; the other runs (the other Table I
// levels, the Fig. 6 task graph, momentum and Adagrad) were recorded with
// the trainer that still had a single-team step of its own beside the slot
// loop.
// A register tile, a packing layout, a blocking, a thread split or a
// trainer refactor may change; these hashes may not.

using test::Fnv1a;

la::Vector random_vector(la::Index n, std::uint64_t seed) {
  util::Rng rng(seed);
  la::Vector v = la::Vector::uninitialized(n);
  for (la::Index i = 0; i < n; ++i)
    v[i] = static_cast<float>(rng.uniform(-1.0, 1.0));
  return v;
}

la::Matrix random_matrix(la::Index rows, la::Index cols, std::uint64_t seed,
                         double lo, double hi) {
  util::Rng rng(seed);
  la::Matrix m = la::Matrix::uninitialized(rows, cols);
  for (la::Index i = 0; i < m.size(); ++i)
    m.data()[i] = static_cast<float>(rng.uniform(lo, hi));
  return m;
}

// All 4 transpose cases × 5 epilogues × beta ∈ {0, 0.5}, each at every k
// around the kc = 256 panel edge. The (m, n) pairs straddle every tier's
// register tile (MR 4/6/12, NR 16/32), plus one pair that spans several row
// blocks; they rotate through the cases, so each (m, n) meets every k.
std::string gemm_sweep_hash() {
  const la::Index mn[][2] = {{1, 1},   {3, 15},  {4, 16},  {5, 17},
                             {6, 31},  {7, 32},  {11, 33}, {12, 47},
                             {13, 48}, {25, 65}, {130, 40}};
  constexpr std::size_t kShapes = sizeof(mn) / sizeof(mn[0]);
  const la::Index ks[] = {1, 255, 256, 257, 576};
  const la::Trans trans[] = {la::Trans::kNo, la::Trans::kYes};
  const la::EpilogueOp ops[] = {
      la::EpilogueOp::kNone, la::EpilogueOp::kBiasAdd,
      la::EpilogueOp::kBiasSigmoid, la::EpilogueOp::kDsigmoidMul,
      la::EpilogueOp::kBiasDsigmoidMul};
  Fnv1a hash;
  std::uint64_t seed = 1;
  std::size_t shape = 0;
  for (la::Trans ta : trans) {
    for (la::Trans tb : trans) {
      for (la::EpilogueOp op : ops) {
        for (float beta : {0.0f, 0.5f}) {
          for (la::Index k : ks) {
            const la::Index m = mn[shape % kShapes][0];
            const la::Index n = mn[shape % kShapes][1];
            ++shape;
            const la::Matrix a = ta == la::Trans::kNo
                                     ? random_matrix(m, k, ++seed)
                                     : random_matrix(k, m, ++seed);
            const la::Matrix b = tb == la::Trans::kNo
                                     ? random_matrix(k, n, ++seed)
                                     : random_matrix(n, k, ++seed);
            const la::Vector bias = random_vector(n, ++seed);
            const la::Matrix act = random_matrix(m, n, ++seed, 0.05, 0.95);
            la::Matrix c = random_matrix(m, n, ++seed);
            la::gemm(ta, tb, 0.7f, a, b, beta, c, {op, &bias, &act});
            hash.add(c);
          }
        }
      }
    }
  }
  return hash.hex();
}

data::Dataset pinned_dataset() {
  return data::Dataset(random_matrix(600, 50, 77, 0.0, 1.0));
}

core::TrainerConfig pinned_trainer_config() {
  core::TrainerConfig tcfg;
  tcfg.batch_size = 300;  // k = 300 crosses the kc = 256 panel edge
  tcfg.chunk_examples = 600;
  tcfg.epochs = 2;
  tcfg.policy = core::ExecPolicy::kHost;
  tcfg.seed = 99;
  return tcfg;
}

void add_params(Fnv1a& hash, const core::SparseAutoencoder& model) {
  hash.add(model.w1());
  hash.add(model.b1());
  hash.add(model.w2());
  hash.add(model.b2());
}

void add_params(Fnv1a& hash, const core::Rbm& model) {
  hash.add(model.w());
  hash.add(model.b());
  hash.add(model.c());
}

template <typename Model>
std::string params_hash(const Model& model) {
  Fnv1a hash;
  add_params(hash, model);
  return hash.hex();
}

std::string sae_params_hash(
    const core::TrainerConfig& tcfg = pinned_trainer_config()) {
  core::SaeConfig mcfg;
  mcfg.visible = 50;
  mcfg.hidden = 40;
  core::SparseAutoencoder model(mcfg, 11);
  core::Trainer(tcfg).train(model, pinned_dataset());
  return params_hash(model);
}

std::string rbm_params_hash(
    const core::TrainerConfig& tcfg = pinned_trainer_config()) {
  core::RbmConfig mcfg;
  mcfg.visible = 50;
  mcfg.hidden = 40;
  mcfg.cd_k = 1;
  mcfg.sample_visible = true;
  core::Rbm model(mcfg, 13);
  core::Trainer(tcfg).train(model, pinned_dataset());
  return params_hash(model);
}

// One pinned training run beyond the two improved-level ones.
struct TrainPin {
  std::string what;
  bool rbm = false;
  core::TrainerConfig config;
  std::string hash;
};

std::vector<TrainPin> train_pins() {
  const std::pair<core::OptLevel, std::array<const char*, 2>> levels[] = {
      {core::OptLevel::kBaseline,
       {"0x2930d3fa1a1ee8ad", "0xd42cf55214017808"}},
      {core::OptLevel::kOpenMp, {"0x2930d3fa1a1ee8ad", "0xd42cf55214017808"}},
      {core::OptLevel::kOpenMpMkl,
       {"0x0d8b7728ad22fcb9", "0x8bd8d0b7f2806c44"}}};
  std::vector<TrainPin> pins;
  for (const auto& [level, hashes] : levels) {
    core::TrainerConfig tcfg = pinned_trainer_config();
    tcfg.level = level;
    pins.push_back({std::string("SAE at ") + core::to_string(level), false,
                    tcfg, hashes[0]});
    pins.push_back({std::string("RBM at ") + core::to_string(level), true,
                    tcfg, hashes[1]});
  }
  core::TrainerConfig graph = pinned_trainer_config();
  graph.use_taskgraph = true;
  pins.push_back({"RBM on the Fig. 6 task graph", true, graph,
                  "0x07f3c70fa76c9ddd"});
  core::TrainerConfig momentum = pinned_trainer_config();
  momentum.optimizer.kind = core::OptimizerKind::kMomentum;
  momentum.optimizer.lr_decay = 0.01f;
  pins.push_back({"SAE with momentum", false, momentum, "0x3e36985b48ec2013"});
  core::TrainerConfig adagrad = pinned_trainer_config();
  adagrad.optimizer.kind = core::OptimizerKind::kAdagrad;
  pins.push_back({"RBM with Adagrad", true, adagrad, "0xa23f91eeb2d020bb"});
  return pins;
}

// Pinned runs fed the way rbm_stream is fed: u8 shards (97-row shard files,
// so shard edges fall inside chunks) through the Fig. 5 loading thread and
// the windowed shuffle, for 3 epochs of 3 chunks whose last one is ragged.
// The first two keep the in-memory pins' model shapes; the third is
// rbm_stream's RBM (576×64 at batch 200), whose nt GEMMs pack full 16-row
// blocks along k.
struct ShardPin {
  std::string what;
  bool rbm = false;
  la::Index visible = 0, hidden = 0;
  la::Index batch = 0, chunk = 0, window = 0;
  std::string hash;
};

data::ShardedDataset u8_shards(la::Index rows, la::Index dim,
                               std::uint64_t seed, const std::string& dir) {
  data::ShardWriteOptions wo;
  wo.dtype = data::ShardDtype::kU8;
  wo.rows_per_shard = 97;
  const data::Dataset rows_u01(random_matrix(rows, dim, seed, 0.0, 1.0));
  return data::ShardedDataset::open(data::write_sharded(rows_u01, dir, wo));
}

std::string shard_params_hash(const ShardPin& pin,
                              const data::StreamingSource& source) {
  core::TrainerConfig tcfg;
  tcfg.batch_size = pin.batch;
  tcfg.chunk_examples = pin.chunk;
  tcfg.epochs = 3;
  tcfg.policy = core::ExecPolicy::kPhiOffload;
  tcfg.shuffle_window = pin.window;
  tcfg.seed = 101;
  if (pin.rbm) {
    core::RbmConfig mcfg;
    mcfg.visible = pin.visible;
    mcfg.hidden = pin.hidden;
    mcfg.sample_visible = pin.visible < 100;  // the small run samples v too
    core::Rbm model(mcfg, 17);
    core::Trainer(tcfg).train(model, source);
    return params_hash(model);
  }
  core::SparseAutoencoder model(core::SaeConfig{pin.visible, pin.hidden}, 19);
  core::Trainer(tcfg).train(model, source);
  return params_hash(model);
}

// Greedy stacks over the small u8 shard set, pre-trained 2 epochs per layer:
// layer 0 trains from `source`, layer 1 from layer 0's in-memory codes.
template <typename Stack>
std::string stack_params_hash(Stack stack,
                              const data::StreamingSource& source) {
  core::TrainerConfig tcfg;
  tcfg.batch_size = 64;
  tcfg.chunk_examples = 128;
  tcfg.epochs = 2;
  tcfg.policy = core::ExecPolicy::kPhiOffload;
  tcfg.shuffle_window = 160;
  tcfg.seed = 101;
  stack.pretrain(source, tcfg);
  Fnv1a hash;
  for (std::size_t k = 0; k < stack.layers(); ++k)
    add_params(hash, stack.layer(k));
  return hash.hex();
}

TEST(Determinism, ResultsMatchPinnedParentHashes) {
  const std::string kGemmSweep = "0x5a074befeff16295";
  const std::string kSaeParams = "0x43998573c6e5ec1e";
  const std::string kRbmParams = "0x8bd8d0b7f2806c44";
  // 347 rows in chunks of 128: 128 + 128 + 91 per epoch; 1143 rows in
  // chunks of 400: 400 + 400 + 343.
  const test::ScratchDir scratch;
  const data::ShardedDataset small =
      u8_shards(347, 50, 81, scratch.file("small"));
  const data::ShardedDataset stream =
      u8_shards(1143, 576, 82, scratch.file("rbm_stream"));
  const ShardPin shard_pins[] = {
      {"RBM from u8 shards", true, 50, 40, 64, 128, 160, "0x01fe20462310336b"},
      {"SAE from u8 shards", false, 50, 40, 64, 128, 160,
       "0xe1bf7db429334108"},
      {"RBM 576x64 from u8 shards", true, 576, 64, 200, 400, 500,
       "0x4b9573b3f5150325"}};
  // The stacks' pins were recorded at the parent from these decoded rows as
  // an in-memory Dataset; shards == memory makes the shards match them too.
  data::Dataset small_rows(small.rows(), small.dim());
  small.copy_rows(0, small.rows(), small_rows.matrix());
  const std::pair<const data::StreamingSource*, const char*> stack_sources[] =
      {{&small, "u8 shards"}, {&small_rows, "memory"}};
  core::SaeConfig tied;
  tied.tied_weights = true;
  const core::StackedAutoencoder sae_stack({50, 40, 20}, tied, 23);
  core::RbmConfig gaussian;
  gaussian.visible_type = core::VisibleType::kGaussian;
  gaussian.sample_visible = true;
  const core::Dbn dbn({50, 40, 20}, gaussian, 29);
  test::for_each_tier_and_thread_count([&](const std::string& where) {
    EXPECT_EQ(gemm_sweep_hash(), kGemmSweep) << "GEMM sweep, " << where;
    EXPECT_EQ(sae_params_hash(), kSaeParams) << "SAE parameters, " << where;
    EXPECT_EQ(rbm_params_hash(), kRbmParams) << "RBM parameters, " << where;
    for (const TrainPin& pin : train_pins()) {
      const std::string got = pin.rbm ? rbm_params_hash(pin.config)
                                      : sae_params_hash(pin.config);
      EXPECT_EQ(got, pin.hash) << pin.what << " parameters, " << where;
    }
    for (const ShardPin& pin : shard_pins) {
      EXPECT_EQ(shard_params_hash(pin, pin.visible == 576 ? stream : small),
                pin.hash)
          << pin.what << " parameters, " << where;
    }
    for (const auto& [source, from] : stack_sources) {
      EXPECT_EQ(stack_params_hash(sae_stack, *source), "0x771fb4c61884baf4")
          << "tied stacked autoencoder from " << from << ", " << where;
      EXPECT_EQ(stack_params_hash(dbn, *source), "0xf1108dd1e54563ad")
          << "Gaussian DBN from " << from << ", " << where;
    }
  });
}

// The packed twin the registry serves sigmoid-chain fp32 models through
// (core::PackedEncoder). These hashes pin the twin's outputs to what the
// models' own encode() returned before the twin existed, over the shapes of
// Quant.EncodeMatchesPinnedParentHashes: units 1000 and 37 are ragged
// against every tier's NR and the row counts straddle every MR. It lives
// here rather than in serve_test, whose TSan leg runs one OpenMP thread.

/// `rows` x `dim` uniform [0, 1) requests, drawn as serve_test draws them.
la::Matrix request_rows(la::Index rows, la::Index dim, std::uint64_t seed) {
  util::Rng rng(seed, /*stream=*/0x5E17);
  la::Matrix m(rows, dim);
  for (la::Index i = 0; i < m.size(); ++i) m.data()[i] = rng.uniform_float();
  return m;
}

std::string packed_encode_hash() {
  Fnv1a hash;
  std::uint64_t seed = 1;
  auto encode_rows = [&](std::shared_ptr<const core::Encoder> model,
                         std::initializer_list<la::Index> row_counts) {
    const core::PackedEncoder twin(model);
    for (const la::Index rows : row_counts) {
      const la::Matrix x = request_rows(rows, model->input_dim(), ++seed);
      la::Matrix out, direct;
      twin.encode(x, out);
      model->encode(x, direct);
      EXPECT_TRUE(out.rows() == direct.rows() && out.cols() == direct.cols() &&
                  std::memcmp(out.data(), direct.data(),
                              sizeof(float) *
                                  static_cast<std::size_t>(out.size())) == 0)
          << model->describe() << ", " << rows << " rows";
      hash.add(out);
    }
  };
  for (const la::Index inputs : {576, 100}) {
    for (const la::Index units : {1024, 1000, 37}) {
      auto sae = std::make_shared<core::SparseAutoencoder>(
          core::SaeConfig{inputs, units}, ++seed);
      sae->b1() = random_vector(units, ++seed);
      encode_rows(sae, {1, 5, 12, 13, 64, 65, 200});
    }
  }
  auto stack = std::make_shared<core::StackedAutoencoder>(
      std::vector<la::Index>{100, 64, 37}, core::SaeConfig{}, ++seed);
  auto dbn = std::make_shared<core::Dbn>(std::vector<la::Index>{576, 100, 37},
                                         core::RbmConfig{}, ++seed);
  for (std::size_t k = 0; k < 2; ++k) {
    stack->layer(k).b1() = random_vector(stack->layer(k).b1().size(), ++seed);
    dbn->layer(k).c() = random_vector(dbn->layer(k).c().size(), ++seed);
  }
  encode_rows(stack, {1, 13, 65});
  encode_rows(dbn, {1, 13, 65});
  return hash.hex();
}

TEST(Serve, PackedEncoderMatchesPinnedParentHashes) {
  const std::string kPackedEncode = "0xf986ea4182c49dd3";
  test::for_each_tier_and_thread_count([&](const std::string& where) {
    EXPECT_EQ(packed_encode_hash(), kPackedEncode) << "fp32 encode, " << where;
  });
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

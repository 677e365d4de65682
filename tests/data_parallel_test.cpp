// Data-parallel training tests (docs/data_parallel.md): shard coverage and
// determinism of data::shard_rows, the slot loop's determinism contract —
// any (replicas, accumulation_steps) factorization of the same slot count S
// trains bit-identical parameters regardless of replica thread budgets —
// plus dry == wet: model mode (core::dry_train) counts exactly the work a
// real data-parallel run records. The S == 1 parameters of every Table I
// level are pinned by Determinism.ResultsMatchPinnedParentHashes.
#include <gtest/gtest.h>

#include <memory>
#include <type_traits>
#include <vector>

#include "core/trainer.hpp"
#include "data/chunk_stream.hpp"
#include "data/patches.hpp"
#include "phi/cluster.hpp"
#include "phi/machine_spec.hpp"

namespace deepphi::core {
namespace {

// --- data::shard_rows ---

TEST(ShardRows, CoversDisjointContiguous) {
  for (la::Index rows : {0, 1, 5, 63, 64, 65, 1000}) {
    for (int shards : {1, 2, 3, 4, 7, 16}) {
      const std::vector<data::RowShard> out = data::shard_rows(rows, shards);
      ASSERT_EQ(out.size(), static_cast<std::size_t>(shards));
      la::Index cursor = 0;
      for (const data::RowShard& s : out) {
        EXPECT_EQ(s.begin, cursor);
        EXPECT_GE(s.rows, 0);
        cursor = s.end();
      }
      EXPECT_EQ(cursor, rows) << rows << " rows over " << shards;
    }
  }
}

TEST(ShardRows, BalancedWithinOneRow) {
  for (la::Index rows : {11, 64, 129, 1000}) {
    for (int shards : {2, 3, 4, 7}) {
      la::Index lo = rows, hi = 0;
      for (const data::RowShard& s : data::shard_rows(rows, shards)) {
        lo = std::min(lo, s.rows);
        hi = std::max(hi, s.rows);
      }
      EXPECT_LE(hi - lo, 1);
    }
  }
}

TEST(ShardRows, RaggedTailLeavesTrailingShardsEmpty) {
  const std::vector<data::RowShard> out = data::shard_rows(3, 5);
  EXPECT_EQ(out[0].rows, 1);
  EXPECT_EQ(out[1].rows, 1);
  EXPECT_EQ(out[2].rows, 1);
  EXPECT_EQ(out[3].rows, 0);
  EXPECT_EQ(out[4].rows, 0);
  // Shard 0 is never empty while any rows exist — the combine relies on it.
  EXPECT_GT(data::shard_rows(1, 16)[0].rows, 0);
}

TEST(ShardRows, SingleShardIsWholeRange) {
  const std::vector<data::RowShard> out = data::shard_rows(77, 1);
  ASSERT_EQ(out.size(), 1u);
  EXPECT_EQ(out[0].begin, 0);
  EXPECT_EQ(out[0].rows, 77);
}

// --- trainer parity helpers ---

std::vector<float> sae_params(const SparseAutoencoder& m) {
  std::vector<float> p(static_cast<std::size_t>(m.param_count()));
  m.get_params(p.data());
  return p;
}

std::vector<float> rbm_params(const Rbm& m) {
  std::vector<float> out;
  auto push = [&](const float* p, la::Index n) {
    out.insert(out.end(), p, p + n);
  };
  push(m.w().data(), m.w().size());
  push(m.b().data(), m.b().size());
  push(m.c().data(), m.c().size());
  return out;
}

// 330 examples / chunk 128 / batch 24 exercises ragged chunk tails AND
// ragged gradient groups (the last group of each chunk is short).
TrainerConfig dp_config(int replicas, int accum, int replica_threads = 0) {
  TrainerConfig cfg;
  cfg.batch_size = 24;
  cfg.chunk_examples = 128;
  cfg.epochs = 2;
  cfg.level = OptLevel::kImproved;
  cfg.optimizer.lr = 0.1f;
  cfg.seed = 42;
  cfg.replicas = replicas;
  cfg.accumulation_steps = accum;
  cfg.replica_threads = replica_threads;
  return cfg;
}

data::Dataset ragged_patches() {
  return data::make_digit_patch_dataset(330, 4, 5);  // dim 16
}

std::vector<float> train_sae_dp(const TrainerConfig& cfg,
                                const data::Dataset& data,
                                TrainReport* report_out = nullptr) {
  SaeConfig mcfg;
  mcfg.visible = data.dim();
  mcfg.hidden = 8;
  SparseAutoencoder model(mcfg, 7);
  TrainReport report = Trainer(cfg).train(model, data);
  if (report_out) *report_out = report;
  return sae_params(model);
}

std::vector<float> train_rbm_dp(const TrainerConfig& cfg,
                                const data::Dataset& data,
                                TrainReport* report_out = nullptr) {
  RbmConfig mcfg;
  mcfg.visible = data.dim();
  mcfg.hidden = 8;
  Rbm model(mcfg, 7);
  TrainReport report = Trainer(cfg).train(model, data);
  if (report_out) *report_out = report;
  return rbm_params(model);
}

// --- factorization parity: fixed S, any (R, A), any thread budget ---

TEST(DataParallel, FactorizationsOfSameSlotCountBitIdenticalSae) {
  const data::Dataset data = ragged_patches();
  TrainReport r41, r14, r22;
  const std::vector<float> p41 = train_sae_dp(dp_config(4, 1), data, &r41);
  const std::vector<float> p14 = train_sae_dp(dp_config(1, 4), data, &r14);
  const std::vector<float> p22 = train_sae_dp(dp_config(2, 2), data, &r22);
  EXPECT_EQ(p41, p14);
  EXPECT_EQ(p41, p22);
  EXPECT_EQ(r41.updates, r14.updates);
  EXPECT_EQ(r41.batches, r14.batches);
  EXPECT_EQ(r41.chunk_mean_costs, r22.chunk_mean_costs);
}

TEST(DataParallel, FactorizationsOfSameSlotCountBitIdenticalRbm) {
  const data::Dataset data = ragged_patches();
  const std::vector<float> p41 = train_rbm_dp(dp_config(4, 1), data);
  const std::vector<float> p14 = train_rbm_dp(dp_config(1, 4), data);
  const std::vector<float> p22 = train_rbm_dp(dp_config(2, 2), data);
  EXPECT_EQ(p41, p14);
  EXPECT_EQ(p41, p22);
}

TEST(DataParallel, ReplicaThreadBudgetDoesNotChangeParameters) {
  const data::Dataset data = ragged_patches();
  const std::vector<float> one = train_sae_dp(dp_config(2, 2, 1), data);
  const std::vector<float> two = train_sae_dp(dp_config(2, 2, 2), data);
  const std::vector<float> four = train_sae_dp(dp_config(4, 1, 3), data);
  EXPECT_EQ(one, two);
  EXPECT_EQ(one, four);
}

// --- accumulation semantics ---

TEST(DataParallel, UpdateCountMatchesAccounting) {
  const data::Dataset data = ragged_patches();
  TrainReport report;
  train_sae_dp(dp_config(2, 2), data, &report);
  // S = 4 slots of 24 rows: chunks of 128, 128, 74 rows take 2, 2 and 1
  // groups, every group fills all four slots; two epochs.
  EXPECT_EQ(report.updates, 10);
  EXPECT_EQ(report.batches, 40);
  const TrainReport dry =
      dry_train(SaeConfig{data.dim(), 8}, dp_config(2, 2), data.rows());
  EXPECT_EQ(dry.updates, report.updates);
  EXPECT_EQ(dry.batches, report.batches);
}

TEST(DataParallel, LearnsOnPatches) {
  const data::Dataset data = data::make_digit_patch_dataset(512, 4, 5);
  TrainerConfig cfg = dp_config(4, 1);
  cfg.epochs = 6;
  TrainReport report;
  train_sae_dp(cfg, data, &report);
  ASSERT_GE(report.chunk_mean_costs.size(), 2u);
  EXPECT_LT(report.chunk_mean_costs.back(), report.chunk_mean_costs.front());
}

// --- dry == wet for data-parallel runs ---

void expect_dry_equals_wet(const TrainReport& dry, const TrainReport& wet) {
  EXPECT_TRUE(dry.stats == wet.stats) << "dry: " << dry.stats.to_string()
                                      << "\nwet: " << wet.stats.to_string();
  EXPECT_EQ(dry.chunks, wet.chunks);
  EXPECT_EQ(dry.batches, wet.batches);
  EXPECT_EQ(dry.updates, wet.updates);
}

// Replicas × accum × cards splits of S up to 6 slots, ragged chunk and group
// tails included, in both execution policies.
template <typename ModelConfig>
void expect_dry_equals_wet_for_every_split(const ModelConfig& model) {
  const data::Dataset data = ragged_patches();
  const int splits[][3] = {{1, 1, 1}, {2, 2, 1}, {4, 1, 1}, {1, 3, 1},
                           {3, 2, 1}, {2, 1, 2}, {1, 2, 3}, {1, 1, 5}};
  for (const auto& [replicas, accum, cards] : splits) {
    for (const ExecPolicy policy :
         {ExecPolicy::kHost, ExecPolicy::kPhiOffload}) {
      SCOPED_TRACE(testing::Message() << replicas << "x" << accum << "x"
                                      << cards);
      TrainerConfig cfg = dp_config(replicas, accum);
      cfg.policy = policy;
      std::unique_ptr<phi::Cluster> cluster;
      if (cards > 1) {
        phi::ClusterConfig ccfg;
        ccfg.cards = cards;
        cluster = std::make_unique<phi::Cluster>(phi::xeon_phi_5110p(), ccfg);
        cfg.cluster = cluster.get();
      }
      TrainReport wet;
      if constexpr (std::is_same_v<ModelConfig, SaeConfig>)
        train_sae_dp(cfg, data, &wet);
      else
        train_rbm_dp(cfg, data, &wet);
      expect_dry_equals_wet(dry_train(model, cfg, data.rows()), wet);
    }
  }
}

TEST(DataParallel, ModelEqualsMeasureSae) {
  expect_dry_equals_wet_for_every_split(SaeConfig{16, 8});
}

TEST(DataParallel, ModelEqualsMeasureRbm) {
  expect_dry_equals_wet_for_every_split(RbmConfig{16, 8});
}

TEST(DataParallel, CombineStatsZeroForSingleLiveSlot) {
  phi::DryRun dry;
  SparseAutoencoder model(SaeConfig{16, 8}, 7);
  const phi::KernelStats none = card_combine_stats(model, 1, 1, false, {});
  EXPECT_EQ(none.loop_flops, 0.0);
  EXPECT_EQ(none.kernel_launches, 0);
  const phi::KernelStats some = card_combine_stats(model, 4, 4, false, {});
  EXPECT_GT(some.loop_flops, 0.0);
  // 3 tree edges per buffer; the root adds the mean scal and the update.
  EXPECT_EQ(some.kernel_launches, 3 * 4);
  EXPECT_EQ(card_combine_stats(model, 4, 4, true, {}).kernel_launches,
            (3 + 1 + 1) * 4);
}

// --- configuration validation ---

TEST(DataParallel, RejectsLoopFormLevels) {
  TrainerConfig cfg = dp_config(2, 1);
  cfg.level = OptLevel::kOpenMp;
  EXPECT_THROW(Trainer{cfg}, util::Error);
}

TEST(DataParallel, RejectsTaskGraphCombination) {
  TrainerConfig cfg = dp_config(2, 1);
  cfg.use_taskgraph = true;
  EXPECT_THROW(Trainer{cfg}, util::Error);
}

TEST(DataParallel, RejectsNonPositiveGeometry) {
  TrainerConfig bad_replicas = dp_config(0, 1);
  EXPECT_THROW(Trainer{bad_replicas}, util::Error);
  TrainerConfig bad_accum = dp_config(1, 0);
  EXPECT_THROW(Trainer{bad_accum}, util::Error);
}

}  // namespace
}  // namespace deepphi::core

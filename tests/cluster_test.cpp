// Multi-card cluster tests (docs/cluster.md): collective schedules and their
// functional counterparts, the interconnect model, phi::Cluster's timeline,
// and the cluster trainer's determinism contract — bitwise parity across
// (replicas, accumulation_steps, cards) factorizations of the same global
// slot count, a one-card cluster reproducing a plain run, and dry == wet:
// model mode (core::dry_train) drives the cluster exactly as a real run.
#include <gtest/gtest.h>

#include <cstdlib>
#include <memory>
#include <vector>

#include "core/trainer.hpp"
#include "data/patches.hpp"
#include "parallel/collectives.hpp"
#include "phi/cluster.hpp"
#include "phi/interconnect.hpp"
#include "phi/machine_spec.hpp"
#include "util/error.hpp"

namespace deepphi::core {
namespace {

using par::Collective;
using par::CollectiveSchedule;

// --- interconnect model ---

TEST(Interconnect, ParsesBothPathsAndAliases) {
  EXPECT_EQ(phi::parse_interconnect("pcie").name, "pcie-p2p");
  EXPECT_EQ(phi::parse_interconnect("p2p").name, "pcie-p2p");
  EXPECT_EQ(phi::parse_interconnect("PCIe-P2P").name, "pcie-p2p");
  EXPECT_EQ(phi::parse_interconnect("host").name, "host-staged");
  EXPECT_EQ(phi::parse_interconnect("host-staged").name, "host-staged");
  EXPECT_THROW(phi::parse_interconnect("infiniband"), util::Error);
}

TEST(Interconnect, MessageTimeChargesLatencyAndBandwidthPerHop) {
  phi::InterconnectSpec link;
  link.link_gb_s = 2.0;
  link.link_latency_us = 10.0;
  link.hops = 2;
  const double bytes = 2e9;  // 1 s on the wire per hop
  EXPECT_DOUBLE_EQ(link.message_time_s(bytes), 2.0 * (10e-6 + 1.0));
}

TEST(Interconnect, HostStagedIsSharedTwoHops) {
  const phi::InterconnectSpec host = phi::host_staged_interconnect();
  EXPECT_EQ(host.hops, 2);
  EXPECT_TRUE(host.shared_medium);
  const phi::InterconnectSpec p2p = phi::pcie_p2p_interconnect();
  EXPECT_EQ(p2p.hops, 1);
  EXPECT_FALSE(p2p.shared_medium);
}

// --- collective schedules ---

TEST(Collectives, NameParseRoundTrip) {
  for (Collective c : {Collective::kAuto, Collective::kTree,
                       Collective::kRecursiveDoubling, Collective::kRing})
    EXPECT_EQ(par::parse_collective(par::collective_name(c)), c);
  EXPECT_EQ(par::parse_collective("recursive-doubling"),
            Collective::kRecursiveDoubling);
  EXPECT_THROW(par::parse_collective("butterfly"), util::Error);
}

TEST(Collectives, SingleCardScheduleIsEmpty) {
  for (Collective c :
       {Collective::kTree, Collective::kRecursiveDoubling, Collective::kRing}) {
    const CollectiveSchedule s = par::all_reduce_schedule(c, 1e6, 1);
    EXPECT_EQ(s.rounds, 0);
    EXPECT_EQ(s.wire_bytes, 0.0);
    EXPECT_EQ(s.time_s(phi::pcie_p2p_interconnect()), 0.0);
  }
}

TEST(Collectives, ScheduleFormulas) {
  const double b = 1e6;
  // Tree over 4: 2 reduce + 2 broadcast rounds, 2(N−1) full messages.
  CollectiveSchedule tree = par::all_reduce_schedule(Collective::kTree, b, 4);
  EXPECT_EQ(tree.rounds, 4);
  EXPECT_DOUBLE_EQ(tree.round_bytes, b);
  EXPECT_DOUBLE_EQ(tree.wire_bytes, 6.0 * b);
  // Recursive doubling over 4: log2(4) pairwise exchange rounds.
  CollectiveSchedule rd =
      par::all_reduce_schedule(Collective::kRecursiveDoubling, b, 4);
  EXPECT_EQ(rd.rounds, 2);
  EXPECT_DOUBLE_EQ(rd.round_bytes, b);
  EXPECT_DOUBLE_EQ(rd.wire_bytes, 8.0 * b);
  // Non-power-of-two adds the fold-in/copy-out round pair.
  CollectiveSchedule rd6 =
      par::all_reduce_schedule(Collective::kRecursiveDoubling, b, 6);
  EXPECT_EQ(rd6.rounds, 4);
  EXPECT_DOUBLE_EQ(rd6.wire_bytes, (4.0 * 2.0 + 2.0 * 2.0) * b);
  // Ring over 4: 2(N−1) rounds of B/N.
  CollectiveSchedule ring = par::all_reduce_schedule(Collective::kRing, b, 4);
  EXPECT_EQ(ring.rounds, 6);
  EXPECT_DOUBLE_EQ(ring.round_bytes, b / 4.0);
  EXPECT_DOUBLE_EQ(ring.wire_bytes, 6.0 * b);
}

TEST(Collectives, RingWinsLargeTreeOrRdoubleWinsSmallOnP2p) {
  const phi::InterconnectSpec p2p = phi::pcie_p2p_interconnect();
  const int cards = 4;
  const double large = 256e6;
  EXPECT_LT(par::all_reduce_schedule(Collective::kRing, large, cards).time_s(p2p),
            par::all_reduce_schedule(Collective::kTree, large, cards).time_s(p2p));
  const double small = 4e3;
  const double ring_small =
      par::all_reduce_schedule(Collective::kRing, small, cards).time_s(p2p);
  const double rd_small =
      par::all_reduce_schedule(Collective::kRecursiveDoubling, small, cards)
          .time_s(p2p);
  EXPECT_LT(rd_small, ring_small);
}

TEST(Collectives, AutoNeverWorseThanBestFixed) {
  const Collective fixed[] = {Collective::kTree, Collective::kRecursiveDoubling,
                              Collective::kRing};
  for (const phi::InterconnectSpec& link :
       {phi::pcie_p2p_interconnect(), phi::host_staged_interconnect()}) {
    for (int cards : {2, 3, 4, 8}) {
      for (double bytes = 1e3; bytes <= 256e6; bytes *= 8) {
        const Collective picked =
            par::resolve_collective(Collective::kAuto, bytes, cards, link);
        const double picked_s =
            par::all_reduce_schedule(picked, bytes, cards).time_s(link);
        for (Collective c : fixed)
          EXPECT_LE(picked_s,
                    par::all_reduce_schedule(c, bytes, cards).time_s(link))
              << link.name << " cards=" << cards << " bytes=" << bytes;
      }
    }
  }
}

TEST(Collectives, EnvOverrideWinsOverConfig) {
  ASSERT_EQ(setenv("DEEPPHI_COLLECTIVE", "ring", 1), 0);
  EXPECT_EQ(par::resolve_collective(Collective::kTree, 1e3, 4,
                                    phi::pcie_p2p_interconnect()),
            Collective::kRing);
  ASSERT_EQ(setenv("DEEPPHI_COLLECTIVE", "bogus", 1), 0);
  EXPECT_THROW(par::resolve_collective(Collective::kAuto, 1e3, 4,
                                       phi::pcie_p2p_interconnect()),
               util::Error);
  unsetenv("DEEPPHI_COLLECTIVE");
  EXPECT_EQ(par::resolve_collective(Collective::kTree, 1e3, 4,
                                    phi::pcie_p2p_interconnect()),
            Collective::kTree);
}

// --- functional all-reduce ---

std::vector<std::vector<float>> make_inputs(int cards, la::Index n) {
  std::vector<std::vector<float>> bufs(static_cast<std::size_t>(cards));
  for (int c = 0; c < cards; ++c) {
    bufs[static_cast<std::size_t>(c)].resize(static_cast<std::size_t>(n));
    for (la::Index k = 0; k < n; ++k)
      bufs[static_cast<std::size_t>(c)][static_cast<std::size_t>(k)] =
          0.25f * static_cast<float>(c + 1) -
          0.125f * static_cast<float>(k % 17) +
          1e-3f * static_cast<float>((c * 31 + k) % 101);
  }
  return bufs;
}

std::vector<float*> pointers(std::vector<std::vector<float>>& bufs) {
  std::vector<float*> ps;
  for (auto& b : bufs) ps.push_back(b.data());
  return ps;
}

TEST(Collectives, AllReduceMatchesScalarReference) {
  for (Collective alg :
       {Collective::kTree, Collective::kRecursiveDoubling, Collective::kRing}) {
    for (int cards : {1, 2, 3, 4, 5, 8}) {
      for (la::Index n : {la::Index{1}, la::Index{7}, la::Index{64},
                          la::Index{130}}) {
        auto bufs = make_inputs(cards, n);
        // Scalar reference: left-fold in ascending card order, in double.
        std::vector<float> ref(static_cast<std::size_t>(n));
        for (la::Index k = 0; k < n; ++k) {
          double acc = 0;
          for (int c = 0; c < cards; ++c)
            acc += bufs[static_cast<std::size_t>(c)][static_cast<std::size_t>(k)];
          ref[static_cast<std::size_t>(k)] = static_cast<float>(acc);
        }
        auto ps = pointers(bufs);
        par::all_reduce(alg, ps, n);
        for (int c = 0; c < cards; ++c)
          for (la::Index k = 0; k < n; ++k)
            EXPECT_NEAR(
                bufs[static_cast<std::size_t>(c)][static_cast<std::size_t>(k)],
                ref[static_cast<std::size_t>(k)], 1e-4)
                << par::collective_name(alg) << " cards=" << cards
                << " n=" << n << " card=" << c << " k=" << k;
        // All-reduce property: every card holds the SAME bits.
        for (int c = 1; c < cards; ++c)
          EXPECT_EQ(bufs[static_cast<std::size_t>(c)],
                    bufs[0])
              << par::collective_name(alg) << " cards=" << cards;
      }
    }
  }
}

TEST(Collectives, RecursiveDoublingBitwiseMatchesTreeOnPow2Cards) {
  // At power-of-two card counts both algorithms evaluate the identical
  // stride-doubling sum tree (float addition is commutative), so their
  // results agree bit for bit.
  for (int cards : {2, 4, 8}) {
    auto tree_bufs = make_inputs(cards, 96);
    auto rd_bufs = make_inputs(cards, 96);
    auto tree_ps = pointers(tree_bufs);
    auto rd_ps = pointers(rd_bufs);
    par::all_reduce(Collective::kTree, tree_ps, 96);
    par::all_reduce(Collective::kRecursiveDoubling, rd_ps, 96);
    EXPECT_EQ(tree_bufs[0], rd_bufs[0]) << cards << " cards";
  }
}

TEST(Collectives, ExecutedScheduleMatchesModel) {
  for (Collective alg :
       {Collective::kTree, Collective::kRecursiveDoubling, Collective::kRing}) {
    for (int cards : {2, 3, 4, 5, 8}) {
      const la::Index n = 64 * cards;  // divisible: exact chunking
      auto bufs = make_inputs(cards, n);
      auto ps = pointers(bufs);
      const CollectiveSchedule executed = par::all_reduce(alg, ps, n);
      const CollectiveSchedule modeled =
          par::all_reduce_schedule(alg, 4.0 * static_cast<double>(n), cards);
      EXPECT_EQ(executed.rounds, modeled.rounds)
          << par::collective_name(alg) << " cards=" << cards;
      EXPECT_DOUBLE_EQ(executed.wire_bytes, modeled.wire_bytes)
          << par::collective_name(alg) << " cards=" << cards;
      EXPECT_DOUBLE_EQ(executed.round_bytes, modeled.round_bytes)
          << par::collective_name(alg) << " cards=" << cards;
      EXPECT_DOUBLE_EQ(executed.message_bytes, modeled.message_bytes);
    }
  }
}

// --- phi::Cluster timeline ---

TEST(Cluster, ConstructsIndependentCards) {
  phi::ClusterConfig cfg;
  cfg.cards = 3;
  cfg.interconnect = phi::pcie_p2p_interconnect();
  phi::Cluster cluster(phi::xeon_phi_5110p(), cfg);
  EXPECT_EQ(cluster.cards(), 3);
  cluster.device(0).alloc("probe", 1e6);
  EXPECT_GT(cluster.device(0).used_bytes(), 0.0);
  EXPECT_EQ(cluster.device(1).used_bytes(), 0.0);
}

TEST(Cluster, SubmitStepAdvancesBarrierAndAccumulatesComm) {
  phi::ClusterConfig cfg;
  cfg.cards = 2;
  phi::Cluster cluster(phi::xeon_phi_5110p(), cfg);
  std::vector<phi::KernelStats> stats(2);
  stats[0] += phi::loop_contribution(1 << 20, 2.0, 2.0, 1.0);
  stats[1] += phi::loop_contribution(1 << 20, 2.0, 2.0, 1.0);
  const std::vector<double> h2d = {1e6, 1e6};

  const phi::ClusterCommStats comm{.seconds = 0.25,
                                   .wire_bytes = 3e6,
                                   .rounds = 4,
                                   .collectives = 2};
  const double b1 = cluster.submit_step("step0", stats, h2d, comm);
  EXPECT_GT(b1, 0.25);  // compute + transfer happened before the collective
  EXPECT_DOUBLE_EQ(cluster.barrier_s(), b1);
  EXPECT_DOUBLE_EQ(cluster.comm().seconds, 0.25);
  EXPECT_DOUBLE_EQ(cluster.comm().wire_bytes, 3e6);
  EXPECT_EQ(cluster.comm().rounds, 4);
  EXPECT_EQ(cluster.comm().collectives, 2);
  ASSERT_EQ(cluster.comm_trace().events().size(), 1u);
  EXPECT_DOUBLE_EQ(cluster.comm_trace().events()[0].duration_s(), 0.25);

  // The next step's compute cannot start before the previous barrier.
  const double b2 = cluster.submit_step("step1", stats, h2d, comm);
  EXPECT_GT(b2, b1 + 0.25);
  EXPECT_GE(cluster.elapsed_s(), b2);
  EXPECT_GT(cluster.comm_share(), 0.0);
  EXPECT_LT(cluster.comm_share(), 1.0);

  cluster.reset_timeline();
  EXPECT_DOUBLE_EQ(cluster.barrier_s(), 0.0);
  EXPECT_DOUBLE_EQ(cluster.comm().seconds, 0.0);
  EXPECT_EQ(cluster.comm_trace().events().size(), 0u);
}

// --- cluster trainer: geometry invariance ---

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

// A trainer geometry of replicas × accum slots on each of `cards` cards. It
// owns the pcie-p2p cluster its config points at; one card is a plain run.
struct ClusterRun {
  TrainerConfig config;
  std::unique_ptr<phi::Cluster> cluster;
};

// 330 examples / chunk 128 / batch 12 exercises ragged chunk tails AND
// ragged gradient groups at every factorization below.
ClusterRun cluster_config(int replicas, int accum, int cards,
                          int replica_threads = 0) {
  ClusterRun run;
  TrainerConfig& cfg = run.config;
  cfg.batch_size = 12;
  cfg.chunk_examples = 128;
  cfg.epochs = 2;
  cfg.level = OptLevel::kImproved;
  cfg.optimizer.lr = 0.1f;
  cfg.seed = 42;
  cfg.replicas = replicas;
  cfg.accumulation_steps = accum;
  cfg.replica_threads = replica_threads;
  if (cards > 1) {
    phi::ClusterConfig ccfg;
    ccfg.cards = cards;
    run.cluster = std::make_unique<phi::Cluster>(phi::xeon_phi_5110p(), ccfg);
    cfg.cluster = run.cluster.get();
  }
  return run;
}

data::Dataset ragged_patches() {
  return data::make_digit_patch_dataset(330, 4, 5);  // dim 16
}

std::vector<float> train_sae(const TrainerConfig& cfg,
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

std::vector<float> train_rbm(const TrainerConfig& cfg,
                             const data::Dataset& data) {
  RbmConfig mcfg;
  mcfg.visible = data.dim();
  mcfg.hidden = 8;
  Rbm model(mcfg, 7);
  Trainer(cfg).train(model, data);
  return rbm_params(model);
}

TEST(ClusterTrainer, SaeBitwiseInvariantAcrossFactorizations) {
  const data::Dataset data = ragged_patches();
  // All factorizations of S = 8 global slots, including thread variation.
  const std::vector<float> reference =
      train_sae(cluster_config(8, 1, 1).config, data);
  const int geo[][4] = {{4, 1, 2, 0}, {2, 2, 2, 0}, {1, 1, 8, 0},
                        {2, 1, 4, 0}, {1, 2, 4, 0}, {2, 2, 2, 1},
                        {4, 2, 1, 2}};
  for (const auto& g : geo) {
    const std::vector<float> params =
        train_sae(cluster_config(g[0], g[1], g[2], g[3]).config, data);
    EXPECT_EQ(params, reference)
        << "replicas=" << g[0] << " accum=" << g[1] << " cards=" << g[2]
        << " threads=" << g[3];
  }
}

TEST(ClusterTrainer, RbmBitwiseInvariantAcrossFactorizations) {
  const data::Dataset data = ragged_patches();
  const std::vector<float> reference =
      train_rbm(cluster_config(6, 1, 1).config, data);
  EXPECT_EQ(train_rbm(cluster_config(2, 1, 3).config, data), reference);
  EXPECT_EQ(train_rbm(cluster_config(3, 2, 1).config, data), reference);
  EXPECT_EQ(train_rbm(cluster_config(1, 2, 3).config, data), reference);
}

TEST(ClusterTrainer, CollectiveChoiceNeverChangesParameters) {
  // The collective governs the modeled communication schedule only; trained
  // weights are identical under every algorithm.
  const data::Dataset data = ragged_patches();
  const ClusterRun run = cluster_config(2, 1, 2);
  TrainerConfig cfg = run.config;
  cfg.collective = par::Collective::kRing;
  const std::vector<float> ring = train_sae(cfg, data);
  cfg.collective = par::Collective::kTree;
  EXPECT_EQ(train_sae(cfg, data), ring);
  cfg.collective = par::Collective::kRecursiveDoubling;
  EXPECT_EQ(train_sae(cfg, data), ring);
}

TEST(ClusterTrainer, AttachedClusterDoesNotChangeParameters) {
  // C cards train what C× the accumulation steps train on one.
  const data::Dataset data = ragged_patches();
  const std::vector<float> plain =
      train_sae(cluster_config(2, 2, 1).config, data);

  phi::ClusterConfig ccfg;
  ccfg.cards = 2;
  ccfg.interconnect = phi::host_staged_interconnect();
  phi::Cluster cluster(phi::xeon_phi_5110p(), ccfg);
  TrainerConfig cfg = cluster_config(2, 1, 1).config;
  cfg.cluster = &cluster;
  EXPECT_EQ(train_sae(cfg, data), plain);
  EXPECT_GT(cluster.comm().collectives, 0);
}

TEST(ClusterTrainer, SingleCardClusterMatchesPlainRun) {
  const data::Dataset data = ragged_patches();
  const std::vector<float> plain =
      train_sae(cluster_config(2, 2, 1).config, data);

  phi::ClusterConfig ccfg;
  ccfg.cards = 1;
  phi::Cluster cluster(phi::xeon_phi_5110p(), ccfg);
  TrainerConfig cfg = cluster_config(2, 2, 1).config;
  cfg.cluster = &cluster;
  EXPECT_EQ(train_sae(cfg, data), plain);
  // One card: nothing crosses a link.
  EXPECT_EQ(cluster.comm().collectives, 0);
  EXPECT_DOUBLE_EQ(cluster.comm().seconds, 0.0);
  // But the card's timeline did run the training.
  EXPECT_GT(cluster.device(0).elapsed_s(), 0.0);
}

// --- validation ---

TEST(ClusterTrainer, RejectsBadConfigurations) {
  ClusterRun run = cluster_config(1, 1, 2);
  run.config.level = OptLevel::kOpenMp;  // loop-form
  EXPECT_THROW(Trainer{run.config}, util::Error);
}

// --- accounting: dry == wet ---

TEST(ClusterAccounting, HostStatsEqualDataParallelReplayAtGlobalSlots) {
  const data::Dataset data = ragged_patches();
  const ClusterRun run = cluster_config(2, 1, 2);
  TrainReport report;
  train_sae(run.config, data, &report);
  const TrainReport dry = dry_train(SaeConfig{16, 8}, run.config, data.rows());
  EXPECT_TRUE(dry.stats == report.stats) << dry.stats.to_string() << "\n"
                                         << report.stats.to_string();
  // ... and the cluster's host work IS the flat data-parallel work at
  // S = R·A·C: cards change where work is charged, not what runs.
  TrainReport flat;
  train_sae(cluster_config(4, 1, 1).config, data, &flat);
  EXPECT_TRUE(report.stats == flat.stats);
}

TEST(ClusterAccounting, CommReplayEqualsMeasuredClusterComm) {
  const data::Dataset data = ragged_patches();
  for (const phi::InterconnectSpec& link :
       {phi::pcie_p2p_interconnect(), phi::host_staged_interconnect()}) {
    for (Collective alg :
         {Collective::kTree, Collective::kRecursiveDoubling,
          Collective::kRing}) {
      SCOPED_TRACE(link.name + " " + par::collective_name(alg));
      phi::ClusterConfig ccfg;
      ccfg.cards = 3;
      ccfg.interconnect = link;
      phi::Cluster wet_cluster(phi::xeon_phi_5110p(), ccfg);
      phi::Cluster dry_cluster(phi::xeon_phi_5110p(), ccfg);
      TrainerConfig cfg = cluster_config(1, 1, 1).config;
      cfg.collective = alg;
      cfg.cluster = &wet_cluster;
      TrainReport report;
      train_sae(cfg, data, &report);
      cfg.cluster = &dry_cluster;
      const TrainReport dry = dry_train(SaeConfig{16, 8}, cfg, data.rows());

      const phi::ClusterCommStats& wet = wet_cluster.comm();
      const phi::ClusterCommStats& modeled = dry_cluster.comm();
      EXPECT_EQ(modeled.collectives, wet.collectives);
      EXPECT_EQ(modeled.rounds, wet.rounds);
      EXPECT_EQ(modeled.wire_bytes, wet.wire_bytes);
      EXPECT_EQ(modeled.seconds, wet.seconds);
      EXPECT_EQ(dry_cluster.elapsed_s(), wet_cluster.elapsed_s());
      // One all-reduce per optimizer update.
      EXPECT_EQ(wet.collectives, report.updates);
      EXPECT_EQ(dry.updates, report.updates);
    }
  }
}

TEST(ClusterAccounting, CardCombinePlusInterCardEdgesEqualFlatTree) {
  // The hierarchical charging (each card's local tree + the root's scal and
  // update) accounts for the flat tree's work exactly once the inter-card
  // edges — carried by the collective as data movement — are added back as
  // one more (non-root) tree over the card partials.
  phi::DryRun dry;
  SparseAutoencoder model(SaeConfig{16, 8}, 7);
  const int card_live[] = {3, 2, 2};  // 3 cards, 7 live slots total
  const int live = 3 + 2 + 2;
  phi::KernelStats hierarchical;
  for (int c = 0; c < 3; ++c)
    hierarchical +=
        card_combine_stats(model, card_live[c], live, c == 0, {});
  hierarchical += card_combine_stats(model, /*live cards=*/3, live, false, {});
  EXPECT_TRUE(hierarchical == card_combine_stats(model, live, live, true, {}));
}

TEST(ClusterAccounting, ShapeHelpers) {
  // S = R·A·C global slots: the same count as a flat run of R·A·C replicas.
  EXPECT_EQ(Trainer(cluster_config(2, 3, 4).config).slots(), 24);
  EXPECT_EQ(Trainer(cluster_config(24, 1, 1).config).slots(), 24);
  // cards = 1: no communication at all.
  phi::ClusterConfig ccfg;
  ccfg.cards = 1;
  phi::Cluster cluster(phi::xeon_phi_5110p(), ccfg);
  TrainerConfig cfg = cluster_config(2, 1, 1).config;
  cfg.cluster = &cluster;
  const TrainReport dry = dry_train(SaeConfig{12, 128}, cfg, 330);
  EXPECT_GT(dry.updates, 0);
  EXPECT_EQ(cluster.comm().collectives, 0);
  EXPECT_DOUBLE_EQ(cluster.comm().seconds, 0.0);
}

}  // namespace
}  // namespace deepphi::core

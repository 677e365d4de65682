#include "core/data_parallel_trainer.hpp"

#include <algorithm>
#include <vector>

#include "core/train_loop.hpp"
#include "data/chunk_stream.hpp"
#include "la/blas1.hpp"
#include "obs/metrics.hpp"
#include "obs/profiler.hpp"
#include "parallel/collectives.hpp"
#include "parallel/replica_group.hpp"
#include "phi/cluster.hpp"
#include "phi/interconnect.hpp"
#include "util/error.hpp"

namespace deepphi::core {

namespace {

// Model-specific hooks for the shared replica loop. Each Ops type binds one
// building block's gradient call, gradient-buffer combine, and update order
// (the update order matches core::Trainer exactly — same Optimizer state
// sequence, so S == 1 reproduces it bit for bit).
struct SaeOps {
  using Grads = AeGradients;

  static void ensure(Grads& g, const SparseAutoencoder& m) {
    g.ensure(m.visible(), m.hidden());
  }
  static double gradient(SparseAutoencoder& m, const la::Matrix& batch,
                         SparseAutoencoder::Workspace& ws, Grads& g,
                         const util::Rng&, bool fused) {
    return m.gradient(batch, ws, g, fused);
  }
  static void combine(Grads& dst, const Grads& src) {
    la::axpy(1.0f, src.g_w1, dst.g_w1);
    la::axpy(1.0f, src.g_b1, dst.g_b1);
    la::axpy(1.0f, src.g_w2, dst.g_w2);
    la::axpy(1.0f, src.g_b2, dst.g_b2);
  }
  static void scale(Grads& g, float alpha) {
    la::scal(alpha, g.g_w1);
    la::scal(alpha, g.g_b1);
    la::scal(alpha, g.g_w2);
    la::scal(alpha, g.g_b2);
  }
  static void update(Optimizer& opt, SparseAutoencoder& m, const Grads& g) {
    opt.update(m.w1(), g.g_w1);
    opt.update(m.b1(), g.g_b1);
    opt.update(m.w2(), g.g_w2);
    opt.update(m.b2(), g.g_b2);
    opt.end_step();
  }
  static double model_bytes(const SparseAutoencoder& m) {
    return 4.0 * static_cast<double>(m.param_count());
  }
};

struct RbmOps {
  using Grads = RbmGradients;

  static void ensure(Grads& g, const Rbm& m) {
    g.ensure(m.visible(), m.hidden());
  }
  static double gradient(Rbm& m, const la::Matrix& batch, Rbm::Workspace& ws,
                         Grads& g, const util::Rng& rng, bool fused) {
    return m.gradient(batch, ws, g, rng, fused);
  }
  static void combine(Grads& dst, const Grads& src) {
    la::axpy(1.0f, src.g_w, dst.g_w);
    la::axpy(1.0f, src.g_b, dst.g_b);
    la::axpy(1.0f, src.g_c, dst.g_c);
  }
  static void scale(Grads& g, float alpha) {
    la::scal(alpha, g.g_w);
    la::scal(alpha, g.g_b);
    la::scal(alpha, g.g_c);
  }
  static void update(Optimizer& opt, Rbm& m, const Grads& g) {
    opt.update(m.w(), g.g_w);
    opt.update(m.b(), g.g_b);
    opt.update(m.c(), g.g_c);
    opt.end_step();
  }
  static double model_bytes(const Rbm& m) {
    return 4.0 * static_cast<double>(m.w().size() + m.b().size() +
                                     m.c().size());
  }
};

// Dry run of a card's combine share (see card_combine_stats in the header).
template <typename Ops, typename Model>
phi::KernelStats combine_stats(Model& model, int card_live_slots,
                               int global_live_slots, bool root,
                               const OptimizerConfig& opt_config) {
  phi::KernelStats stats;
  phi::StatsScope scope(stats);
  phi::DryRun dry;
  typename Ops::Grads sum, slot;
  Ops::ensure(sum, model);
  Ops::ensure(slot, model);
  for (int edge = 0; edge + 1 < card_live_slots; ++edge)
    Ops::combine(sum, slot);
  if (root) {
    if (global_live_slots > 1)
      Ops::scale(sum, 1.0f / static_cast<float>(global_live_slots));
    Optimizer optimizer(opt_config);
    Ops::update(optimizer, model, sum);
  }
  return stats;
}

template <typename Ops, typename Model>
TrainReport run_dp(const TrainerConfig& config, Model& model,
                   const data::StreamingSource& dataset) {
  const int R = config.replicas;
  const int A = config.accumulation_steps;
  const int C = config.cards;
  const int S = R * A * C;
  phi::Cluster* cluster = config.cluster;
  const la::Index dim = model.visible();
  const bool fused = is_fused(config.level);

  par::ReplicaGroup group(
      par::ReplicaGroupConfig{R, config.replica_threads});
  std::vector<typename Ops::Grads> grads(static_cast<std::size_t>(S));
  for (auto& g : grads) Ops::ensure(g, model);
  std::vector<typename Model::Workspace> ws(static_cast<std::size_t>(R));
  std::vector<la::Matrix> staging(static_cast<std::size_t>(R));
  Optimizer optimizer(config.optimizer);
  util::Rng sampling_base(config.seed, /*stream=*/0x5a3bULL);
  std::int64_t update_index = 0;

  static obs::Gauge& slots_gauge = obs::gauge("dp.slots");
  slots_gauge.set(static_cast<double>(S));
  static obs::Counter& updates_counter = obs::counter("dp.updates");

  // One global step consumes up to S micro-batches of the chunk at once.
  const la::Index group_capacity =
      static_cast<la::Index>(S) * config.batch_size;
  // Arena (per card under a cluster): model + the card's R·A gradient
  // slots, R concurrent 4-matrix workspaces.
  const double model_bytes = Ops::model_bytes(model);
  const double arena_model_bytes =
      model_bytes * (1.0 + static_cast<double>(cluster ? R * A : S));
  const double workspace_bytes = 4.0 * 4.0 *
                                 static_cast<double>(config.batch_size) * dim *
                                 static_cast<double>(R);

  // The inter-card combine's modeled schedule: one all-reduce of the full
  // gradient per optimizer update, with the algorithm resolved ONCE for the
  // run from the gradient message size and the active interconnect (the
  // functional combine below never changes with it — docs/cluster.md).
  par::CollectiveSchedule comm_schedule;
  double comm_step_s = 0.0;
  if (C > 1) {
    const phi::InterconnectSpec link =
        cluster ? cluster->interconnect() : phi::pcie_p2p_interconnect();
    const par::Collective algorithm =
        par::resolve_collective(config.collective, model_bytes, C, link);
    comm_schedule = par::all_reduce_schedule(algorithm, model_bytes, C);
    comm_step_s = comm_schedule.time_s(link);
  }

  std::vector<double> slot_cost(static_cast<std::size_t>(S), 0.0);
  // One stats sink per (card, replica) pair, indexed c·R + r.
  std::vector<phi::KernelStats> worker_stats(static_cast<std::size_t>(C * R));
  std::vector<int> live;
  live.reserve(static_cast<std::size_t>(S));
  const bool dry = phi::dry_run();

  return detail::run_train_loop(
      config, dataset, dim, arena_model_bytes, workspace_bytes,
      [&](const la::Matrix& chunk) {
        detail::ChunkOutcome outcome;
        if (cluster) {
          outcome.card_stats.assign(static_cast<std::size_t>(C),
                                    phi::KernelStats{});
          outcome.card_h2d_bytes.assign(static_cast<std::size_t>(C), 0.0);
        }
        for (la::Index begin = 0; begin < chunk.rows();
             begin += group_capacity) {
          const la::Index rows = std::min(group_capacity, chunk.rows() - begin);
          // Slot s owns shard s — a function of (rows, S) only. Shard 0 is
          // never empty, so the combined gradient always lands in slot 0.
          const std::vector<data::RowShard> shards = data::shard_rows(rows, S);
          std::fill(slot_cost.begin(), slot_cost.end(), 0.0);
          std::fill(worker_stats.begin(), worker_stats.end(),
                    phi::KernelStats{});
          group.run([&](int r) {
            phi::DryRun worker_mode(dry);  // replicas run as their caller
            auto& batch = staging[static_cast<std::size_t>(r)];
            auto& workspace = ws[static_cast<std::size_t>(r)];
            // Replica r sweeps the cards in order, computing slot
            // (c·R + r)·A + a of card c — so card c's slot block is the
            // contiguous [c·R·A, (c+1)·R·A) and C == 1 degenerates to the
            // original slot = r·A + a loop exactly.
            for (int c = 0; c < C; ++c) {
              // Per-(card, replica) stats sink: StatsScope is thread-local,
              // so each worker measures its share of each card into its own
              // KernelStats; the sinks merge below in (card, replica) order,
              // keeping the chunk record deterministic.
              phi::StatsScope sink(
                  worker_stats[static_cast<std::size_t>(c * R + r)]);
              for (int a = 0; a < A; ++a) {
                const int slot = (c * R + r) * A + a;
                const data::RowShard& shard =
                    shards[static_cast<std::size_t>(slot)];
                if (shard.rows == 0) continue;  // ragged tail: slot sits out
                DEEPPHI_PROFILE_SCOPE("trainer.batch");
                detail::slice_batch(chunk, begin + shard.begin, shard.rows,
                                    batch);
                const util::Rng slot_rng = sampling_base.split(
                    static_cast<std::uint64_t>(update_index) *
                        static_cast<std::uint64_t>(S) +
                    static_cast<std::uint64_t>(slot));
                slot_cost[static_cast<std::size_t>(slot)] = Ops::gradient(
                    model, batch, workspace,
                    grads[static_cast<std::size_t>(slot)], slot_rng, fused);
              }
            }
          });
          for (int i = 0; i < C * R; ++i)
            phi::record(worker_stats[static_cast<std::size_t>(i)]);

          live.clear();
          for (int s = 0; s < S; ++s)
            if (shards[static_cast<std::size_t>(s)].rows > 0) live.push_back(s);
          {
            // Binary-tree all-reduce over the live slots in ascending slot
            // order — pairing depends only on live.size(), so the combined
            // sum is associatively identical run to run. live.size() == 1
            // does no kernel work at all (the S == 1 parity path).
            DEEPPHI_PROFILE_SCOPE("dp.combine");
            for (std::size_t stride = 1; stride < live.size(); stride *= 2)
              for (std::size_t i = 0; i + stride < live.size(); i += 2 * stride)
                Ops::combine(
                    grads[static_cast<std::size_t>(live[i])],
                    grads[static_cast<std::size_t>(live[i + stride])]);
            if (live.size() > 1)
              Ops::scale(grads[static_cast<std::size_t>(live.front())],
                         1.0f / static_cast<float>(live.size()));
          }
          Ops::update(optimizer, model,
                      grads[static_cast<std::size_t>(live.front())]);
          ++update_index;
          updates_counter.add();
          ++outcome.updates;
          for (int s : live) {
            outcome.cost_sum += slot_cost[static_cast<std::size_t>(s)];
            ++outcome.batches;
            outcome.final_cost = slot_cost[static_cast<std::size_t>(s)];
          }
          if (cluster) {
            // Charge the step to the cards: card c's timeline gets its
            // replicas' measured gradient work plus its share of the
            // combine (a dry run of the flat tree's own Ops calls), its
            // shards' h2d bytes, and — per update — the resolved collective
            // schedule on the interconnect.
            for (int c = 0; c < C; ++c) {
              auto& card = outcome.card_stats[static_cast<std::size_t>(c)];
              for (int r = 0; r < R; ++r)
                card += worker_stats[static_cast<std::size_t>(c * R + r)];
              int card_live = 0;
              la::Index card_rows = 0;
              for (int s = c * R * A; s < (c + 1) * R * A; ++s) {
                const data::RowShard& shard =
                    shards[static_cast<std::size_t>(s)];
                if (shard.rows > 0) ++card_live;
                card_rows += shard.rows;
              }
              card += combine_stats<Ops>(model, card_live,
                                         static_cast<int>(live.size()),
                                         /*root=*/c == 0, config.optimizer);
              outcome.card_h2d_bytes[static_cast<std::size_t>(c)] +=
                  4.0 * static_cast<double>(card_rows) *
                  static_cast<double>(dim);
            }
            if (C > 1) {
              outcome.comm_seconds += comm_step_s;
              outcome.comm_wire_bytes += comm_schedule.wire_bytes;
              outcome.comm_rounds += comm_schedule.rounds;
              outcome.comm_collectives += 1;
            }
          }
        }
        return outcome;
      });
}

}  // namespace

DataParallelTrainer::DataParallelTrainer(TrainerConfig config)
    : config_(config) {
  DEEPPHI_CHECK_MSG(config.batch_size >= 1, "batch_size must be >= 1");
  DEEPPHI_CHECK_MSG(config.chunk_examples >= config.batch_size,
                    "chunk_examples (" << config.chunk_examples
                                       << ") must cover at least one batch ("
                                       << config.batch_size << ")");
  DEEPPHI_CHECK_MSG(config.epochs >= 1, "epochs must be >= 1");
  DEEPPHI_CHECK_MSG(config.ring_chunks >= 1, "ring_chunks must be >= 1");
  DEEPPHI_CHECK_MSG(config.replicas >= 1, "replicas must be >= 1");
  DEEPPHI_CHECK_MSG(config.replica_threads >= 0,
                    "replica_threads must be >= 0 (0 = auto)");
  DEEPPHI_CHECK_MSG(config.accumulation_steps >= 1,
                    "accumulation_steps must be >= 1");
  DEEPPHI_CHECK_MSG(config.cards >= 1, "cards must be >= 1");
  DEEPPHI_CHECK_MSG(is_matrix_form(config.level),
                    "data-parallel training requires a matrix-form level "
                    "(the loop-form ladder levels fuse update into gradient)");
  DEEPPHI_CHECK_MSG(!config.use_taskgraph,
                    "the Fig. 6 task graph cannot be combined with "
                    "data-parallel replicas");
}

TrainReport DataParallelTrainer::train(SparseAutoencoder& model,
                                       const data::StreamingSource& dataset) {
  return run_dp<SaeOps>(config_, model, dataset);
}

TrainReport DataParallelTrainer::train(Rbm& model,
                                       const data::StreamingSource& dataset) {
  return run_dp<RbmOps>(config_, model, dataset);
}

phi::KernelStats card_combine_stats(SparseAutoencoder& model,
                                    int card_live_slots, int global_live_slots,
                                    bool root,
                                    const OptimizerConfig& optimizer) {
  return combine_stats<SaeOps>(model, card_live_slots, global_live_slots, root,
                               optimizer);
}

phi::KernelStats card_combine_stats(Rbm& model, int card_live_slots,
                                    int global_live_slots, bool root,
                                    const OptimizerConfig& optimizer) {
  return combine_stats<RbmOps>(model, card_live_slots, global_live_slots, root,
                               optimizer);
}

}  // namespace deepphi::core

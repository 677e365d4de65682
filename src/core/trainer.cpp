#include "core/trainer.hpp"

#include <algorithm>
#include <memory>
#include <vector>

#include "core/loop_form.hpp"
#include "core/rbm_taskgraph.hpp"
#include "core/train_loop.hpp"
#include "la/blas1.hpp"
#include "obs/metrics.hpp"
#include "obs/profiler.hpp"
#include "parallel/collectives.hpp"
#include "parallel/replica_group.hpp"
#include "phi/cluster.hpp"
#include "util/error.hpp"

namespace deepphi::core {

namespace {

// Threads in the Fig. 6 task graph's pool.
constexpr unsigned kTaskGraphThreads = 4;

// Model-specific hooks for the slot loop. Each Ops binds one building
// block's gradient, gradient-buffer combine and update. The loop-form levels
// (Baseline / OpenMP) step with their own naive loops and plain SGD at
// optimizer.lr, matching the paper's unoptimized code; the matrix-form
// levels use the model's GEMM gradient and the configured Optimizer.
struct SaeOps {
  using Grads = AeGradients;
  OptLevel level;

  static void ensure(Grads& g, const SparseAutoencoder& m) {
    g.ensure(m.visible(), m.hidden());
  }
  double gradient(SparseAutoencoder& m, const la::Matrix& batch,
                  SparseAutoencoder::Workspace& ws, Grads& g,
                  const util::Rng&) const {
    if (!is_matrix_form(level))
      return sae_gradient_loops(m, batch, ws, g, level == OptLevel::kOpenMp);
    return m.gradient(batch, ws, g, is_fused(level));
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
  void update(Optimizer& opt, SparseAutoencoder& m, const Grads& g) const {
    if (!is_matrix_form(level)) {
      sae_apply_update_loops(m, g, opt.config().lr,
                             level == OptLevel::kOpenMp);
      return;
    }
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
  OptLevel level;
  RbmTaskGraphStep* graph = nullptr;  // the Fig. 6 step, when configured

  static void ensure(Grads& g, const Rbm& m) {
    g.ensure(m.visible(), m.hidden());
  }
  double gradient(Rbm& m, const la::Matrix& batch, Rbm::Workspace& ws,
                  Grads& g, const util::Rng& rng) const {
    if (!is_matrix_form(level))
      return rbm_gradient_loops(m, batch, ws, g, rng,
                                level == OptLevel::kOpenMp);
    if (graph) return graph->run(batch, ws, g, rng);
    return m.gradient(batch, ws, g, rng, is_fused(level));
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
  void update(Optimizer& opt, Rbm& m, const Grads& g) const {
    if (!is_matrix_form(level)) {
      rbm_apply_update_loops(m, g, opt.config().lr,
                             level == OptLevel::kOpenMp);
      return;
    }
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
phi::KernelStats combine_stats(const Ops& ops, Model& model,
                               int card_live_slots, int global_live_slots,
                               bool root, const OptimizerConfig& opt_config) {
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
    ops.update(optimizer, model, sum);
  }
  return stats;
}

// Algorithm 1 over S = R·A·C gradient slots per global step.
template <typename Ops, typename Model>
TrainReport run_slots(const TrainerConfig& config, int S, const Ops& ops,
                      Model& model, const data::StreamingSource& dataset) {
  const int R = config.replicas;
  const int A = config.accumulation_steps;
  phi::Cluster* cluster = config.cluster;
  const int C = cluster ? cluster->cards() : 1;
  const la::Index dim = model.visible();

  par::ReplicaGroup group(
      par::ReplicaGroupConfig{R, config.replica_threads});
  std::vector<typename Ops::Grads> grads(static_cast<std::size_t>(S));
  for (auto& g : grads) Ops::ensure(g, model);
  std::vector<typename Model::Workspace> ws(static_cast<std::size_t>(R));
  Optimizer optimizer(config.optimizer);
  util::Rng sampling_base(config.seed, /*stream=*/0x5a3bULL);
  std::int64_t update_index = 0;

  static obs::Gauge& slots_gauge = obs::gauge("dp.slots");
  slots_gauge.set(static_cast<double>(S));
  static obs::Counter& updates_counter = obs::counter("dp.updates");

  // One global step consumes up to S micro-batches of the chunk at once.
  const la::Index group_capacity =
      static_cast<la::Index>(S) * config.batch_size;
  // Each card's arena: model + the card's R·A gradient slots, R concurrent
  // 4-matrix workspaces.
  const double model_bytes = Ops::model_bytes(model);
  const double arena_model_bytes =
      model_bytes * (1.0 + static_cast<double>(R * A));
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
    const par::Collective algorithm = par::resolve_collective(
        config.collective, model_bytes, C, cluster->interconnect());
    comm_schedule = par::all_reduce_schedule(algorithm, model_bytes, C);
    comm_step_s = comm_schedule.time_s(cluster->interconnect());
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
            auto& workspace = ws[static_cast<std::size_t>(r)];
            // Replica r sweeps the cards in order, computing slot
            // (c·R + r)·A + a of card c — so card c's slot block is the
            // contiguous [c·R·A, (c+1)·R·A) and C == 1 degenerates to the
            // slot = r·A + a loop exactly.
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
                // The slot trains its rows in place in the chunk.
                const la::RowView batch(chunk, begin + shard.begin,
                                        shard.rows);
                const util::Rng slot_rng = sampling_base.split(
                    static_cast<std::uint64_t>(update_index) *
                        static_cast<std::uint64_t>(S) +
                    static_cast<std::uint64_t>(slot));
                slot_cost[static_cast<std::size_t>(slot)] = ops.gradient(
                    model, batch.matrix(), workspace,
                    grads[static_cast<std::size_t>(slot)], slot_rng);
              }
            }
          });
          for (int i = 0; i < C * R; ++i)
            phi::record(worker_stats[static_cast<std::size_t>(i)]);

          live.clear();
          for (int s = 0; s < S; ++s)
            if (shards[static_cast<std::size_t>(s)].rows > 0) live.push_back(s);
          if (live.size() > 1) {
            // Binary-tree all-reduce over the live slots in ascending slot
            // order — pairing depends only on live.size(), so the combined
            // sum is associatively identical run to run.
            DEEPPHI_PROFILE_SCOPE("dp.combine");
            for (std::size_t stride = 1; stride < live.size(); stride *= 2)
              for (std::size_t i = 0; i + stride < live.size(); i += 2 * stride)
                Ops::combine(
                    grads[static_cast<std::size_t>(live[i])],
                    grads[static_cast<std::size_t>(live[i + stride])]);
            Ops::scale(grads[static_cast<std::size_t>(live.front())],
                       1.0f / static_cast<float>(live.size()));
          }
          ops.update(optimizer, model,
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
              card += combine_stats(ops, model, card_live,
                                    static_cast<int>(live.size()),
                                    /*root=*/c == 0, config.optimizer);
              outcome.card_h2d_bytes[static_cast<std::size_t>(c)] +=
                  4.0 * static_cast<double>(card_rows) *
                  static_cast<double>(dim);
            }
            if (C > 1) {
              outcome.comm.seconds += comm_step_s;
              outcome.comm.wire_bytes += comm_schedule.wire_bytes;
              outcome.comm.rounds += comm_schedule.rounds;
              outcome.comm.collectives += 1;
            }
          }
        }
        return outcome;
      });
}

}  // namespace

phi::KernelStats TrainReport::per_chunk_compute_stats() const {
  phi::KernelStats compute = stats;
  compute.h2d_bytes = 0;
  compute.d2h_bytes = 0;
  compute.transfers = 0;
  return chunks > 0 ? compute.scaled(1.0 / static_cast<double>(chunks))
                    : compute;
}

Trainer::Trainer(TrainerConfig config) : config_(config) {
  DEEPPHI_CHECK_MSG(config.batch_size >= 1, "batch_size must be >= 1");
  DEEPPHI_CHECK_MSG(config.chunk_examples >= config.batch_size,
                    "chunk_examples (" << config.chunk_examples
                                       << ") must cover at least one batch ("
                                       << config.batch_size << ")");
  DEEPPHI_CHECK_MSG(config.epochs >= 1, "epochs must be >= 1");
  DEEPPHI_CHECK_MSG(config.ring_chunks >= 1, "ring_chunks must be >= 1");
  DEEPPHI_CHECK_MSG(
      config.shuffle_window == 0 ||
          config.shuffle_window >= config.chunk_examples,
      "shuffle_window (" << config.shuffle_window
                         << ") must be 0 (off) or >= chunk_examples ("
                         << config.chunk_examples << ")");
  DEEPPHI_CHECK_MSG(config.replicas >= 1, "replicas must be >= 1");
  DEEPPHI_CHECK_MSG(config.replica_threads >= 0,
                    "replica_threads must be >= 0 (0 = auto)");
  DEEPPHI_CHECK_MSG(config.accumulation_steps >= 1,
                    "accumulation_steps must be >= 1");
  DEEPPHI_CHECK_MSG(!config.use_taskgraph || is_matrix_form(config.level),
                    "the Fig. 6 task graph requires a matrix-form level");
  DEEPPHI_CHECK_MSG(slots() == 1 || is_matrix_form(config.level),
                    "data-parallel training (replicas/accumulation/cards) "
                    "requires a matrix-form level");
  DEEPPHI_CHECK_MSG(slots() == 1 || !config.use_taskgraph,
                    "the Fig. 6 task graph cannot be combined with "
                    "data-parallel replicas");
}

int Trainer::slots() const {
  return config_.replicas * config_.accumulation_steps *
         (config_.cluster ? config_.cluster->cards() : 1);
}

TrainReport Trainer::train(SparseAutoencoder& model,
                           const data::StreamingSource& dataset) {
  return run_slots(config_, slots(), SaeOps{config_.level}, model, dataset);
}

TrainReport Trainer::train(Rbm& model, const data::StreamingSource& dataset) {
  std::unique_ptr<par::ThreadPool> pool;
  std::unique_ptr<RbmTaskGraphStep> graph;
  if (config_.use_taskgraph) {
    pool = std::make_unique<par::ThreadPool>(kTaskGraphThreads);
    graph = std::make_unique<RbmTaskGraphStep>(model, *pool);
  }
  return run_slots(config_, slots(), RbmOps{config_.level, graph.get()}, model,
                   dataset);
}

phi::KernelStats card_combine_stats(SparseAutoencoder& model,
                                    int card_live_slots, int global_live_slots,
                                    bool root,
                                    const OptimizerConfig& optimizer) {
  return combine_stats(SaeOps{OptLevel::kImproved}, model, card_live_slots,
                       global_live_slots, root, optimizer);
}

phi::KernelStats card_combine_stats(Rbm& model, int card_live_slots,
                                    int global_live_slots, bool root,
                                    const OptimizerConfig& optimizer) {
  return combine_stats(RbmOps{OptLevel::kImproved}, model, card_live_slots,
                       global_live_slots, root, optimizer);
}

TrainReport dry_train(const SaeConfig& model, const TrainerConfig& config,
                      la::Index rows) {
  phi::DryRun dry;
  SparseAutoencoder shape_only(model, /*seed=*/0);
  return Trainer(config).train(shape_only, data::Dataset(rows, model.visible));
}

TrainReport dry_train(const RbmConfig& model, const TrainerConfig& config,
                      la::Index rows) {
  phi::DryRun dry;
  Rbm shape_only(model, /*seed=*/0);
  return Trainer(config).train(shape_only, data::Dataset(rows, model.visible));
}

SimulatedTime simulate(const TrainReport& report, phi::Device& device,
                       int ring_chunks) {
  SimulatedTime out;
  const phi::KernelStats per_chunk = report.per_chunk_compute_stats();
  out.total = device.cost_model().evaluate(
      per_chunk.scaled(static_cast<double>(report.chunks)), device.threads());
  const auto replay = [&](bool async_loading) {
    phi::ClusterConfig one_card;
    one_card.threads_per_card = device.threads();
    phi::Cluster card(device.spec(), one_card);
    phi::ChunkRing ring(ring_chunks, async_loading);
    for (std::int64_t i = 0; i < report.chunks; ++i)
      ring.trained(i, card.submit_step("chunk[" + std::to_string(i) + "]",
                                       {per_chunk}, {report.chunk_bytes}, {},
                                       ring.transfer_ready(i)));
    return card.elapsed_s();
  };
  out.pipelined_s = replay(/*async_loading=*/true);
  out.serialized_s = replay(/*async_loading=*/false);
  return out;
}

}  // namespace deepphi::core

#include "core/trainer.hpp"

#include <memory>

#include "core/autoencoder_loops.hpp"
#include "core/data_parallel_trainer.hpp"
#include "core/rbm_loops.hpp"
#include "core/rbm_taskgraph.hpp"
#include "core/train_loop.hpp"
#include "obs/profiler.hpp"
#include "util/error.hpp"

namespace deepphi::core {

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
  DEEPPHI_CHECK_MSG(!config.use_taskgraph || is_matrix_form(config.level),
                    "the Fig. 6 task graph requires a matrix-form level");
  DEEPPHI_CHECK_MSG(config.replicas >= 1, "replicas must be >= 1");
  DEEPPHI_CHECK_MSG(config.replica_threads >= 0,
                    "replica_threads must be >= 0 (0 = auto)");
  DEEPPHI_CHECK_MSG(config.accumulation_steps >= 1,
                    "accumulation_steps must be >= 1");
  DEEPPHI_CHECK_MSG(config.cards >= 1, "cards must be >= 1");
  const bool data_parallel = config.replicas > 1 ||
                             config.accumulation_steps > 1 || config.cards > 1;
  DEEPPHI_CHECK_MSG(!data_parallel || is_matrix_form(config.level),
                    "data-parallel training (replicas/accumulation/cards) "
                    "requires a matrix-form level");
  DEEPPHI_CHECK_MSG(!data_parallel || !config.use_taskgraph,
                    "the Fig. 6 task graph cannot be combined with "
                    "data-parallel replicas");
}

template <typename StepFn>
TrainReport Trainer::run_loop(const data::StreamingSource& dataset,
                              la::Index dim, double model_bytes,
                              StepFn&& step) {
  // Model + gradients + per-batch temporaries + the Fig. 5 chunk ring must
  // fit the card. Workspace ≈ 4 batch-sized activation matrices (the SAE's
  // y/z/delta2/back; the RBM's four phase matrices are no larger).
  const double workspace_bytes =
      4.0 * 4.0 * static_cast<double>(config_.batch_size) * dim;
  la::Matrix batch;
  std::int64_t global_step = 0;
  return detail::run_train_loop(
      config_, dataset, dim, 2.0 * model_bytes, workspace_bytes,
      [&](const la::Matrix& chunk) {
        detail::ChunkOutcome outcome;
        for (la::Index begin = 0; begin < chunk.rows();
             begin += config_.batch_size) {
          DEEPPHI_PROFILE_SCOPE("trainer.batch");
          const la::Index count =
              std::min(config_.batch_size, chunk.rows() - begin);
          detail::slice_batch(chunk, begin, count, batch);
          const double cost = step(batch, global_step);
          ++global_step;
          ++outcome.batches;
          ++outcome.updates;
          outcome.cost_sum += cost;
          outcome.final_cost = cost;
        }
        return outcome;
      });
}

TrainReport Trainer::train(SparseAutoencoder& model,
                           const data::StreamingSource& dataset) {
  if (config_.replicas > 1 || config_.accumulation_steps > 1 ||
      config_.cards > 1 || config_.cluster)
    return DataParallelTrainer(config_).train(model, dataset);
  SparseAutoencoder::Workspace ws;
  AeGradients grads;
  Optimizer optimizer(config_.optimizer);
  const OptLevel level = config_.level;

  auto step = [&](const la::Matrix& batch, std::int64_t) {
    double cost = 0;
    if (is_matrix_form(level)) {
      cost = model.gradient(batch, ws, grads, is_fused(level));
      optimizer.update(model.w1(), grads.g_w1);
      optimizer.update(model.b1(), grads.g_b1);
      optimizer.update(model.w2(), grads.g_w2);
      optimizer.update(model.b2(), grads.g_b2);
      optimizer.end_step();
    } else {
      const bool parallel = level == OptLevel::kOpenMp;
      cost = sae_gradient_loops(model, batch, ws, grads, parallel);
      sae_apply_update_loops(model, grads, config_.optimizer.lr, parallel);
    }
    return cost;
  };
  const double model_bytes = 4.0 * static_cast<double>(model.param_count());
  return run_loop(dataset, model.visible(), model_bytes, step);
}

TrainReport Trainer::train(Rbm& model, const data::StreamingSource& dataset) {
  if (config_.replicas > 1 || config_.accumulation_steps > 1 ||
      config_.cards > 1 || config_.cluster)
    return DataParallelTrainer(config_).train(model, dataset);
  Rbm::Workspace ws;
  RbmGradients grads;
  Optimizer optimizer(config_.optimizer);
  const OptLevel level = config_.level;
  util::Rng sampling_base(config_.seed, /*stream=*/0x5a3bULL);

  std::unique_ptr<par::ThreadPool> pool;
  std::unique_ptr<RbmTaskGraphStep> graph_step;
  if (config_.use_taskgraph) {
    pool = std::make_unique<par::ThreadPool>(
        static_cast<unsigned>(config_.taskgraph_threads));
    graph_step = std::make_unique<RbmTaskGraphStep>(model, *pool);
  }

  auto step = [&](const la::Matrix& batch, std::int64_t global_step) {
    const util::Rng step_rng =
        sampling_base.split(static_cast<std::uint64_t>(global_step));
    double recon = 0;
    if (is_matrix_form(level)) {
      if (graph_step) {
        recon = graph_step->run(batch, ws, grads, step_rng);
      } else {
        recon = model.gradient(batch, ws, grads, step_rng, is_fused(level));
      }
      optimizer.update(model.w(), grads.g_w);
      optimizer.update(model.b(), grads.g_b);
      optimizer.update(model.c(), grads.g_c);
      optimizer.end_step();
    } else {
      const bool parallel = level == OptLevel::kOpenMp;
      recon = rbm_gradient_loops(model, batch, ws, grads, step_rng, parallel);
      rbm_apply_update_loops(model, grads, config_.optimizer.lr, parallel);
    }
    return recon;
  };
  const double model_bytes =
      4.0 * static_cast<double>(model.w().size() + model.b().size() +
                                model.c().size());
  return run_loop(dataset, model.visible(), model_bytes, step);
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

  // Pipelined (Fig. 5 loading thread).
  device.reset_timeline();
  phi::Offload pipelined(device, phi::OffloadConfig{true, ring_chunks});
  out.pipelined_s = pipelined
                        .process_chunks(static_cast<int>(report.chunks),
                                        report.chunk_bytes, per_chunk)
                        .total_s;

  // Serialized (no loading thread).
  device.reset_timeline();
  phi::Offload serialized(device, phi::OffloadConfig{false, ring_chunks});
  out.serialized_s = serialized
                         .process_chunks(static_cast<int>(report.chunks),
                                         report.chunk_bytes, per_chunk)
                         .total_s;
  device.reset_timeline();
  return out;
}

}  // namespace deepphi::core

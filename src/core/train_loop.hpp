// The chunk-granular shell of core::Trainer: Algorithm 1's outer structure
// — pop a chunk from the Fig. 5 ring, record its h2d transfer, time it,
// drive the attached cluster's timeline (one card or many), emit
// per-chunk/epoch/run telemetry, apply the stop conditions — with the
// per-chunk gradient work (the slot loop in trainer.cpp) supplied as a
// callback.
#pragma once

#include <algorithm>
#include <cstring>
#include <utility>
#include <vector>

#include "core/trainer.hpp"
#include "data/chunk_stream.hpp"
#include "obs/metrics.hpp"
#include "obs/profiler.hpp"
#include "obs/telemetry.hpp"
#include "phi/cluster.hpp"
#include "util/error.hpp"
#include "util/timer.hpp"

namespace deepphi::core::detail {

// Copies rows [begin, begin+count) of `chunk` into the reusable batch buffer.
// Host-side staging (pointer bookkeeping on the real device), so it is not
// recorded as kernel work.
inline void slice_batch(const la::Matrix& chunk, la::Index begin,
                        la::Index count, la::Matrix& batch) {
  if (batch.rows() != count || batch.cols() != chunk.cols())
    batch = la::Matrix::uninitialized(count, chunk.cols());
  if (phi::dry_run()) return;  // shape-only rows
  std::memcpy(batch.data(), chunk.row(begin),
              sizeof(float) * static_cast<std::size_t>(count * chunk.cols()));
}

/// What one chunk of training produced, reported by the ChunkFn callback.
struct ChunkOutcome {
  double cost_sum = 0;       // Σ of per-micro-batch costs over the chunk
  std::int64_t batches = 0;  // micro-batch gradient evaluations
  std::int64_t updates = 0;  // optimizer steps applied
  double final_cost = 0;     // cost of the chunk's last micro-batch

  // Cluster charging (populated only when config.cluster drives the run):
  // per-card modeled compute and shard-transfer bytes for the chunk, plus
  // the chunk's accumulated collective schedule on the interconnect.
  std::vector<phi::KernelStats> card_stats;
  std::vector<double> card_h2d_bytes;
  phi::ClusterCommStats comm;
};

// RAII over the arena reservations a run makes on every card of the attached
// cluster: each card reserves ITS copy of the model + its slot block's
// gradients, its replicas' workspaces, and its 1/cards share of the chunk
// ring (the loading thread scatters each chunk's shards to the cards that
// own them). A partially constructed object gets no destructor call, so an
// OOM releases whatever was reserved before it, then rethrows.
class ClusterReservation {
 public:
  ClusterReservation(phi::Cluster* cluster, double card_model_bytes,
                     double card_workspace_bytes, double ring_bytes)
      : cluster_(cluster) {
    if (!cluster_) return;
    try {
      for (int c = 0; c < cluster_->cards(); ++c) {
        phi::Device& dev = cluster_->device(c);
        ids_.emplace_back(c, dev.alloc("model+gradients", card_model_bytes));
        ids_.emplace_back(c, dev.alloc("workspace", card_workspace_bytes));
        ids_.emplace_back(
            c, dev.alloc("chunk-ring", ring_bytes / cluster_->cards()));
      }
    } catch (...) {
      release();
      throw;
    }
  }
  ~ClusterReservation() { release(); }
  ClusterReservation(const ClusterReservation&) = delete;
  ClusterReservation& operator=(const ClusterReservation&) = delete;

 private:
  void release() {
    if (!cluster_) return;
    for (const auto& [card, id] : ids_) cluster_->device(card).free(id);
    ids_.clear();
  }

  phi::Cluster* cluster_;
  std::vector<std::pair<int, phi::Device::BufferId>> ids_;
};

/// Runs the chunked training loop over `dataset` (any StreamingSource —
/// in-memory Dataset or mmap'd ShardedDataset). `process(chunk)` performs
/// the chunk's gradient work (called inside a StatsScope that captures the
/// chunk's KernelStats) and returns its ChunkOutcome. `model_bytes` /
/// `workspace_bytes` size each card's arena reservation when config.cluster
/// drives the run.
template <typename ChunkFn>
TrainReport run_train_loop(const TrainerConfig& config,
                           const data::StreamingSource& dataset, la::Index dim,
                           double model_bytes, double workspace_bytes,
                           ChunkFn&& process) {
  DEEPPHI_PROFILE_SCOPE("trainer.run");
  DEEPPHI_CHECK_MSG(dataset.dim() == dim,
                    "dataset dim " << dataset.dim() << " != model visible "
                                   << dim);
  DEEPPHI_CHECK_MSG(!dataset.empty(), "empty dataset");
  phi::Cluster* cluster = config.cluster;

  TrainReport report;
  report.chunk_bytes = 4.0 * static_cast<double>(config.chunk_examples) * dim;
  util::Timer timer;
  phi::StatsScope scope(report.stats);

  ClusterReservation reservation(
      cluster, model_bytes, workspace_bytes,
      static_cast<double>(config.ring_chunks) * report.chunk_bytes);
  const bool async_loading = config.policy == ExecPolicy::kPhiOffload;
  phi::ChunkRing ring(static_cast<int>(config.ring_chunks), async_loading);

  bool stop = false;
  for (int epoch = 0; epoch < config.epochs && !stop; ++epoch) {
    data::ChunkStreamConfig stream_cfg;
    stream_cfg.chunk_examples = config.chunk_examples;
    // A dry run stages its shape-only chunks inline: the loader thread would
    // not run dry. Loading records no kernel work, so the stats are the same.
    stream_cfg.background = async_loading && !phi::dry_run();
    stream_cfg.ring_chunks = config.ring_chunks;
    stream_cfg.shuffle_window = config.shuffle_window;
    // A fresh shuffle per epoch, derived only from (config.seed, epoch), so
    // the visit order is bitwise-reproducible across backings, replica
    // factorizations, and resumed runs.
    stream_cfg.shuffle_seed =
        config.seed ^ (0x9e3779b97f4a7c15ULL *
                       (static_cast<std::uint64_t>(epoch) + 1));
    data::ChunkStream stream(dataset, stream_cfg);
    const std::int64_t epoch_first_chunk = report.chunks;
    const double epoch_start_s = timer.seconds();

    while (!stop) {
      auto chunk = stream.next();
      if (!chunk) break;
      DEEPPHI_PROFILE_SCOPE("trainer.chunk");
      // How far ahead the Fig. 5 loading thread is right after this pop.
      const std::size_t ring_buffered = stream.buffered();
      static obs::Gauge& ring_gauge = obs::gauge("train.ring_buffered");
      ring_gauge.set(static_cast<double>(ring_buffered));
      util::Timer chunk_timer;
      // The chunk crosses the host→device link (Fig. 5).
      phi::record(
          phi::h2d_contribution(4.0 * static_cast<double>(chunk->size())));

      ChunkOutcome outcome;
      phi::KernelStats chunk_stats;
      {
        phi::StatsScope chunk_scope(chunk_stats);
        outcome = process(*chunk);
      }
      phi::record(chunk_stats);  // merge the chunk's work into report.stats
      stream.recycle(std::move(*chunk));  // buffer returns to the decode pool
      report.final_cost = outcome.final_cost;
      if (cluster) {
        // Each card DMAs its shards and computes its share, then the chunk's
        // collectives occupy the interconnect; the step barrier frees the
        // ring slot.
        ring.trained(report.chunks,
                     cluster->submit_step(
                         "chunk[" + std::to_string(report.chunks) + "]",
                         outcome.card_stats, outcome.card_h2d_bytes,
                         outcome.comm, ring.transfer_ready(report.chunks)));
      }

      report.batches += outcome.batches;
      report.updates += outcome.updates;
      static obs::Counter& batches_counter = obs::counter("train.batches");
      batches_counter.add(outcome.batches);
      const double chunk_wall_s = chunk_timer.seconds();
      report.chunk_wall_seconds.push_back(chunk_wall_s);
      const double chunk_mean =
          outcome.cost_sum / static_cast<double>(outcome.batches);
      report.chunk_mean_costs.push_back(chunk_mean);
      if (config.telemetry) {
        using obs::TelemetryField;
        config.telemetry->emit(
            "chunk",
            {TelemetryField::integer("chunk", report.chunks),
             TelemetryField::integer("epoch", epoch),
             TelemetryField::integer("batches", outcome.batches),
             TelemetryField::num("mean_cost", chunk_mean),
             TelemetryField::num("wall_s", chunk_wall_s),
             TelemetryField::num("batches_per_s",
                                 chunk_wall_s > 0
                                     ? static_cast<double>(outcome.batches) /
                                           chunk_wall_s
                                     : 0.0),
             TelemetryField::num("gflops_per_s",
                                 chunk_wall_s > 0
                                     ? chunk_stats.total_flops() / chunk_wall_s /
                                           1e9
                                     : 0.0),
             TelemetryField::integer(
                 "ring_buffered", static_cast<std::int64_t>(ring_buffered))});
      }
      ++report.chunks;
      // Algorithm 1's stop condition.
      if (config.target_cost > 0 && chunk_mean <= config.target_cost)
        stop = true;
      if (config.max_batches > 0 && report.batches >= config.max_batches)
        stop = true;
    }

    report.load_stall_seconds += stream.consumer_wait_seconds();

    if (config.telemetry) {
      using obs::TelemetryField;
      const std::int64_t epoch_chunks = report.chunks - epoch_first_chunk;
      double epoch_cost = 0;
      for (std::int64_t k = epoch_first_chunk; k < report.chunks; ++k)
        epoch_cost += report.chunk_mean_costs[static_cast<std::size_t>(k)];
      config.telemetry->emit(
          "epoch",
          {TelemetryField::integer("epoch", epoch),
           TelemetryField::integer("chunks", epoch_chunks),
           TelemetryField::num("mean_cost",
                               epoch_chunks > 0
                                   ? epoch_cost /
                                         static_cast<double>(epoch_chunks)
                                   : 0.0),
           TelemetryField::num("wall_s", timer.seconds() - epoch_start_s)});
    }
  }

  report.wall_seconds = timer.seconds();
  if (config.telemetry) {
    using obs::TelemetryField;
    // Fraction of the run's wall time NOT spent waiting on the data
    // pipeline: 1.0 = loading fully overlapped compute (Fig. 5's goal).
    const double overlap =
        report.wall_seconds > 0
            ? std::clamp(1.0 - report.load_stall_seconds / report.wall_seconds,
                         0.0, 1.0)
            : 0.0;
    config.telemetry->emit_metrics(
        "run_summary",
        {TelemetryField::integer("chunks", report.chunks),
         TelemetryField::integer("batches", report.batches),
         TelemetryField::num("final_cost", report.final_cost),
         TelemetryField::num("wall_s", report.wall_seconds),
         TelemetryField::num("gflops_per_s",
                             report.wall_seconds > 0
                                 ? report.stats.total_flops() /
                                       report.wall_seconds / 1e9
                                 : 0.0),
         TelemetryField::num("load_stall_s", report.load_stall_seconds),
         TelemetryField::num("overlap_efficiency", overlap)});
  }
  return report;
}

}  // namespace deepphi::core::detail

// Mini-batch trainer implementing the paper's Algorithm 1:
//
//   while stop condition not satisfied:
//     get a chunk of data from the buffer area in global memory
//     split the chunk into many smaller training batches
//     for each small training batch:
//       compute the gradient; update the parameters
//
// The chunk feed follows Fig. 5 (background loading thread + ring buffer
// under ExecPolicy::kPhiOffload); the gradient step follows the Table I
// ladder level (core/levels.hpp). All work is recorded as KernelStats, so a
// finished TrainReport can be replayed on any simulated machine via
// simulate() — that replay is how the benches obtain Phi/CPU/Matlab times on
// hardware that no longer exists. dry_train() runs the same trainer under
// phi::DryRun ("model mode") for configurations too large to execute.
//
// Every run takes the same slot loop (docs/data_parallel.md). A global step
// evaluates S = replicas × accumulation_steps × cards gradient slots — one
// for a plain run, `cards` being the attached cluster's (docs/cluster.md) —
// combines them and applies one update. R replica workers (par::ReplicaGroup),
// each driving its own OpenMP team of ~T/R threads, evaluate the slots on
// disjoint micro-batches of the SAME chunk: one Fig. 5 ring feeds everyone.
//
// Determinism contract (tested in tests/data_parallel_test.cpp and
// tests/cluster_test.cpp):
//   - Slot row ranges come from data::shard_rows(group_rows, S), and a
//     slot's RNG stream is split(update_index·S + slot): both depend only on
//     the data and S, never on which replica or card ran the slot or with
//     how many threads.
//   - The combine is a fixed binary tree over the live (non-empty) slots in
//     ascending slot order, then a mean-scale — no atomics, no arrival
//     order. Kernels are thread-count invariant, so a fixed seed and fixed S
//     give bit-identical parameters for ANY (replicas, accumulation_steps)
//     factorization of S and any replica_threads setting.
//   - With S == 1 the one live slot needs no combine: a step is the Table I
//     level's gradient (or the Fig. 6 task graph's) and its update, nothing
//     else.
//   - Cards only re-label WHERE slots live — card c owns the contiguous
//     block [c·R·A, (c+1)·R·A) — and charge the modeled inter-card
//     all-reduce to the cluster's interconnect. The functional combine stays
//     the flat global tree, so any factorization of S into replicas ×
//     accumulation_steps × cards trains bit-identical parameters.
#pragma once

#include <cstdint>
#include <vector>

#include "core/levels.hpp"
#include "core/optimizer.hpp"
#include "core/rbm.hpp"
#include "core/sparse_autoencoder.hpp"
#include "data/dataset.hpp"
#include "parallel/collectives.hpp"
#include "phi/cost_model.hpp"
#include "phi/device.hpp"
#include "phi/offload.hpp"

namespace deepphi::obs {
class TelemetrySink;
}

namespace deepphi::phi {
class Cluster;
}

namespace deepphi::core {

struct TrainerConfig {
  la::Index batch_size = 1000;
  la::Index chunk_examples = 10000;
  int epochs = 1;
  /// Algorithm 1's "while stop condition is not satisfied": training also
  /// ends early once a chunk's mean cost falls to `target_cost` (0 = run all
  /// epochs) or after `max_batches` gradient steps (0 = unlimited).
  double target_cost = 0.0;
  std::int64_t max_batches = 0;
  OptLevel level = OptLevel::kImproved;
  ExecPolicy policy = ExecPolicy::kPhiOffload;
  /// Fig. 6 concurrent matrix ops for the RBM step (matrix-form levels and
  /// S == 1 only).
  bool use_taskgraph = false;
  /// Shared-memory data parallelism (docs/data_parallel.md). A global step
  /// evaluates S = replicas × accumulation_steps × cards gradient slots, each
  /// on one micro-batch of up to batch_size rows, and applies ONE optimizer
  /// update — an effective batch of up to S × batch_size examples. Replica r
  /// computes slots r·A+a concurrently with the other replicas on a private
  /// OpenMP team. S > 1 requires a matrix-form level.
  int replicas = 1;
  /// OpenMP threads per replica's kernels; 0 = ambient threads / replicas.
  int replica_threads = 0;
  /// Gradient slots each replica evaluates sequentially per global step.
  int accumulation_steps = 1;
  /// All-reduce algorithm the modeled inter-card combine is charged as;
  /// kAuto picks the cheapest schedule for the gradient message size on the
  /// active interconnect. DEEPPHI_COLLECTIVE overrides either way.
  par::Collective collective = par::Collective::kAuto;
  /// Update rule for the matrix-form levels; the loop-form levels (Baseline /
  /// OpenMP) always use plain SGD at optimizer.lr, matching the paper's
  /// unoptimized code.
  OptimizerConfig optimizer{};
  std::uint64_t seed = 42;
  std::size_t ring_chunks = 4;
  /// Windowed-shuffle span in examples for the streaming pipeline
  /// (docs/data_pipeline.md). 0 = feed chunks in source order (the historic
  /// behavior); otherwise must be >= chunk_examples. The visit order is a
  /// pure function of (rows, shuffle_window, seed, epoch) — independent of
  /// the data backing and of the S factorization — so shuffled runs stay
  /// bitwise reproducible.
  la::Index shuffle_window = 0;
  /// Optional simulated coprocessor. When set, train() reserves the model,
  /// gradients, workspace and chunk ring in the device's 8 GB arena (throws
  /// on OOM — the paper's "keep all the parameters ... in our global memory
  /// permanently" is a real constraint), and drives the device timeline
  /// chunk by chunk as the real training executes: one DMA event per chunk
  /// load (overlapped per Fig. 5 under kPhiOffload, serialized under kHost)
  /// and one compute event per chunk of training. The populated trace is
  /// available on the device afterwards. The device must outlive train().
  phi::Device* device = nullptr;
  /// Optional simulated multi-card cluster (mutually exclusive with
  /// `device`): the global step spreads over its cards (docs/cluster.md).
  /// Card c owns the slot block [c·R·A, (c+1)·R·A), computed by the same R
  /// replica workers sweeping the cards in order. Each card's arena takes
  /// its share of the reservation, each card's timeline is driven by its
  /// replicas' measured work plus its analytic combine share, and the
  /// per-update collective schedule occupies the interconnect between
  /// steps. The cluster must outlive the Trainer.
  phi::Cluster* cluster = nullptr;
  /// Optional JSONL telemetry sink: train() emits one record per chunk
  /// (cost, batches/s, GF/s, ring occupancy, wall seconds), one per epoch,
  /// and a run_summary with the metrics-registry snapshot. The sink must
  /// outlive train(). Null disables emission at zero cost.
  obs::TelemetrySink* telemetry = nullptr;
};

struct TrainReport {
  double final_cost = 0;        // cost of the last batch
  std::vector<double> chunk_mean_costs;
  std::int64_t batches = 0;     // micro-batch gradient evaluations
  /// Optimizer steps applied: one per S-slot group, so updates ≈ batches / S
  /// (exactly, up to ragged chunk tails; updates == batches when S == 1).
  std::int64_t updates = 0;
  std::int64_t chunks = 0;
  double chunk_bytes = 0;       // bytes of one full chunk
  phi::KernelStats stats;       // measured work, including h2d transfers
  double wall_seconds = 0;      // actual host wall time of the run
  /// Seconds the consumer spent blocked on the chunk ring (summed over
  /// epochs) — 0 when loading fully overlapped compute. The run_summary
  /// telemetry derives overlap_efficiency = 1 - load_stall/wall from it.
  double load_stall_seconds = 0;
  /// Measured host wall seconds of each chunk's training (same indexing as
  /// chunk_mean_costs) — the real-timeline counterpart of the per-chunk
  /// predictions phi::Offload::process_chunks makes for simulate().
  std::vector<double> chunk_wall_seconds;

  /// Compute-only work of an average chunk (transfers stripped) — the
  /// quantity phi::Offload::process_chunks consumes.
  phi::KernelStats per_chunk_compute_stats() const;
};

class Trainer {
 public:
  explicit Trainer(TrainerConfig config);

  const TrainerConfig& config() const { return config_; }

  /// Gradient slots per global step: replicas × accumulation_steps × the
  /// attached cluster's cards (1 without a cluster).
  int slots() const;

  /// Trains the Sparse Autoencoder over `dataset` for config.epochs passes.
  /// Any StreamingSource feeds the same loop: an in-memory data::Dataset or
  /// an out-of-core data::ShardedDataset train bitwise identically under the
  /// same config.
  TrainReport train(SparseAutoencoder& model,
                    const data::StreamingSource& dataset);

  /// Trains the RBM likewise; the reported costs are mean squared
  /// reconstruction errors.
  TrainReport train(Rbm& model, const data::StreamingSource& dataset);

 private:
  TrainerConfig config_;
};

/// One card's share of a global step's combine under the cluster charging
/// model, run dry (phi::DryRun) through the same combine / scale / update
/// calls the flat tree makes: the card folds its `card_live_slots` with a
/// local tree; the root card also applies the mean scale (when the step
/// combined more than one slot) and the optimizer update. With one card,
/// card_live_slots == global_live_slots and root, this is the whole combine
/// and update of a matrix-form step. `model` is not modified.
phi::KernelStats card_combine_stats(SparseAutoencoder& model,
                                    int card_live_slots, int global_live_slots,
                                    bool root,
                                    const OptimizerConfig& optimizer);
phi::KernelStats card_combine_stats(Rbm& model, int card_live_slots,
                                    int global_live_slots, bool root,
                                    const OptimizerConfig& optimizer);

/// Model mode: trains a freshly built model over a shape-only dataset of
/// `rows` examples under phi::DryRun, so every chunk, batch, ragged tail,
/// shard, combine and update is counted by the code that performs it while
/// no kernel computes and no matrix allocates. The report's stats, batches,
/// chunks and updates equal those of a real run of the same configuration;
/// its costs are zero. A device or cluster in `config` is driven as in a
/// real run. Per-step stats: a dry run of one chunk holding one batch
/// (rows == batch_size == chunk_examples), read through
/// per_chunk_compute_stats().
TrainReport dry_train(const SaeConfig& model, const TrainerConfig& config,
                      la::Index rows);
TrainReport dry_train(const RbmConfig& model, const TrainerConfig& config,
                      la::Index rows);

/// Simulated end-to-end time of a finished training run on `device`
/// (threads already set on the device):
struct SimulatedTime {
  double serialized_s = 0;  // no loading thread: transfer + compute in series
  double pipelined_s = 0;   // Fig. 5 loading thread with the given ring depth
  phi::CostBreakdown total; // compute breakdown of the whole run
};
SimulatedTime simulate(const TrainReport& report, phi::Device& device,
                       int ring_chunks = 4);

}  // namespace deepphi::core

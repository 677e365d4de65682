// Shared-memory data-parallel trainer (docs/data_parallel.md): the
// DistBelief-style replica pattern the paper's scale discussion points at,
// folded into one coprocessor's 240 threads instead of a parameter-server
// cluster. R replica workers (par::ReplicaGroup), each driving its own
// OpenMP team of ~T/R threads, evaluate gradient slots on disjoint
// micro-batches of the SAME chunk — one Fig. 5 ring buffer feeds everyone —
// and a deterministic binary-tree all-reduce combines the slots before one
// optimizer update.
//
// Determinism contract (tested in tests/data_parallel_test.cpp and
// tests/cluster_test.cpp):
//   - A global step has S = replicas × accumulation_steps × cards slots.
//     Slot row ranges come from data::shard_rows(group_rows, S), and a
//     slot's RNG stream is split(update_index·S + slot): both depend only on
//     the data and S, never on which replica or card ran the slot or with
//     how many threads.
//   - The combine is a fixed binary tree over the live (non-empty) slots in
//     ascending slot order, then a mean-scale — no atomics, no arrival
//     order. Kernels are thread-count invariant, so a fixed seed and fixed S
//     give bit-identical parameters for ANY (replicas, accumulation_steps)
//     factorization of S and any replica_threads setting.
//   - With S == 1 the slot degenerates to the single-team trainer's batch:
//     same kernel sequence, same RNG streams, zero combine work — the
//     trained parameters match core::Trainer bit for bit.
//   - cards > 1 (docs/cluster.md) only re-labels WHERE slots live — card c
//     owns the contiguous block [c·R·A, (c+1)·R·A) — and charges the
//     modeled inter-card all-reduce to the cluster's interconnect. The
//     functional combine stays the flat global tree, so any factorization
//     of S into replicas × accumulation_steps × cards trains bit-identical
//     parameters.
#pragma once

#include "core/trainer.hpp"

namespace deepphi::core {

/// Data-parallel twin of core::Trainer. Trainer::train delegates here when
/// config.replicas > 1, config.accumulation_steps > 1, or config.cards > 1;
/// constructing one directly also accepts S == 1 (used by the parity
/// tests). Requires a matrix-form level and no task graph.
class DataParallelTrainer {
 public:
  explicit DataParallelTrainer(TrainerConfig config);

  const TrainerConfig& config() const { return config_; }

  /// Gradient slots per global step (replicas × accumulation_steps × cards).
  int slots() const {
    return config_.replicas * config_.accumulation_steps * config_.cards;
  }

  TrainReport train(SparseAutoencoder& model,
                    const data::StreamingSource& dataset);
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
/// and update of a data-parallel step. `model` is not modified.
phi::KernelStats card_combine_stats(SparseAutoencoder& model,
                                    int card_live_slots, int global_live_slots,
                                    bool root,
                                    const OptimizerConfig& optimizer);
phi::KernelStats card_combine_stats(Rbm& model, int card_live_slots,
                                    int global_live_slots, bool root,
                                    const OptimizerConfig& optimizer);

}  // namespace deepphi::core

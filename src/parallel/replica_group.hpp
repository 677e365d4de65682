// Replica workers for shared-memory data-parallel training (the
// DistBelief-style pattern the paper's future work points at: R model
// replicas on disjoint core subsets, each working a shard of the data).
//
// A ReplicaGroup owns a par::ThreadPool with one worker per replica and a
// per-replica OpenMP thread budget: replica task bodies run inside an OpenMP
// ICV of threads_per_replica threads, so the within-op parallel kernels
// (gemm/elementwise) of R concurrent replicas split the machine instead of
// oversubscribing it R-fold. The replica id is carried on profiler spans
// ("dp.replica[r]") so the host timeline shows the replicas side by side.
//
// With replicas == 1 the group runs the task inline on the calling thread
// with the ambient OpenMP settings — zero scheduling or ICV difference from
// not using a group at all, which is what lets a plain one-replica training
// run take the trainer's slot loop at no cost.
#pragma once

#include <functional>
#include <memory>

#include "parallel/thread_pool.hpp"

namespace deepphi::par {

struct ReplicaGroupConfig {
  int replicas = 1;
  /// OpenMP threads each replica's kernels may use. 0 = auto: the ambient
  /// omp_get_max_threads() divided evenly across replicas (at least 1).
  int threads_per_replica = 0;
};

class ReplicaGroup {
 public:
  explicit ReplicaGroup(ReplicaGroupConfig config);
  ~ReplicaGroup();

  ReplicaGroup(const ReplicaGroup&) = delete;
  ReplicaGroup& operator=(const ReplicaGroup&) = delete;

  int replicas() const { return config_.replicas; }
  /// The resolved per-replica OpenMP budget (auto split already applied).
  int threads_per_replica() const { return threads_per_replica_; }

  /// Runs fn(replica_id) for every replica id in [0, replicas) concurrently
  /// (inline for a single replica) and blocks until all complete. The first
  /// exception thrown by any replica is rethrown after all replicas finish.
  void run(const std::function<void(int)>& fn);

  /// Profiler label for replica `r` ("dp.replica[0]" ... — static storage,
  /// as DEEPPHI_PROFILE_SCOPE requires; ids beyond the label table share a
  /// catch-all label).
  static const char* replica_label(int r);

 private:
  ReplicaGroupConfig config_;
  int threads_per_replica_ = 1;
  std::unique_ptr<ThreadPool> pool_;  // null when replicas == 1
};

}  // namespace deepphi::par

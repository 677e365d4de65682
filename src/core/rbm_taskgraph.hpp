// The RBM CD-1 gradient step expressed as the dependency DAG of paper
// Fig. 6 and executed on a par::TaskGraph, so independent matrix operations
// really run concurrently:
//
//         v1 ──► h1 ──┬──► gw_pos
//                     ├──► gc_pos
//                     └──► v2 ──┬──► gb_neg
//          gb_pos (root)        ├──► recon-error
//                               └──► h2 ──┬──► gw_neg
//                                         └──► gc_neg
//                                  combine (after all statistics)
//
// "Once V1 is calculated, then we can only compute H1 ... After getting the
// result of H1, the computations of V2 and C can run in parallel" — here C
// corresponds to the positive hidden statistics (gc_pos/gw_pos), which
// overlap with the reconstruction V2.
//
// Per-node KernelStats are collected (each node runs under its own
// StatsScope and merges into a shared sink), and exposed together with the
// node's dependency level so the Fig. 6 ablation bench can compare
// serialized vs overlapped execution under the cost model.
#pragma once

#include <mutex>
#include <string>
#include <vector>

#include "core/gradient_buffers.hpp"
#include "core/rbm.hpp"
#include "parallel/task_graph.hpp"
#include "parallel/thread_pool.hpp"
#include "phi/kernel_stats.hpp"

namespace deepphi::core {

class RbmTaskGraphStep {
 public:
  /// Builds the Fig. 6 graph for `model` (requires cd_k == 1). The model and
  /// pool must outlive the step object.
  RbmTaskGraphStep(const Rbm& model, par::ThreadPool& pool);

  /// Executes one CD-1 gradient. Fills `grads` (descent direction), returns
  /// the mean squared reconstruction error. Equivalent to
  /// model.gradient(..., fused=true) up to floating-point summation order.
  double run(const la::Matrix& v1, Rbm::Workspace& ws, RbmGradients& grads,
             const util::Rng& rng);

  /// Peak node concurrency observed during the last run.
  int last_max_concurrency() const { return graph_.last_max_concurrency(); }

  struct NodeReport {
    std::string name;
    std::size_t level = 0;        // dependency depth (Fig. 6 column)
    phi::KernelStats stats;       // work done by this node in the last run
  };
  /// Per-node work of the last run, for the ablation's overlap model.
  std::vector<NodeReport> node_reports() const;

  const par::TaskGraph& graph() const { return graph_; }

 private:
  void build_graph();

  const Rbm& model_;
  par::ThreadPool& pool_;
  par::TaskGraph graph_;

  // Per-run wiring (set by run(), read by node lambdas).
  const la::Matrix* v1_ = nullptr;
  Rbm::Workspace* ws_ = nullptr;
  RbmGradients* grads_ = nullptr;
  util::Rng rng_{0};
  bool dry_ = false;  // the caller's phi::DryRun mode, for the pool threads
  double recon_error_ = 0;

  // Phase-statistic buffers (positive/negative parts kept separate so nodes
  // never write shared memory).
  la::Matrix gw_pos_, gw_neg_;
  la::Vector b_pos_, b_neg_, c_pos_, c_neg_;

  // Per-node stats of the last run (index-aligned with graph node ids).
  mutable std::mutex stats_mutex_;
  std::vector<phi::KernelStats> node_stats_;
  std::vector<std::string> node_names_;
};

}  // namespace deepphi::core

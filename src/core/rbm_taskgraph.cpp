#include "core/rbm_taskgraph.hpp"

#include "la/blas1.hpp"
#include "la/elementwise.hpp"
#include "la/gemm.hpp"
#include "la/reduce.hpp"
#include "phi/kernel_stats.hpp"
#include "util/error.hpp"

namespace deepphi::core {

RbmTaskGraphStep::RbmTaskGraphStep(const Rbm& model, par::ThreadPool& pool)
    : model_(model), pool_(pool) {
  DEEPPHI_CHECK_MSG(model.config().cd_k == 1,
                    "the Fig. 6 graph is a CD-1 step; cd_k = "
                        << model.config().cd_k);
  DEEPPHI_CHECK_MSG(model.config().visible_type == VisibleType::kBernoulli,
                    "the Fig. 6 graph models the paper's binary RBM");
  gw_pos_ = la::Matrix(model.hidden(), model.visible());
  gw_neg_ = la::Matrix(model.hidden(), model.visible());
  b_pos_ = la::Vector(model.visible());
  b_neg_ = la::Vector(model.visible());
  c_pos_ = la::Vector(model.hidden());
  c_neg_ = la::Vector(model.hidden());
  build_graph();
}

void RbmTaskGraphStep::build_graph() {
  // Wraps a node body so its kernel stats land in node_stats_[id] (each pool
  // thread gets its own StatsScope, and runs dry when the caller does;
  // totals merge under the mutex).
  auto add = [this](const std::string& name, std::function<void()> body) {
    node_names_.push_back(name);
    const std::size_t idx = node_names_.size() - 1;
    return graph_.add(name, [this, idx, body = std::move(body)] {
      phi::KernelStats local;
      {
        phi::StatsScope scope(local);
        phi::DryRun mode(dry_);
        body();
      }
      std::lock_guard<std::mutex> lock(stats_mutex_);
      node_stats_[idx] += local;
    });
  };

  const auto n_gb_pos = add("gb_pos: colsum(v1)", [this] {
    la::col_sum(*v1_, b_pos_);
  });
  const auto n_h1 = add("h1: sigmoid(v1*W^T+c), sample", [this] {
    la::gemm_nt(1.0f, *v1_, model_.w(), 0.0f, ws_->h1_mean);
    la::bias_sigmoid_sample(ws_->h1_mean, model_.c(), ws_->h1_sample,
                            rng_.split(0));
  });
  const auto n_gw_pos = add("gw_pos: h1^T*v1", [this] {
    la::gemm_tn(1.0f, ws_->h1_mean, *v1_, 0.0f, gw_pos_);
  });
  const auto n_gc_pos = add("gc_pos: colsum(h1)", [this] {
    la::col_sum(ws_->h1_mean, c_pos_);
  });
  const auto n_v2 = add("v2: sigmoid(h1s*W+b)", [this] {
    la::gemm_nn(1.0f, ws_->h1_sample, model_.w(), 0.0f, ws_->v2,
                la::GemmEpilogue::bias_sigmoid(model_.b()));
  });
  const auto n_gb_neg = add("gb_neg: colsum(v2)", [this] {
    la::col_sum(ws_->v2, b_neg_);
  });
  const auto n_recon = add("recon: ||v1-v2||^2", [this] {
    recon_error_ =
        la::sum_sq_diff(*v1_, ws_->v2) / static_cast<double>(v1_->rows());
  });
  const auto n_h2 = add("h2: sigmoid(v2*W^T+c)", [this] {
    la::gemm_nt(1.0f, ws_->v2, model_.w(), 0.0f, ws_->h2_mean,
                la::GemmEpilogue::bias_sigmoid(model_.c()));
  });
  const auto n_gw_neg = add("gw_neg: h2^T*v2", [this] {
    la::gemm_tn(1.0f, ws_->h2_mean, ws_->v2, 0.0f, gw_neg_);
  });
  const auto n_gc_neg = add("gc_neg: colsum(h2)", [this] {
    la::col_sum(ws_->h2_mean, c_neg_);
  });
  const auto n_combine = add("combine: g = (neg-pos)/m", [this] {
    const float inv_m = 1.0f / static_cast<float>(v1_->rows());
    grads_->g_w.copy_from(gw_neg_);
    la::axpy(-1.0f, gw_pos_, grads_->g_w);
    la::scal(inv_m, grads_->g_w);
    grads_->g_b.copy_from(b_neg_);
    la::axpy(-1.0f, b_pos_, grads_->g_b);
    la::scal(inv_m, grads_->g_b);
    grads_->g_c.copy_from(c_neg_);
    la::axpy(-1.0f, c_pos_, grads_->g_c);
    la::scal(inv_m, grads_->g_c);
  });

  graph_.depends(n_gw_pos, n_h1);
  graph_.depends(n_gc_pos, n_h1);
  graph_.depends(n_v2, n_h1);
  graph_.depends(n_gb_neg, n_v2);
  graph_.depends(n_recon, n_v2);
  graph_.depends(n_h2, n_v2);
  graph_.depends(n_gw_neg, n_h2);
  graph_.depends(n_gc_neg, n_h2);
  graph_.depends(n_combine, n_gb_pos);
  graph_.depends(n_combine, n_gw_pos);
  graph_.depends(n_combine, n_gc_pos);
  graph_.depends(n_combine, n_gb_neg);
  graph_.depends(n_combine, n_gw_neg);
  graph_.depends(n_combine, n_gc_neg);
}

double RbmTaskGraphStep::run(const la::Matrix& v1, Rbm::Workspace& ws,
                             RbmGradients& grads, const util::Rng& rng) {
  DEEPPHI_CHECK_MSG(v1.cols() == model_.visible(),
                    "input dim " << v1.cols() << " != visible "
                                 << model_.visible());
  ws.ensure(v1.rows(), model_.visible(), model_.hidden());
  grads.ensure(model_.visible(), model_.hidden());
  v1_ = &v1;
  ws_ = &ws;
  grads_ = &grads;
  rng_ = rng;
  dry_ = phi::dry_run();
  {
    std::lock_guard<std::mutex> lock(stats_mutex_);
    node_stats_.assign(node_names_.size(), phi::KernelStats{});
  }

  graph_.run(pool_);

  // Merge per-node stats into the caller's active StatsScope (if any): the
  // pool threads had their own scopes, so the caller would otherwise see
  // nothing.
  phi::KernelStats total;
  {
    std::lock_guard<std::mutex> lock(stats_mutex_);
    for (const auto& s : node_stats_) total += s;
  }
  phi::record(total);
  return recon_error_;
}

std::vector<RbmTaskGraphStep::NodeReport> RbmTaskGraphStep::node_reports() const {
  const auto levels = graph_.levels();
  std::vector<NodeReport> reports;
  std::lock_guard<std::mutex> lock(stats_mutex_);
  for (std::size_t i = 0; i < node_names_.size(); ++i)
    reports.push_back(NodeReport{node_names_[i], levels[i], node_stats_[i]});
  return reports;
}

}  // namespace deepphi::core

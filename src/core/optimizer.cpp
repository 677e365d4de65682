#include "core/optimizer.hpp"

#include <cmath>

#include "phi/kernel_stats.hpp"
#include "util/error.hpp"

namespace deepphi::core {

Optimizer::Optimizer(OptimizerConfig config) : config_(config) {
  DEEPPHI_CHECK_MSG(config.lr > 0, "learning rate must be positive");
  DEEPPHI_CHECK_MSG(config.momentum >= 0 && config.momentum < 1,
                    "momentum must be in [0, 1)");
  DEEPPHI_CHECK_MSG(config.lr_decay >= 0, "lr_decay must be >= 0");
}

float Optimizer::current_lr() const {
  return config_.lr / (1.0f + config_.lr_decay * static_cast<float>(step_));
}

void Optimizer::update(la::Matrix& param, const la::Matrix& grad) {
  DEEPPHI_CHECK_MSG(param.rows() == grad.rows() && param.cols() == grad.cols(),
                    "optimizer shape mismatch");
  update_raw(param.data(), grad.data(), param.size());
}

void Optimizer::update(la::Vector& param, const la::Vector& grad) {
  DEEPPHI_CHECK_MSG(param.size() == grad.size(), "optimizer size mismatch");
  update_raw(param.data(), grad.data(), param.size());
}

void Optimizer::update_raw(float* p, const float* g, la::Index n) {
  const float lr = current_lr();
  switch (config_.kind) {
    case OptimizerKind::kSgd: {
      phi::record(phi::loop_contribution(n, 2.0, 2.0, 1.0));
      if (phi::dry_run()) return;
#pragma omp simd
      for (la::Index i = 0; i < n; ++i) p[i] -= lr * g[i];
      break;
    }
    case OptimizerKind::kMomentum: {
      phi::record(phi::loop_contribution(n, 4.0, 3.0, 2.0));
      if (phi::dry_run()) return;  // before the state keyed by p
      auto& v = state_[p];
      if (v.size() != static_cast<std::size_t>(n))
        v.assign(static_cast<std::size_t>(n), 0.0f);
      const float mu = config_.momentum;
      float* vp = v.data();
#pragma omp simd
      for (la::Index i = 0; i < n; ++i) {
        vp[i] = mu * vp[i] - lr * g[i];
        p[i] += vp[i];
      }
      break;
    }
    case OptimizerKind::kAdagrad: {
      phi::record(phi::loop_contribution(n, 6.0, 3.0, 2.0));
      if (phi::dry_run()) return;  // before the state keyed by p
      auto& a = state_[p];
      if (a.size() != static_cast<std::size_t>(n))
        a.assign(static_cast<std::size_t>(n), 0.0f);
      const float eps = config_.adagrad_eps;
      float* ap = a.data();
      // Adagrad uses the base rate; the accumulator provides the decay.
      const float base_lr = config_.lr;
#pragma omp simd
      for (la::Index i = 0; i < n; ++i) {
        ap[i] += g[i] * g[i];
        p[i] -= base_lr * g[i] / (std::sqrt(ap[i]) + eps);
      }
      break;
    }
  }
}

}  // namespace deepphi::core

#include "core/init.hpp"

#include <cmath>

#include "phi/kernel_stats.hpp"

namespace deepphi::core {

void init_weights_uniform(la::Matrix& w, la::Index fan_in, la::Index fan_out,
                          util::Rng& rng) {
  if (phi::dry_run()) return;  // shape-only weights
  const float r = std::sqrt(6.0f / static_cast<float>(fan_in + fan_out + 1));
  float* p = w.data();
  for (la::Index i = 0; i < w.size(); ++i)
    p[i] = static_cast<float>(rng.uniform(-r, r));
}

void init_weights_gaussian(la::Matrix& w, float sigma, util::Rng& rng) {
  if (phi::dry_run()) return;  // shape-only weights
  float* p = w.data();
  for (la::Index i = 0; i < w.size(); ++i)
    p[i] = static_cast<float>(rng.normal(0.0, sigma));
}

}  // namespace deepphi::core

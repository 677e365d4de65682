#include "baseline/matlab_like.hpp"

#include <algorithm>

namespace deepphi::baseline {

namespace {
using phi::KernelStats;

// A Matlab elementwise expression of n elements: the op itself plus a
// temporary materialization (pure copy traffic, one more dispatch).
KernelStats matlab_elementwise(la::Index n, double flops_per_elem,
                               double reads, double writes) {
  KernelStats k = phi::loop_contribution(n, flops_per_elem, reads, writes);
  k += phi::loop_contribution(n, 0.0, 1.0, 1.0);  // temporary copy
  return k;
}
}  // namespace

phi::KernelStats matlab_sae_batch_stats(la::Index batch, la::Index visible,
                                        la::Index hidden) {
  const la::Index b = batch, v = visible, h = hidden;
  KernelStats k;
  // forward
  k += phi::gemm_contribution(b, h, v);
  k += matlab_elementwise(b * h, 1.0, 1.0, 1.0);  // +bias (bsxfun)
  k += matlab_elementwise(b * h, 8.0, 1.0, 1.0);  // sigmoid
  k += phi::gemm_contribution(b, v, h);
  k += matlab_elementwise(b * v, 1.0, 1.0, 1.0);
  k += matlab_elementwise(b * v, 8.0, 1.0, 1.0);
  // cost pieces
  k += matlab_elementwise(b * h, 1.0, 1.0, 0.0);  // mean(y)
  k += matlab_elementwise(b * v, 3.0, 2.0, 0.0);  // sum((z-x).^2)
  k += matlab_elementwise(h * v, 2.0, 1.0, 0.0);
  k += matlab_elementwise(v * h, 2.0, 1.0, 0.0);
  k += matlab_elementwise(h, 12.0, 1.0, 0.0);
  // output delta (three vectorized expressions in typical Matlab code:
  // (z-x), z.*(1-z), product)
  k += matlab_elementwise(b * v, 1.0, 2.0, 1.0);
  k += matlab_elementwise(b * v, 2.0, 1.0, 1.0);
  k += matlab_elementwise(b * v, 1.0, 2.0, 1.0);
  // W2/b2 gradients
  k += phi::gemm_contribution(v, h, b);
  k += matlab_elementwise(v * h, 2.0, 2.0, 1.0);
  k += matlab_elementwise(b * v, 1.0, 1.0, 0.0);
  // hidden delta
  k += phi::gemm_contribution(b, h, v);
  k += matlab_elementwise(h, 6.0, 1.0, 1.0);
  k += matlab_elementwise(b * h, 1.0, 1.0, 1.0);
  k += matlab_elementwise(b * h, 2.0, 1.0, 1.0);
  k += matlab_elementwise(b * h, 1.0, 2.0, 1.0);
  // W1/b1 gradients
  k += phi::gemm_contribution(h, v, b);
  k += matlab_elementwise(h * v, 2.0, 2.0, 1.0);
  k += matlab_elementwise(b * h, 1.0, 1.0, 0.0);
  // SGD update, one vectorized expression per parameter
  k += matlab_elementwise(h * v, 2.0, 2.0, 1.0);
  k += matlab_elementwise(h, 2.0, 2.0, 1.0);
  k += matlab_elementwise(v * h, 2.0, 2.0, 1.0);
  k += matlab_elementwise(v, 2.0, 2.0, 1.0);
  return k;
}

phi::KernelStats matlab_sae_train_stats(la::Index examples, la::Index batch,
                                        la::Index visible, la::Index hidden) {
  KernelStats k;
  for (la::Index begin = 0; begin < examples; begin += batch)
    k += matlab_sae_batch_stats(std::min(batch, examples - begin), visible,
                                hidden);
  return k;
}

}  // namespace deepphi::baseline

// Loop-form training steps — the bottom half of the Table I ladder, for the
// Sparse Autoencoder and the RBM. The math is identical to
// SparseAutoencoder::gradient and Rbm::gradient, but every operation is a
// naive scalar loop (triple-loop matrix products, one loop per elementwise
// op, no blocking, no packing, no SIMD pragmas):
//
//   parallel = false → the paper's "Baseline" (sequential) row;
//   parallel = true  → the paper's "OpenMP" row ("we used OpenMP to
//                      parallelize all the loops") — same loops, each wrapped
//                      in its own parallel region.
//
// Work is recorded in the naive KernelStats class so the cost model charges
// it at scalar rates. Every result is the same for any thread count: the
// cost reductions combine fixed chunks in order (la::ordered_sum), and the
// RBM samples with the same (rng.split(phase)).split(row) stream convention
// as the optimized kernels, so all ladder levels draw bit-identical samples.
#pragma once

#include "core/gradient_buffers.hpp"
#include "core/rbm.hpp"
#include "core/sparse_autoencoder.hpp"

namespace deepphi::core {

/// SAE forward + backprop via naive loops; fills `grads`, returns the batch
/// cost.
double sae_gradient_loops(const SparseAutoencoder& model, const la::Matrix& x,
                          SparseAutoencoder::Workspace& ws, AeGradients& grads,
                          bool parallel);

/// θ ← θ − lr · g via naive loops.
void sae_apply_update_loops(SparseAutoencoder& model, const AeGradients& grads,
                            float lr, bool parallel);

/// RBM CD-k gradient via naive loops; fills `grads` (descent direction),
/// returns the mean squared reconstruction error.
double rbm_gradient_loops(const Rbm& model, const la::Matrix& v1,
                          Rbm::Workspace& ws, RbmGradients& grads,
                          const util::Rng& rng, bool parallel);

/// θ ← θ − lr · g via naive loops.
void rbm_apply_update_loops(Rbm& model, const RbmGradients& grads, float lr,
                            bool parallel);

}  // namespace deepphi::core

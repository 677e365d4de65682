// Reduction kernels: column sums and means, scalar reductions, and the
// KL-sparsity helpers of the Sparse Autoencoder cost (paper eqs. 5–6).
// Column reductions accumulate in double to keep large-batch averages stable.
#pragma once

#include "la/matrix.hpp"

namespace deepphi::la {

/// out[c] = Σ_r m(r,c). `out` must have m.cols() elements.
void col_sum(const Matrix& m, Vector& out);

/// out[c] = mean_r m(r,c) — e.g. the average activation ρ̂ of each hidden
/// unit over a batch.
void col_mean(const Matrix& m, Vector& out);

/// Σ of all elements.
double sum(const Matrix& m);

/// Σ (a - b)² over all elements — the squared reconstruction error. Each
/// la::ordered_sum chunk folds in 8 double lanes (simd::KernelTable::
/// sq_diff8), so the bits are the same on every tier and thread count.
double sum_sq_diff(const Matrix& a, const Matrix& b);

/// Σ_j KL(ρ ‖ ρ̂_j) with KL(ρ‖q) = ρ·log(ρ/q) + (1-ρ)·log((1-ρ)/(1-q)).
/// ρ̂ entries are clamped to [eps, 1-eps] for numerical safety.
double kl_divergence(float rho, const Vector& rho_hat, float eps = 1e-6f);

/// out[j] = beta · (-ρ/ρ̂_j + (1-ρ)/(1-ρ̂_j)) — the sparsity term added to
/// every row of the hidden-layer delta during backprop.
void sparsity_delta(float rho, float beta, const Vector& rho_hat, Vector& out,
                    float eps = 1e-6f);

}  // namespace deepphi::la

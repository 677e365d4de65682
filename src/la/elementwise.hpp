// Elementwise kernels for the training steps, in two granularities:
//
//  * unfused primitives (add_row_broadcast, sigmoid_inplace, sub,
//    dsigmoid_mul_inplace, ...) — one parallel kernel launch each, matching
//    the paper's plain "OpenMP" optimization level where every loop gets its
//    own parallel region;
//  * fused kernels (bias_sigmoid, output_delta, bias_sigmoid_sample) — one
//    pass over memory doing the combined update, matching the paper's
//    "Improved OpenMP+MKL" step ("we finally combine several loops together
//    to make the granularity more suitable"). The SAE's fused hidden delta
//    is not here: it is a GEMM epilogue, GemmEpilogue::bias_dsigmoid_mul.
//
// Flop-count conventions (recorded per element; the cost model, not the
// hardware, consumes these): add/sub/mul = 1, fma = 2, sigmoid = 8 (exp
// amortized), bernoulli sample = 12 (counter RNG + compare).
#pragma once

#include "la/matrix.hpp"
#include "util/rng.hpp"

namespace deepphi::la {

/// m(r,c) = sigmoid(m(r,c)).
void sigmoid_inplace(Matrix& m);

/// m(r,c) += bias[c] — broadcast a per-column bias over all rows.
void add_row_broadcast(Matrix& m, const Vector& bias);

/// out = a - b.
void sub(const Matrix& a, const Matrix& b, Matrix& out);

/// delta ⊙= act ⊙ (1 - act) — multiply by the sigmoid derivative expressed
/// through the activation.
void dsigmoid_mul_inplace(Matrix& delta, const Matrix& act);

/// out(r,c) = 1 if u < mean(r,c) else 0, with u drawn from a per-row
/// substream of `base` (row r uses base.split(r)), so results are identical
/// for any thread count.
void sample_bernoulli(const Matrix& mean, Matrix& out, const util::Rng& base);

// --- fused kernels ---

/// m = sigmoid(m + bias[c]) in a single pass (fuses add_row_broadcast +
/// sigmoid_inplace).
void bias_sigmoid(Matrix& m, const Vector& bias);

/// delta = (z - x) ⊙ z ⊙ (1 - z) — the output-layer delta of squared-error
/// backprop, in one pass.
void output_delta(const Matrix& z, const Matrix& x, Matrix& delta);

/// Fused RBM hidden step: m = sigmoid(m + bias[c]); sample(r,c) =
/// bernoulli(m(r,c)) — one pass producing both mean and sample.
void bias_sigmoid_sample(Matrix& m, const Vector& bias, Matrix& sample,
                         const util::Rng& base);

/// m(r,c) += bias[c] — the vectorized (Improved-granularity) broadcast used
/// by linear visible units of the Gaussian RBM. Identical math to
/// add_row_broadcast but recorded in the vector loop class.
void add_row_broadcast_vec(Matrix& m, const Vector& bias);

/// m(r,c) += sigma · N(0,1), with per-row substreams of `base` (row r uses
/// base.split(r)) — Gaussian visible sampling.
void add_gaussian_noise(Matrix& m, float sigma, const util::Rng& base);

}  // namespace deepphi::la

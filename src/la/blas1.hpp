// BLAS-1-class kernels: vector/matrix-flat elementwise linear operations.
// All kernels are OpenMP-parallel for large inputs, vectorizable, and record
// their KernelStats contribution once per call.
#pragma once

#include <algorithm>

#include "la/matrix.hpp"

namespace deepphi::la {

/// Element count from which the BLAS-1 kernels, and the optimizer's
/// elementwise updates, split across the OpenMP team: below it the
/// fork/join costs more than it saves.
inline constexpr Index kBlas1ParallelThreshold = 1 << 15;

/// The one deterministic parallel reduction behind every double-accumulated
/// sum in la (dot, nrm2sq, asum, sum, sum_sq_diff): [0, n) is cut into
/// fixed-size chunks whose size depends only on n, never on the thread
/// count; `chunk_sum(begin, count)` reduces one chunk, and the partials are
/// combined serially in chunk order. Same bits for any thread count, and
/// with `parallel` false, where the calling thread reduces every chunk.
template <typename ChunkSum>
double ordered_sum(Index n, ChunkSum&& chunk_sum, bool parallel = true) {
  constexpr Index kMinChunk = 1 << 15;  // below this, one chunk, no fork
  constexpr Index kMaxChunks = 256;
  if (n == 0) return 0.0;
  const Index chunk =
      std::max<Index>(kMinChunk, (n + kMaxChunks - 1) / kMaxChunks);
  const Index chunks = (n + chunk - 1) / chunk;
  double partials[kMaxChunks];
#pragma omp parallel for if (parallel && chunks > 1) schedule(static)
  for (Index c = 0; c < chunks; ++c) {
    const Index b = c * chunk;
    partials[c] = chunk_sum(b, std::min(chunk, n - b));
  }
  double acc = 0.0;
  for (Index c = 0; c < chunks; ++c) acc += partials[c];
  return acc;
}

/// y += alpha * x (sizes must match).
void axpy(float alpha, const Vector& x, Vector& y);
/// B += alpha * A (shapes must match). The parameter-update kernel
/// (paper eqs. 16–18) in matrix form.
void axpy(float alpha, const Matrix& a, Matrix& b);

/// x *= alpha.
void scal(float alpha, Vector& x);
void scal(float alpha, Matrix& a);

/// Dot product (double accumulator for stability).
double dot(const Vector& x, const Vector& y);
/// Frobenius inner product of two matrices.
double dot(const Matrix& a, const Matrix& b);

/// Sum of squares (‖x‖²).
double nrm2sq(const Vector& x);
double nrm2sq(const Matrix& a);

/// Sum of absolute values.
double asum(const Vector& x);

}  // namespace deepphi::la
